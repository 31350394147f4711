package main

import (
	"bytes"
	"errors"
	"fmt"

	"repro/internal/bitmat"
)

// digest folds a provider list into a 64-bit FNV-1a hash. Answers are
// checked by digest: the benchmark keeps one uint64 per owner and epoch
// instead of every published column.
type digest uint64

const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

func newDigest() digest { return fnvOffset }

func (d digest) add(v int) digest {
	x := uint64(d)
	for k := 0; k < 4; k++ {
		x ^= uint64(byte(v >> (8 * k)))
		x *= fnvPrime
	}
	return digest(x)
}

// digestOf hashes a provider list.
func digestOf(providers []int) uint64 {
	d := newDigest()
	for _, p := range providers {
		d = d.add(p)
	}
	return uint64(d.add(len(providers)))
}

// columnDigests returns, per owner, the digest of its column of the
// published matrix — the answer every lookup of that owner must return
// while the epoch is served.
func columnDigests(published *bitmat.Matrix) []uint64 {
	out := make([]uint64, published.Cols())
	for j := range out {
		out[j] = digestOf(published.ColOnes(j))
	}
	return out
}

var errMalformed = errors.New("malformed answer")

// errRowFailed marks a batch row the gateway could not resolve (it
// carries an "error" field): a failed lookup, not a wrong one.
var errRowFailed = errors.New("batch row failed upstream")

var providersKey = []byte(`"providers":[`)

// scanProviders parses the integer list that follows the next
// "providers":[ key at or after off, returning its digest and the offset
// just past the closing bracket.
func scanProviders(body []byte, off int) (uint64, int, error) {
	k := bytes.Index(body[off:], providersKey)
	if k < 0 {
		return 0, 0, errMalformed
	}
	i := off + k + len(providersKey)
	d := newDigest()
	count := 0
	for {
		if i >= len(body) {
			return 0, 0, errMalformed
		}
		switch c := body[i]; {
		case c == ']':
			return uint64(d.add(count)), i + 1, nil
		case c == ',':
			i++
		case c >= '0' && c <= '9':
			v := 0
			for i < len(body) && body[i] >= '0' && body[i] <= '9' {
				v = v*10 + int(body[i]-'0')
				i++
			}
			d = d.add(v)
			count++
		default:
			return 0, 0, fmt.Errorf("%w: byte %q in provider list", errMalformed, c)
		}
	}
}

// scanSingle digests the provider list of a /v1/query answer.
func scanSingle(body []byte) (uint64, error) {
	d, _, err := scanProviders(body, 0)
	return d, err
}

// scanBatch digests the rows of a /v1/query/batch answer into out, which
// must have one slot per requested owner. Rows are position-matched to
// the request, and encoding/json writes a row's optional "error" field
// right after its provider list.
func scanBatch(body []byte, out []uint64) error {
	off := 0
	for r := range out {
		d, next, err := scanProviders(body, off)
		if err != nil {
			return fmt.Errorf("row %d: %w", r, err)
		}
		if next < len(body) && body[next] == ',' {
			return fmt.Errorf("row %d: %w", r, errRowFailed)
		}
		out[r] = d
		off = next
	}
	if bytes.Contains(body[off:], providersKey) {
		return fmt.Errorf("%w: more rows than owners asked", errMalformed)
	}
	return nil
}
