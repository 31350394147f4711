package core

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/bitmat"
	"repro/internal/mathx"
	"repro/internal/transport"
)

// resultDigest is a SHA-256 over everything a secure construction decides
// in public: the published matrix bytes, the β vector, the hidden set, the
// common count and λ.
func resultDigest(t *testing.T, res *Result) string {
	t.Helper()
	pub, err := res.Published.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	h := sha256.New()
	h.Write(pub)
	var word [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(word[:], v)
		h.Write(word[:])
	}
	for _, b := range res.Betas {
		put(math.Float64bits(b))
	}
	for _, hid := range res.Hidden {
		if hid {
			h.Write([]byte{1})
		} else {
			h.Write([]byte{0})
		}
	}
	put(uint64(res.CommonCount))
	put(math.Float64bits(res.Lambda))
	return hex.EncodeToString(h.Sum(nil))
}

// goldenMatrixFixture is the 12 × 100 fixture of the batch-geometry
// matrix: BatchSize 40 and 33 force ragged slabs in every batch plus a
// ragged final batch, 64 is one full slab per batch, 0 one batch for all.
// A few identities are held by every provider, so each policy has a
// handful of commons and 0 < λ < 1: the mixing coins, whose streams follow
// the batch geometry, decide part of the hidden set.
func goldenMatrixFixture() (*bitmat.Matrix, []float64) {
	rng := rand.New(rand.NewSource(9))
	m, n := 12, 100
	truth := randomMatrix(rng, m, n, 0.2)
	for j := 0; j < n; j += 33 {
		for i := 0; i < m; i++ {
			truth.Set(i, j, true)
		}
	}
	eps := make([]float64, n)
	for j := range eps {
		eps[j] = 0.2 + 0.4*rng.Float64()
	}
	return truth, eps
}

// secureGolden pins the public outcome of the secure construction. The
// digests were recorded from the per-batch scalar GMW evaluator that the
// bit-sliced evaluator replaced, so every entry proves the replacement
// publishes the bit-identical M', β, hidden set, count and λ.
var secureGolden = []struct {
	policy mathx.Policy
	batch  int
	digest string
}{
	{mathx.PolicyBasic, 0, "211f8077af5c771cf74d45886a37047129e92584710704eba80aa8a9fbf6904a"},
	{mathx.PolicyBasic, 40, "4cc92f2693db4a0da34fe1b7da518de340202ae9400c51c1ee5fe65456b78f8b"},
	{mathx.PolicyBasic, 64, "684f8fcefe9aee9753744e3e6a60c15e79e1e48096a0e9839243e16d57845508"},
	{mathx.PolicyBasic, 33, "5bf95ba89e4a0c420b2e4c5304a18784c28001543d9ba324a9b4efa6ef433a3c"},
	{mathx.PolicyIncremented, 0, "72b730f0f0af325005527efd0ce845eb20e7c520bbb089a6a85dc6bcecd9bf2d"},
	{mathx.PolicyIncremented, 40, "ff546afd6cd91f55ac876e6830b5568299a5dcb070d6b8aaa076d1af803d4f6c"},
	{mathx.PolicyIncremented, 64, "5daf4eeb0cc111b207163fd58a560b31f94a75ecdf5b96488812f423fd1485f7"},
	{mathx.PolicyIncremented, 33, "4a1bfb028246564c35565c6e0ac9babbbaccf9c0c98ff9753972562ef1c29fb9"},
	{mathx.PolicyChernoff, 0, "5687100c51fb84336976eb58d8729178837d7498215910653004f80cce160e4d"},
	{mathx.PolicyChernoff, 40, "24e55d9b08adc68f992c4ee8cfc96705ac0b5c5abe6ae31f989c2631a576ff95"},
	{mathx.PolicyChernoff, 64, "873f2af62f68376daa03fc95ca0b4994df64fc9f15c14df221ddb49240eed727"},
	{mathx.PolicyChernoff, 33, "c52186dd8f3c9987d7494396b899719b2e1f15005abd63a62f2c3c74ed25ce1d"},
}

// Digests of the transport and preprocessing fixtures (same provenance).
const (
	goldenTCPDigest = "0525c3379879fff7632aae1b7f72f5d023e02010942ab32dcb18e3a286c920e2"
	goldenOTDigest  = "2a9647d9ec62fd5d02e529601290f4b0dabb0bfd2db139da3fc2a39780aca398"
)

// TestWideSecureConstructEndToEnd is the regression gate of the secure
// path: every demo policy, at 1 and 8 workers, over four batch geometries,
// must reproduce the digest the scalar evaluator recorded.
func TestWideSecureConstructEndToEnd(t *testing.T) {
	truth, eps := goldenMatrixFixture()
	for _, g := range secureGolden {
		for _, workers := range []int{1, 8} {
			g, workers := g, workers
			t.Run(fmt.Sprintf("%v/batch=%d/workers=%d", g.policy, g.batch, workers), func(t *testing.T) {
				cfg := secureCfg(23)
				cfg.Policy = g.policy
				if g.policy == mathx.PolicyIncremented {
					cfg.Delta = 0.02
				}
				cfg.BatchSize = g.batch
				cfg.Workers = workers
				res, err := Construct(truth, eps, cfg)
				if err != nil {
					t.Fatal(err)
				}
				if got := resultDigest(t, res); got != g.digest {
					t.Fatalf("digest %s, want %s", got, g.digest)
				}
				if res.Secure == nil || res.Secure.MPCRounds == 0 {
					t.Fatal("secure run recorded no MPC rounds")
				}
			})
		}
	}
}

// TestWideSecureTransportsAndTriples runs the secure construction over
// real TCP sessions and with OT preprocessing; each must reproduce the
// digest the scalar evaluator recorded on the same fixture.
func TestWideSecureTransportsAndTriples(t *testing.T) {
	t.Run("tcp", func(t *testing.T) {
		cfg := secureCfg(29)
		cfg.Policy = mathx.PolicyBasic
		cfg.NewNetwork = func(parties int) (transport.Network, error) { return transport.NewTCP(parties) }
		res, err := Construct(matrixWithFreqs(6, []int{6, 1, 2, 4, 1}), []float64{0.4, 0.6, 0.8, 0.5, 0.7}, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if got := resultDigest(t, res); got != goldenTCPDigest {
			t.Fatalf("digest %s, want %s", got, goldenTCPDigest)
		}
	})
	t.Run("ot", func(t *testing.T) {
		if testing.Short() {
			t.Skip("public-key OT preprocessing is slow")
		}
		// The smallest meaningful OT fixture: 2 coordinators, 2
		// identities, 3 coin bits.
		cfg := secureCfg(37)
		cfg.Policy = mathx.PolicyBasic
		cfg.C = 2
		cfg.CoinBits = 3
		cfg.Triples = TripleOT
		res, err := Construct(matrixWithFreqs(4, []int{4, 1}), []float64{0.5, 0.5}, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if got := resultDigest(t, res); got != goldenOTDigest {
			t.Fatalf("digest %s, want %s", got, goldenOTDigest)
		}
	})
}
