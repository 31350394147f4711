package gmw

import (
	"fmt"
	"math/rand"
	"sync"

	"repro/internal/ot"
	"repro/internal/trace"
	"repro/internal/transport"
)

// OT-based Beaver-triple preprocessing: replaces the trusted dealer with
// the standard pairwise-OT construction. For triple t each party p samples
// private bits a_p, b_p; the triple secret is
//
//	c = (⊕_p a_p)(⊕_q b_q) = ⊕_p a_p·b_p ⊕ ⊕_{p≠q} a_p·b_q ,
//
// and every cross term a_p·b_q is turned into XOR shares between p and q
// by one 1-out-of-2 OT: the sender p offers (x, x⊕a_p), the receiver q
// selects with b_q and learns x⊕(a_p·b_q); x stays with p. Each party's
// C share is its own a_p·b_p XOR all masks it sent XOR all messages it
// received. Security is semi-honest, inherited from the OT.
//
// Cost: n(n−1) OTs per triple with 2048-bit exponentiations each — orders
// of magnitude slower than the dealer, which is why the dealer remains the
// default for simulation and OT preprocessing is an explicit opt-in
// (core.TripleOT / eppi.WithOTPreprocessing).

// GenTriplesWideOT runs the pairwise-OT preprocessing among all parties
// of net for count word-triples whose first lanes lanes are live: it
// generates count·lanes scalar triples and packs lane k < lanes of
// ordinal t from scalar ordinal t·lanes+k. The remaining lanes get the
// all-zero triple (a = b = c = 0 at every party). That is a valid triple,
// and it is safe exactly for padding lanes whose every wire value is
// public: there the opened d = x ⊕ a and e = y ⊕ b disclose only public
// values. OT preprocessing does not amortize across lanes — each live
// lane's cross terms still need their own OTs — the wide win is the
// online phase; this keeps the cost model honest, and a run with few live
// lanes pays only for those. seed derives each party's local randomness
// deterministically (use distinct seeds per run).
func GenTriplesWideOT(net transport.Network, count, lanes int, seed int64) ([]WideTriples, error) {
	n := net.Size()
	if n < 2 {
		return nil, fmt.Errorf("gmw: OT preprocessing needs >= 2 parties, got %d", n)
	}
	if count < 0 {
		return nil, fmt.Errorf("gmw: negative triple count %d", count)
	}
	if lanes < 1 || lanes > WideLanes {
		return nil, fmt.Errorf("gmw: %d live lanes, want 1..%d", lanes, WideLanes)
	}
	// The preprocessing span hangs under whatever span the caller attached
	// to the network; it covers all n(n−1) pairwise OT sessions.
	otSpan := transport.SpanOf(net).Child("gmw.ot_preprocess",
		trace.Int("parties", n), trace.Int("triples", count*lanes))
	defer otSpan.End()
	group := ot.DefaultGroup()
	out := make([]WideTriples, n)
	errs := make([]error, n)
	var failOnce sync.Once
	var wg sync.WaitGroup
	for p := 0; p < n; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed ^ int64(p+1)*6700417))
			a, b, c, err := otPartyRun(group, net.Node(p), count*lanes, rng)
			if err != nil {
				errs[p] = fmt.Errorf("party %d: %w", p, err)
				failOnce.Do(func() { net.Close() })
				return
			}
			out[p] = WideTriples{A: packLanes(a, lanes), B: packLanes(b, lanes), C: packLanes(c, lanes)}
		}(p)
	}
	wg.Wait()
	if err := transport.RootCause(errs); err != nil {
		return nil, err
	}
	return out, nil
}

// packLanes packs 0/1 bytes, lanes per word, into words whose lane k of
// word t is bits[t·lanes+k]; lanes past the live ones stay zero.
func packLanes(bits []byte, lanes int) []uint64 {
	words := make([]uint64, len(bits)/lanes)
	for i, bit := range bits {
		words[i/lanes] |= uint64(bit&1) << uint(i%lanes)
	}
	return words
}

// otPartyRun executes one party's role in the preprocessing of count
// scalar triples and returns its A, B and C shares as 0/1 bytes.
func otPartyRun(group ot.Group, node transport.Node, count int, rng *rand.Rand) (a, b, c []byte, err error) {
	n := node.Size()
	id := node.ID()
	a = make([]byte, count)
	b = make([]byte, count)
	c = make([]byte, count)
	for t := 0; t < count; t++ {
		a[t] = byte(rng.Intn(2))
		b[t] = byte(rng.Intn(2))
		c[t] = a[t] & b[t]
	}
	if count == 0 {
		return a, b, c, nil
	}
	coll := transport.NewCollector(node)

	// sendSession: we are the sender of session (id → peer), offering
	// (x_t, x_t ⊕ a_t); our C share absorbs the masks.
	sendSession := func(peer int) error {
		pairs := make([][2][]byte, count)
		for t := 0; t < count; t++ {
			x := byte(rng.Intn(2))
			pairs[t] = [2][]byte{{x}, {x ^ a[t]}}
			c[t] ^= x
		}
		seq := uint32(id*n + peer)
		if err := ot.SendBatch(group, coll, peer, pairs, rng, seq); err != nil {
			return fmt.Errorf("OT send to %d: %w", peer, err)
		}
		return nil
	}
	// recvSession: we are the receiver of session (peer → id), selecting
	// with b_t; our C share absorbs the received x ⊕ a_peer·b.
	recvSession := func(peer int) error {
		seq := uint32(peer*n + id)
		got, err := ot.ReceiveBatch(group, coll, peer, b[:count:count], rng, seq)
		if err != nil {
			return fmt.Errorf("OT recv from %d: %w", peer, err)
		}
		for t := 0; t < count; t++ {
			c[t] ^= got[t][0] & 1
		}
		return nil
	}

	// Pairwise sessions in deadlock-free order: within each pair the
	// lower id sends first; peers are processed in increasing id order.
	for peer := 0; peer < n; peer++ {
		if peer == id {
			continue
		}
		first, second := recvSession, sendSession
		if id < peer {
			first, second = sendSession, recvSession
		}
		if err := first(peer); err != nil {
			return nil, nil, nil, err
		}
		if err := second(peer); err != nil {
			return nil, nil, nil, err
		}
	}
	return a, b, c, nil
}
