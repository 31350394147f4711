package gmw

import (
	"fmt"
	"math/rand"
	"sync"
	"time"

	"repro/internal/circuit"
	"repro/internal/mathx"
	"repro/internal/parallel"
	"repro/internal/trace"
	"repro/internal/transport"
)

// Bit-sliced (SIMD-within-a-register) evaluation: one protocol execution
// runs WideLanes = 64 independent instances of the same circuit. A wire's
// share is a uint64 whose bit k belongs to instance k; XOR and
// AND-combination are single word operations, a NOT is a word complement
// at party 0, and one Beaver word-triple serves all 64 instances of an
// AND gate. Each AND layer broadcasts the d/e *words* directly — no
// per-bit pack/unpack — so one message per peer opens a layer for every
// instance.

// WideLanes is the number of circuit instances evaluated per wide run.
const WideLanes = 64

// WideTriples holds one party's XOR shares of bit-sliced Beaver triples:
// word t is the 64-lane triple for AND-gate ordinal t, and for every lane
// k the bits satisfy (⊕ᵢ Aᵢ[t]) ∧ (⊕ᵢ Bᵢ[t]) = ⊕ᵢ Cᵢ[t] bit-wise.
type WideTriples struct {
	A, B, C []uint64
}

// GenTriplesWide deals bit-sliced Beaver triples for `parties` parties and
// `count` AND gates (one word-triple per gate, 64 lanes each) from rng.
func GenTriplesWide(rng *rand.Rand, parties, count int) ([]WideTriples, error) {
	out, err := newWideTriples(parties, count)
	if err != nil {
		return nil, err
	}
	for t := 0; t < count; t++ {
		dealWideTriple(rng, out, t)
	}
	return out, nil
}

// newWideTriples validates a dealer request and allocates its zeroed
// per-party word slices.
func newWideTriples(parties, count int) ([]WideTriples, error) {
	if parties < 2 || count < 0 {
		return nil, fmt.Errorf("gmw: bad dealer request parties=%d count=%d", parties, count)
	}
	out := make([]WideTriples, parties)
	for p := range out {
		out[p] = WideTriples{
			A: make([]uint64, count),
			B: make([]uint64, count),
			C: make([]uint64, count),
		}
	}
	return out, nil
}

// dealWideTriple deals ordinal t: sample the 64-lane secrets, XOR-share
// each word across the parties.
func dealWideTriple(rng *rand.Rand, out []WideTriples, t int) {
	a := rng.Uint64()
	b := rng.Uint64()
	c := a & b
	shareWordInto(rng, a, out, t, func(wt *WideTriples) []uint64 { return wt.A })
	shareWordInto(rng, b, out, t, func(wt *WideTriples) []uint64 { return wt.B })
	shareWordInto(rng, c, out, t, func(wt *WideTriples) []uint64 { return wt.C })
}

func shareWordInto(rng *rand.Rand, v uint64, out []WideTriples, t int, sel func(*WideTriples) []uint64) {
	var acc uint64
	for p := 0; p < len(out)-1; p++ {
		s := rng.Uint64()
		sel(&out[p])[t] = s
		acc ^= s
	}
	sel(&out[len(out)-1])[t] = v ^ acc
}

// tripleShard is the number of AND-gate ordinals dealt per derived RNG
// stream in GenTriplesWideSharded. The value is a block-size / scheduling
// trade-off only; changing it changes the dealt triples (they are a
// function of (seed, shard)), so it is fixed as part of the deterministic
// output contract.
const tripleShard = 4096

// tripleStreamWide labels the DeriveSeed stream of the sharded dealer.
const tripleStreamWide uint64 = 0x77696465 // "wide"

// GenTriplesWideSharded deals the same word-triples as GenTriplesWide but
// shards the ordinal range into fixed 4096-triple blocks, each dealt from
// an independent child seed across up to `workers` goroutines. The output
// is a function of (seed, shard) only, hence bit-identical at any worker
// count.
func GenTriplesWideSharded(seed int64, parties, count, workers int) ([]WideTriples, error) {
	out, err := newWideTriples(parties, count)
	if err != nil {
		return nil, err
	}
	err = parallel.Blocks(workers, count, tripleShard, func(shard, lo, hi int) error {
		rng := rand.New(rand.NewSource(mathx.DeriveSeed(seed, tripleStreamWide, uint64(shard))))
		for t := lo; t < hi; t++ {
			dealWideTriple(rng, out, t)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// WideResult carries a wide run's outputs and execution accounting.
type WideResult struct {
	// Outputs holds one word per circuit output wire, bit k = instance k's
	// value; nil when the run kept the outputs shared.
	Outputs []uint64
	// OutputShares[p] holds party p's XOR-share words of the output wires
	// when the run kept them shared (RunWideShared); nil otherwise. Opening
	// a wire means XOR-ing the parties' words.
	OutputShares [][]uint64
	// Rounds is the number of sequential communication rounds used.
	Rounds int
	// Stats is the transport traffic consumed by the run.
	Stats transport.Stats
}

// RunWide evaluates 64 independent instances of circ securely over net
// with dealer-generated word-triples. inputs[p] holds one word per input
// wire owned by party p (in the order p's wires appear in circ.Inputs());
// bit k of each word is instance k's private bit.
func RunWide(net transport.Network, circ *circuit.Circuit, inputs [][]uint64, seed int64) (*WideResult, error) {
	andCount := circ.Stats().AndGates
	dealerRng := rand.New(rand.NewSource(seed))
	triples, err := GenTriplesWide(dealerRng, net.Size(), andCount)
	if err != nil {
		return nil, err
	}
	return runWideCommon(net, circ, inputs, triples, seed, false)
}

// RunWideWithTriples is RunWide with caller-provided word-triples (from
// GenTriplesWideSharded, GenTriplesWideOT, or another preprocessing).
func RunWideWithTriples(net transport.Network, circ *circuit.Circuit, inputs [][]uint64, triples []WideTriples, seed int64) (*WideResult, error) {
	return runWideCommon(net, circ, inputs, triples, seed, false)
}

// RunWideShared evaluates like RunWideWithTriples but skips the output
// reconstruction round: the result carries each party's output-wire share
// words instead of opened values. The secure pipeline uses this when
// opening would leak (per-identity threshold bits must stay hidden and
// only a downstream aggregate is ever opened).
func RunWideShared(net transport.Network, circ *circuit.Circuit, inputs [][]uint64, triples []WideTriples, seed int64) (*WideResult, error) {
	return runWideCommon(net, circ, inputs, triples, seed, true)
}

func runWideCommon(net transport.Network, circ *circuit.Circuit, inputs [][]uint64, triples []WideTriples, seed int64, keepShared bool) (*WideResult, error) {
	n := net.Size()
	if len(inputs) != n {
		return nil, fmt.Errorf("%w: %d input sets for %d parties", ErrInputShape, len(inputs), n)
	}
	owned := make([][]int, n)
	for idx, in := range circ.Inputs() {
		if in.Party < 0 || in.Party >= n {
			return nil, fmt.Errorf("%w: input wire owned by party %d in %d-party net", ErrInputShape, in.Party, n)
		}
		owned[in.Party] = append(owned[in.Party], idx)
	}
	for p := 0; p < n; p++ {
		if len(inputs[p]) != len(owned[p]) {
			return nil, fmt.Errorf("%w: party %d supplies %d words, owns %d wires",
				ErrInputShape, p, len(inputs[p]), len(owned[p]))
		}
	}
	andCount := circ.Stats().AndGates
	if len(triples) != n {
		return nil, fmt.Errorf("%w: %d triple sets for %d parties", ErrTripleShape, len(triples), n)
	}
	for p, wt := range triples {
		if len(wt.A) < andCount || len(wt.B) < andCount || len(wt.C) < andCount {
			return nil, fmt.Errorf("%w: party %d holds %d word-triples, circuit needs %d",
				ErrTripleShape, p, len(wt.A), andCount)
		}
	}

	tm := newTimers(transport.RegistryOf(net))
	tm.runs.Inc()
	rounds := 1 + len(circ.AndRounds())
	if !keepShared {
		rounds++
	}
	runSpan := transport.SpanOf(net)
	runSpan.SetAttrs(
		trace.Int("parties", n),
		trace.Int("instances", WideLanes),
		trace.Int("and_gates", andCount),
		trace.Int("and_layers", len(circ.AndRounds())),
		trace.Int("rounds", rounds))
	before := net.Stats()
	results := make([][]uint64, n)
	errs := make([]error, n)
	var failOnce sync.Once
	var wg sync.WaitGroup
	for p := 0; p < n; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			var sp *trace.Span
			if p == 0 {
				sp = runSpan
			}
			rng := rand.New(rand.NewSource(seed ^ int64(p+1)*104729))
			out, err := runPartyWide(net.Node(p), circ, owned, inputs[p], triples[p], rng, tm, sp, keepShared)
			if err != nil {
				errs[p] = fmt.Errorf("party %d: %w", p, err)
				failOnce.Do(func() { net.Close() })
				return
			}
			results[p] = out
		}(p)
	}
	wg.Wait()
	if err := transport.RootCause(errs); err != nil {
		return nil, err
	}
	res := &WideResult{Rounds: rounds}
	if keepShared {
		res.OutputShares = results
	} else {
		// All parties must reconstruct identical output words.
		for p := 1; p < n; p++ {
			for i := range results[0] {
				if results[p][i] != results[0][i] {
					return nil, fmt.Errorf("%w: parties 0 and %d disagree on output %d", ErrProtocol, p, i)
				}
			}
		}
		res.Outputs = results[0]
	}
	after := net.Stats()
	tm.rounds.Add(uint64(rounds))
	tm.andLayers.Add(uint64(countAndLayers(circ)))
	tm.triples.Add(uint64(andCount))
	res.Stats = transport.Stats{
		Messages: after.Messages - before.Messages,
		Bytes:    after.Bytes - before.Bytes,
	}
	return res, nil
}

// runPartyWide executes one party's role across all 64 lanes and returns
// either the opened output words or (keepShared) this party's share words.
func runPartyWide(node transport.Node, circ *circuit.Circuit, owned [][]int, myInputs []uint64, triples WideTriples, rng *rand.Rand, tm *timers, sp *trace.Span, keepShared bool) ([]uint64, error) {
	n := node.Size()
	id := node.ID()
	coll := transport.NewCollector(node)
	shares := make([]uint64, circ.NumWires())
	circInputs := circ.Inputs()
	gates := circ.Gates()

	phaseStart := time.Now()
	phaseSpan := sp.Child("gmw.input_share")
	// --- Round 1: input sharing -------------------------------------------
	// For each owned wire word, sample one share word per party; keep ours,
	// send the rest. The payload to party q is q's share words of our wires
	// in owned-order — already word-shaped, no packing step.
	if len(myInputs) > 0 {
		for q := 0; q < n; q++ {
			if q == id {
				continue
			}
			buf := transport.GetWords(len(myInputs))
			for i := range buf {
				buf[i] = rng.Uint64()
			}
			// Accumulate what we sent so our own share closes the XOR.
			for i, wireIdx := range owned[id] {
				shares[circInputs[wireIdx].Wire] ^= buf[i]
			}
			msg := transport.Message{Kind: transport.KindGMWShare, Data: buf}
			if err := node.Send(q, msg); err != nil {
				return nil, fmt.Errorf("send input shares: %w", err)
			}
			transport.PutWords(buf)
		}
		for i, wireIdx := range owned[id] {
			shares[circInputs[wireIdx].Wire] ^= myInputs[i]
		}
	}
	for p := 0; p < n; p++ {
		if p == id || len(owned[p]) == 0 {
			continue
		}
		msg, err := coll.RecvKind(transport.KindGMWShare, 0)
		if err != nil {
			return nil, fmt.Errorf("recv input shares: %w", err)
		}
		if len(msg.Data) != len(owned[msg.From]) {
			return nil, fmt.Errorf("%w: input-share message from %d has %d words, want %d",
				ErrProtocol, msg.From, len(msg.Data), len(owned[msg.From]))
		}
		for i, wireIdx := range owned[msg.From] {
			shares[circInputs[wireIdx].Wire] = msg.Data[i]
		}
		transport.PutWords(msg.Data)
	}

	tm.inputs.ObserveSince(phaseStart)
	phaseSpan.End()
	phaseStart = time.Now()
	phaseSpan = sp.Child("gmw.and_rounds")

	// --- Rounds 2..: layered evaluation ------------------------------------
	evalLocal := func(gi int) {
		g := gates[gi]
		switch g.Op {
		case circuit.OpXOR:
			shares[g.Out] = shares[g.A] ^ shares[g.B]
		case circuit.OpNOT:
			if id == 0 {
				shares[g.Out] = ^shares[g.A] // flips every lane
			} else {
				shares[g.Out] = shares[g.A]
			}
		}
	}
	localRounds := circ.LocalByRound()
	andRounds := circ.AndRounds()
	maxBatch := 0
	for _, batch := range andRounds {
		if len(batch) > maxBatch {
			maxBatch = len(batch)
		}
	}
	var deBuf, openedBuf []uint64
	if maxBatch > 0 {
		deBuf = transport.GetWords(2 * maxBatch)
		openedBuf = transport.GetWords(2 * maxBatch)
		defer transport.PutWords(deBuf)
		defer transport.PutWords(openedBuf)
	}
	for r := 0; r < len(andRounds); r++ {
		for _, gi := range localRounds[r] {
			evalLocal(gi)
		}
		batch := andRounds[r]
		if len(batch) == 0 {
			continue
		}
		// d = x ⊕ a, e = y ⊕ b per lane: the broadcast is the word pair
		// itself — one message opens the layer for all 64 instances.
		de := deBuf[:2*len(batch)]
		for bi, gi := range batch {
			g := gates[gi]
			t := circ.AndOrdinal(gi)
			de[2*bi] = shares[g.A] ^ triples.A[t]
			de[2*bi+1] = shares[g.B] ^ triples.B[t]
		}
		for q := 0; q < n; q++ {
			if q == id {
				continue
			}
			msg := transport.Message{Kind: transport.KindGMWAnd, Seq: uint32(r + 1), Data: de}
			if err := node.Send(q, msg); err != nil {
				return nil, fmt.Errorf("send AND round %d: %w", r, err)
			}
		}
		opened := openedBuf[:len(de)]
		copy(opened, de)
		got, err := coll.GatherKind(transport.KindGMWAnd, uint32(r+1), n-1)
		if err != nil {
			return nil, fmt.Errorf("gather AND round %d: %w", r, err)
		}
		for _, msg := range got {
			if len(msg.Data) != len(de) {
				return nil, fmt.Errorf("%w: AND message from %d has %d words, want %d",
					ErrProtocol, msg.From, len(msg.Data), len(de))
			}
			for i := range opened {
				opened[i] ^= msg.Data[i]
			}
			transport.PutWords(msg.Data)
		}
		for bi, gi := range batch {
			g := gates[gi]
			t := circ.AndOrdinal(gi)
			d, e := opened[2*bi], opened[2*bi+1]
			z := d&triples.B[t] ^ e&triples.A[t] ^ triples.C[t]
			if id == 0 {
				z ^= d & e
			}
			shares[g.Out] = z
		}
	}
	for _, gi := range localRounds[len(andRounds)] {
		evalLocal(gi)
	}
	tm.andRounds.ObserveSince(phaseStart)
	phaseSpan.SetInt("layers", len(andRounds))
	phaseSpan.End()

	outWires := circ.Outputs()
	outShares := make([]uint64, len(outWires))
	for i, w := range outWires {
		outShares[i] = shares[w]
	}
	if keepShared {
		return outShares, nil
	}
	phaseStart = time.Now()
	defer tm.outputs.ObserveSince(phaseStart)
	phaseSpan = sp.Child("gmw.output")
	defer phaseSpan.End()

	// --- Final round: output reconstruction --------------------------------
	for q := 0; q < n; q++ {
		if q == id {
			continue
		}
		msg := transport.Message{Kind: transport.KindGMWOutput, Data: outShares}
		if err := node.Send(q, msg); err != nil {
			return nil, fmt.Errorf("send outputs: %w", err)
		}
	}
	got, err := coll.GatherKind(transport.KindGMWOutput, 0, n-1)
	if err != nil {
		return nil, fmt.Errorf("gather outputs: %w", err)
	}
	final := outShares
	for _, msg := range got {
		if len(msg.Data) != len(final) {
			return nil, fmt.Errorf("%w: output message from %d has %d words, want %d",
				ErrProtocol, msg.From, len(msg.Data), len(final))
		}
		for i := range final {
			final[i] ^= msg.Data[i]
		}
		transport.PutWords(msg.Data)
	}
	return final, nil
}
