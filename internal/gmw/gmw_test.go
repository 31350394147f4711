package gmw

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"testing/quick"

	"repro/internal/circuit"
	"repro/internal/transport"
)

func runInMem(t testing.TB, parties int, circ *circuit.Circuit, inputs [][]uint64, seed int64) *WideResult {
	t.Helper()
	net, err := transport.NewInMem(parties)
	if err != nil {
		t.Fatal(err)
	}
	defer net.Close()
	res, err := RunWide(net, circ, inputs, seed)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// adderCircuit builds a two-party circuit whose outputs are the sum of
// party 0's and party 1's width-bit inputs.
func adderCircuit(t testing.TB, width int) *circuit.Circuit {
	t.Helper()
	b := circuit.NewBuilder()
	sum, err := b.Add(b.InputVec(0, width), b.InputVec(1, width))
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range sum {
		if err := b.Output(w); err != nil {
			t.Fatal(err)
		}
	}
	circ, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return circ
}

// setLane writes the low len(words) bits of v into lane k of words.
func setLane(words []uint64, k int, v uint64) {
	for i := range words {
		words[i] |= (v >> uint(i) & 1) << uint(k)
	}
}

// laneValue reads lane k of words as a little-endian integer.
func laneValue(words []uint64, k int) uint64 {
	var v uint64
	for i, w := range words {
		v |= (w >> uint(k) & 1) << uint(i)
	}
	return v
}

// randomInputs draws one word per input wire of circ, grouped by owner,
// with random bits in the low lanes lanes and zeros (public padding) in
// the rest.
func randomInputs(rng *rand.Rand, circ *circuit.Circuit, parties, lanes int) [][]uint64 {
	mask := ^uint64(0) >> uint(WideLanes-lanes)
	inputs := make([][]uint64, parties)
	for _, in := range circ.Inputs() {
		inputs[in.Party] = append(inputs[in.Party], rng.Uint64()&mask)
	}
	return inputs
}

// checkLanes evaluates lanes [0, lanes) of the word inputs in plaintext
// and compares each with the same lane of the output words.
func checkLanes(circ *circuit.Circuit, inputs [][]uint64, outputs []uint64, lanes int) error {
	for k := 0; k < lanes; k++ {
		cursor := make([]int, len(inputs))
		var flat []bool
		for _, in := range circ.Inputs() {
			flat = append(flat, inputs[in.Party][cursor[in.Party]]>>uint(k)&1 == 1)
			cursor[in.Party]++
		}
		want, err := circ.Evaluate(flat)
		if err != nil {
			return err
		}
		for i, w := range want {
			if got := outputs[i]>>uint(k)&1 == 1; got != w {
				return fmt.Errorf("lane %d/%d output %d: secure=%v plain=%v", k, lanes, i, got, w)
			}
		}
	}
	return nil
}

// Two-party AND truth table, the smallest secure computation: one row per
// lane of a single run.
func TestTwoPartyAND(t *testing.T) {
	b := circuit.NewBuilder()
	x := b.Input(0)
	y := b.Input(1)
	if err := b.Output(b.AND(x, y)); err != nil {
		t.Fatal(err)
	}
	circ, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	// Lanes 0..3 hold (x, y) = (0,0), (1,0), (0,1), (1,1).
	res := runInMem(t, 2, circ, [][]uint64{{0b1010}, {0b1100}}, 3)
	if got := res.Outputs[0]; got != 0b1000 {
		t.Fatalf("AND truth table lanes = %04b, want 1000", got)
	}
}

// Secure evaluation must equal plaintext evaluation on a deep mixed
// circuit, here in a ragged run: 20 live lanes, public-zero padding.
func TestSecureMatchesPlaintext(t *testing.T) {
	circ := wideTestCircuit(t)
	const width, trials = 6, 20
	rng := rand.New(rand.NewSource(4))
	inputs := [][]uint64{make([]uint64, width), make([]uint64, width), make([]uint64, width)}
	for k := 0; k < trials; k++ {
		for p := range inputs {
			setLane(inputs[p], k, rng.Uint64()%64)
		}
	}
	res := runInMem(t, 3, circ, inputs, 5)
	if err := checkLanes(circ, inputs, res.Outputs, trials); err != nil {
		t.Fatal(err)
	}
	if res.Rounds != 2+len(circ.AndRounds()) {
		t.Fatalf("Rounds = %d, want %d", res.Rounds, 2+len(circ.AndRounds()))
	}
}

// randomCircuit builds a random DAG of XOR/AND/NOT/OR gates over the
// inputs of 2–4 parties, with up to five outputs; nil when the draw
// leaves no outputs or does not build.
func randomCircuit(rng *rand.Rand) (*circuit.Circuit, int) {
	parties := 2 + rng.Intn(3)
	b := circuit.NewBuilder()
	pool := make([]circuit.Wire, 0, 40)
	for p := 0; p < parties; p++ {
		pool = append(pool, b.InputVec(p, 2+rng.Intn(3))...)
	}
	for g := 0; g < 25; g++ {
		a := pool[rng.Intn(len(pool))]
		c := pool[rng.Intn(len(pool))]
		var w circuit.Wire
		switch rng.Intn(4) {
		case 0:
			w = b.XOR(a, c)
		case 1:
			w = b.AND(a, c)
		case 2:
			w = b.NOT(a)
		default:
			w = b.OR(a, c)
		}
		if !w.IsConst() {
			pool = append(pool, w)
		}
	}
	outs := 0
	for i := len(pool) - 1; i >= 0 && outs < 5; i-- {
		if err := b.Output(pool[i]); err == nil {
			outs++
		}
	}
	if outs == 0 {
		return nil, 0
	}
	circ, err := b.Build()
	if err != nil {
		return nil, 0
	}
	return circ, parties
}

// randomCircuitMatchesPlaintext runs a random circuit on random lane
// words — only the low lanes lanes live, as in a ragged slab — and checks
// every live lane against plaintext evaluation.
func randomCircuitMatchesPlaintext(seed int64, lanes int) error {
	rng := rand.New(rand.NewSource(seed))
	circ, parties := randomCircuit(rng)
	if circ == nil {
		return nil
	}
	inputs := randomInputs(rng, circ, parties, lanes)
	net, err := transport.NewInMem(parties)
	if err != nil {
		return err
	}
	defer net.Close()
	res, err := RunWide(net, circ, inputs, seed)
	if err != nil {
		return err
	}
	return checkLanes(circ, inputs, res.Outputs, lanes)
}

// Property: random circuits over random inputs — secure == plaintext.
func TestSecureMatchesPlaintextQuick(t *testing.T) {
	prop := func(seed int64, active uint8) bool {
		err := randomCircuitMatchesPlaintext(seed, int(active%WideLanes)+1)
		if err != nil {
			t.Logf("seed %d: %v", seed, err)
		}
		return err == nil
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// End-to-end: the CountBelow circuit evaluated securely by 3 coordinators,
// one independent share draw per lane.
func TestSecureCountBelow(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	p := circuit.CountBelowParams{
		Parties:    3,
		Identities: 8,
		ShareBits:  7,
		Thresholds: []uint64{3, 10, 50, 1, 7, 20, 64, 2},
	}
	circ, err := circuit.CountBelow(p)
	if err != nil {
		t.Fatal(err)
	}
	mod := uint64(1) << uint(p.ShareBits)
	inputs := make([][]uint64, p.Parties)
	for k := range inputs {
		inputs[k] = make([]uint64, p.Identities*p.ShareBits)
	}
	want := make([]uint64, WideLanes)
	for lane := 0; lane < WideLanes; lane++ {
		for j := 0; j < p.Identities; j++ {
			freq := uint64(rng.Intn(100))
			if freq >= p.Thresholds[j] {
				want[lane]++
			}
			var sum uint64
			for k := 0; k < p.Parties; k++ {
				share := rng.Uint64() % mod
				if k == p.Parties-1 {
					share = (freq + mod - sum) % mod
				}
				sum = (sum + share) % mod
				setLane(inputs[k][j*p.ShareBits:(j+1)*p.ShareBits], lane, share)
			}
		}
	}
	res := runInMem(t, 3, circ, inputs, 6)
	for lane, w := range want {
		if got := laneValue(res.Outputs, lane); got != w {
			t.Fatalf("lane %d: secure CountBelow = %d, want %d", lane, got, w)
		}
	}
}

// RunWide rejects inputs that do not match the circuit's input wires.
func TestRunValidation(t *testing.T) {
	b := circuit.NewBuilder()
	x := b.Input(0)
	y := b.Input(1)
	if err := b.Output(b.AND(x, y)); err != nil {
		t.Fatal(err)
	}
	circ, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	// Circuit owned by party 2 in a 2-party network.
	b2 := circuit.NewBuilder()
	x2 := b2.Input(2)
	if err := b2.Output(b2.NOT(x2)); err != nil {
		t.Fatal(err)
	}
	circ2, err := b2.Build()
	if err != nil {
		t.Fatal(err)
	}
	net, err := transport.NewInMem(2)
	if err != nil {
		t.Fatal(err)
	}
	defer net.Close()
	for _, tc := range []struct {
		name   string
		circ   *circuit.Circuit
		inputs [][]uint64
	}{
		{"wrong party count", circ, [][]uint64{{1}}},
		{"wrong per-party word count", circ, [][]uint64{{1, 2}, {3}}},
		{"out-of-range input owner", circ2, [][]uint64{nil, nil}},
	} {
		if _, err := RunWide(net, tc.circ, tc.inputs, 1); !errors.Is(err, ErrInputShape) {
			t.Errorf("%s: err = %v, want ErrInputShape", tc.name, err)
		}
	}
}

// A wide network: 15 parties evaluating a shared comparison. Exercises the
// all-to-all AND openings at a scale beyond the coordinator counts used in
// the pipeline; every lane is an independent vote.
func TestFifteenParties(t *testing.T) {
	const parties = 15
	b := circuit.NewBuilder()
	bits := make([]circuit.Wire, parties)
	for p := 0; p < parties; p++ {
		bits[p] = b.Input(p)
	}
	cnt, err := b.PopCount(bits)
	if err != nil {
		t.Fatal(err)
	}
	ge, err := b.GreaterEq(cnt, circuit.ConstVec(8, len(cnt)))
	if err != nil {
		t.Fatal(err)
	}
	if err := b.Output(ge); err != nil {
		t.Fatal(err)
	}
	circ, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(21))
	inputs := randomInputs(rng, circ, parties, WideLanes)
	res := runInMem(t, parties, circ, inputs, 22)
	for k := 0; k < WideLanes; k++ {
		ones := 0
		for p := range inputs {
			ones += int(inputs[p][0] >> uint(k) & 1)
		}
		if got := res.Outputs[0]>>uint(k)&1 == 1; got != (ones >= 8) {
			t.Fatalf("lane %d: majority-ish vote wrong (ones=%d)", k, ones)
		}
	}
}

// A party with no inputs must still participate correctly.
func TestPartyWithoutInputs(t *testing.T) {
	b := circuit.NewBuilder()
	x := b.Input(0)
	y := b.Input(0)
	if err := b.Output(b.AND(x, y)); err != nil {
		t.Fatal(err)
	}
	circ, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	const vx, vy = 0xF0F0_1234_5678_9ABC, 0x0FF0_FFFF_0000_1111
	res := runInMem(t, 3, circ, [][]uint64{{vx, vy}, nil, nil}, 7)
	if res.Outputs[0] != vx&vy {
		t.Fatalf("AND = %#x, want %#x", res.Outputs[0], uint64(vx&vy))
	}
}

// A one-live-lane run (the shape of the per-batch popcount opener) must
// run identically over TCP, with the padding lanes staying zero.
func TestSecureOverTCP(t *testing.T) {
	const width = 4
	circ := adderCircuit(t, width)
	net, err := transport.NewTCP(2)
	if err != nil {
		t.Fatal(err)
	}
	defer net.Close()
	inputs := [][]uint64{make([]uint64, width), make([]uint64, width)}
	setLane(inputs[0], 0, 9)
	setLane(inputs[1], 0, 5)
	res, err := RunWide(net, circ, inputs, 8)
	if err != nil {
		t.Fatal(err)
	}
	if got := laneValue(res.Outputs, 0); got != 14 {
		t.Fatalf("9+5 = %d over TCP", got)
	}
	for i, w := range res.Outputs {
		if w>>1 != 0 {
			t.Fatalf("output %d sets padding lanes: %#x", i, w)
		}
	}
}

// Several independent GMW evaluations must be able to share one physical
// network concurrently via SessionMux without interleaving messages: this
// is the property that lets parallel ε-PPI construction run identity
// batches at the same time. Each batch computes a different sum threshold
// so a cross-session message would corrupt outputs, not just stall.
func TestConcurrentGMWBatchesOverSessions(t *testing.T) {
	const parties = 3
	const batches = 4
	const width = 5
	inner, err := transport.NewInMem(parties)
	if err != nil {
		t.Fatal(err)
	}
	mux := transport.NewSessionMux(inner)
	defer mux.Close()

	build := func(threshold uint64) *circuit.Circuit {
		b := circuit.NewBuilder()
		x := b.InputVec(0, width)
		y := b.InputVec(1, width)
		z := b.InputVec(2, width)
		sum, err := b.Add(x, y)
		if err != nil {
			t.Fatal(err)
		}
		sum, err = b.Add(sum, z)
		if err != nil {
			t.Fatal(err)
		}
		ge, err := b.GreaterEq(sum, circuit.ConstVec(threshold, len(sum)))
		if err != nil {
			t.Fatal(err)
		}
		if err := b.Output(ge); err != nil {
			t.Fatal(err)
		}
		circ, err := b.Build()
		if err != nil {
			t.Fatal(err)
		}
		return circ
	}

	// Lane k of batch i holds (x, y, z) = (k%8, 6, 7), so lane k's sum is
	// 13 + k%8 and each threshold splits the lanes differently.
	inputs := [][]uint64{make([]uint64, width), make([]uint64, width), make([]uint64, width)}
	for k := 0; k < WideLanes; k++ {
		setLane(inputs[0], k, uint64(k%8))
		setLane(inputs[1], k, 6)
		setLane(inputs[2], k, 7)
	}
	var wg sync.WaitGroup
	errs := make([]error, batches)
	outs := make([]uint64, batches)
	for i := 0; i < batches; i++ {
		circ := build(uint64(10 + i*3)) // thresholds 10,13,16,19
		wg.Add(1)
		go func(i int, circ *circuit.Circuit) {
			defer wg.Done()
			sess, err := mux.Session(uint32(i + 1))
			if err != nil {
				errs[i] = err
				return
			}
			defer sess.Close()
			res, err := RunWide(sess, circ, inputs, int64(100+i))
			if err != nil {
				errs[i] = err
				return
			}
			outs[i] = res.Outputs[0]
			if res.Stats.Messages == 0 {
				errs[i] = fmt.Errorf("batch %d reported zero per-session traffic", i)
			}
		}(i, circ)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("batch %d: %v", i, err)
		}
	}
	for i, got := range outs {
		for k := 0; k < WideLanes; k++ {
			sum := 13 + k%8
			if want := sum >= 10+i*3; (got>>uint(k)&1 == 1) != want {
				t.Fatalf("batch %d lane %d: %d>=%d computed as %v", i, k, sum, 10+i*3, !want)
			}
		}
	}
}
