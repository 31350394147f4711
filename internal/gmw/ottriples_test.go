package gmw

import (
	"errors"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/circuit"
	"repro/internal/transport"
)

func genOTTriples(t *testing.T, parties, count, lanes int, seed int64) []WideTriples {
	t.Helper()
	net, err := transport.NewInMem(parties)
	if err != nil {
		t.Fatal(err)
	}
	defer net.Close()
	triples, err := GenTriplesWideOT(net, count, lanes, seed)
	if err != nil {
		t.Fatal(err)
	}
	return triples
}

// fullLaneOT holds one 2-party word-triple with all 64 lanes live. Its
// 128 public-key OTs take seconds, so the lanes = 64 cases share it.
var fullLaneOT struct {
	once    sync.Once
	triples []WideTriples
	err     error
}

func fullLaneOTTriples(t *testing.T) []WideTriples {
	t.Helper()
	fullLaneOT.once.Do(func() {
		net, err := transport.NewInMem(2)
		if err != nil {
			fullLaneOT.err = err
			return
		}
		defer net.Close()
		fullLaneOT.triples, fullLaneOT.err = GenTriplesWideOT(net, 1, WideLanes, 64)
	})
	if fullLaneOT.err != nil {
		t.Fatal(fullLaneOT.err)
	}
	return fullLaneOT.triples
}

// checkPadding fails if any party's triple sets a lane at or past lanes.
func checkPadding(t *testing.T, triples []WideTriples, lanes int) {
	t.Helper()
	dead := ^uint64(0) << uint(lanes)
	for p, wt := range triples {
		for tt := range wt.A {
			if (wt.A[tt]|wt.B[tt]|wt.C[tt])&dead != 0 {
				t.Fatalf("lanes=%d: party %d word-triple %d sets a padding lane", lanes, p, tt)
			}
		}
	}
}

// The OT-generated triples must satisfy the Beaver invariant exactly, with
// one live lane (the popcount opener's shape) and with all 64.
func TestOTTriplesInvariant(t *testing.T) {
	for _, parties := range []int{2, 3} {
		const count = 8
		triples := genOTTriples(t, parties, count, 1, int64(parties)*100)
		checkInvariant(t, triples, count)
		checkPadding(t, triples, 1)
	}
	checkInvariant(t, fullLaneOTTriples(t), 1)
}

// A ragged run's OT triples: live lanes valid, padding lanes all-zero.
func TestGenTriplesWideOT(t *testing.T) {
	if testing.Short() {
		t.Skip("public-key OT preprocessing is slow")
	}
	triples := genOTTriples(t, 2, 2, 3, 5)
	checkInvariant(t, triples, 2)
	checkPadding(t, triples, 3)
}

func TestOTTriplesValidation(t *testing.T) {
	net, err := transport.NewInMem(1)
	if err != nil {
		t.Fatal(err)
	}
	defer net.Close()
	if _, err := GenTriplesWideOT(net, 4, 1, 1); err == nil {
		t.Error("single party accepted")
	}
	net2, err := transport.NewInMem(2)
	if err != nil {
		t.Fatal(err)
	}
	defer net2.Close()
	for _, lanes := range []int{1, WideLanes} {
		if _, err := GenTriplesWideOT(net2, -1, lanes, 1); err == nil {
			t.Errorf("lanes=%d: negative count accepted", lanes)
		}
		triples, err := GenTriplesWideOT(net2, 0, lanes, 1)
		if err != nil || len(triples) != 2 {
			t.Fatalf("lanes=%d: zero-count preprocessing: %v, %d", lanes, err, len(triples))
		}
	}
	for _, lanes := range []int{0, WideLanes + 1} {
		if _, err := GenTriplesWideOT(net2, 1, lanes, 1); err == nil {
			t.Errorf("lanes=%d accepted", lanes)
		}
	}
}

// When a party other than party 0 fails first, the preprocessing must
// report that failure, not the ErrClosed its teardown causes at party 0.
func TestOTPreprocessingReportsRootCause(t *testing.T) {
	inner, err := transport.NewInMem(2)
	if err != nil {
		t.Fatal(err)
	}
	// Party 0 opens the OT session; party 1's first reply fails and closes
	// the network while party 0 waits for it.
	net := transport.NewFaulty(inner, transport.FaultPlan{FailSendFrom: map[int]bool{1: true}})
	defer net.Close()
	_, err = GenTriplesWideOT(net, 1, 1, 3)
	if err == nil {
		t.Fatal("OT preprocessing succeeded despite a failing party")
	}
	if errors.Is(err, transport.ErrClosed) {
		t.Fatalf("reported the teardown victim, not the root cause: %v", err)
	}
}

// Full GMW evaluation with OT preprocessing end to end: secure result must
// equal plaintext evaluation, with one live lane and with all 64.
func TestRunWithOTTriples(t *testing.T) {
	t.Run("one lane", func(t *testing.T) {
		const width = 3
		b := circuit.NewBuilder()
		x := b.InputVec(0, width)
		y := b.InputVec(1, width)
		sum, err := b.Add(x, y)
		if err != nil {
			t.Fatal(err)
		}
		ge, err := b.GreaterEq(sum, circuit.ConstVec(5, width))
		if err != nil {
			t.Fatal(err)
		}
		if err := b.Output(ge); err != nil {
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
		// Preprocess with OT on one network, evaluate on a fresh one (as a
		// real offline/online split would).
		triples := genOTTriples(t, 2, circ.Stats().AndGates, 1, 42)
		for _, tc := range []struct{ vx, vy uint64 }{{3, 4}, {0, 0}, {7, 7}, {2, 2}} {
			net, err := transport.NewInMem(2)
			if err != nil {
				t.Fatal(err)
			}
			inputs := [][]uint64{make([]uint64, width), make([]uint64, width)}
			setLane(inputs[0], 0, tc.vx)
			setLane(inputs[1], 0, tc.vy)
			res, err := RunWideWithTriples(net, circ, inputs, triples, 7)
			net.Close()
			if err != nil {
				t.Fatal(err)
			}
			wantSum := (tc.vx + tc.vy) % 8
			if got := laneValue(res.Outputs[1:], 0); got != wantSum {
				t.Fatalf("%d+%d = %d, want %d", tc.vx, tc.vy, got, wantSum)
			}
			if (res.Outputs[0]&1 == 1) != (wantSum >= 5) {
				t.Fatalf("comparison wrong for %d+%d", tc.vx, tc.vy)
			}
		}
	})
	t.Run("all lanes", func(t *testing.T) {
		b := circuit.NewBuilder()
		if err := b.Output(b.AND(b.Input(0), b.Input(1))); err != nil {
			t.Fatal(err)
		}
		circ, err := b.Build()
		if err != nil {
			t.Fatal(err)
		}
		net, err := transport.NewInMem(2)
		if err != nil {
			t.Fatal(err)
		}
		defer net.Close()
		rng := rand.New(rand.NewSource(43))
		x, y := rng.Uint64(), rng.Uint64()
		res, err := RunWideWithTriples(net, circ, [][]uint64{{x}, {y}}, fullLaneOTTriples(t), 8)
		if err != nil {
			t.Fatal(err)
		}
		if res.Outputs[0] != x&y {
			t.Fatalf("AND lanes = %#x, want %#x", res.Outputs[0], x&y)
		}
	})
}

// RunWideWithTriples rejects a triple set that does not cover the parties
// or the circuit's AND gates.
func TestRunWithTriplesValidation(t *testing.T) {
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
	net, err := transport.NewInMem(2)
	if err != nil {
		t.Fatal(err)
	}
	defer net.Close()
	inputs := [][]uint64{{1}, {1}}
	if _, err := RunWideWithTriples(net, circ, inputs, []WideTriples{{}}, 1); !errors.Is(err, ErrTripleShape) {
		t.Errorf("short triple set list: err = %v, want ErrTripleShape", err)
	}
	if _, err := RunWideWithTriples(net, circ, inputs, []WideTriples{{}, {}}, 1); !errors.Is(err, ErrTripleShape) {
		t.Errorf("insufficient triples: err = %v, want ErrTripleShape", err)
	}
}

// OT-generated preprocessing must be as uniform as dealer output: a single
// party's shares don't reveal the secrets.
func TestOTTriplesShareUniformity(t *testing.T) {
	// With 64 samples this is a loose sanity check, not a sharp bound.
	const count = 64
	one := genOTTriples(t, 2, count, 1, 9)
	ones := 0
	for _, w := range one[0].C {
		ones += int(w & 1)
	}
	if ones == 0 || ones == count {
		t.Fatalf("lanes=1: party 0's C shares are constant (%d ones of %d)", ones, count)
	}
	if c := fullLaneOTTriples(t)[0].C[0]; c == 0 || c == ^uint64(0) {
		t.Fatalf("lanes=64: party 0's C share lanes are constant (%#x)", c)
	}
}
