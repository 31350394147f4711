package gmw

import (
	"errors"
	"math/rand"
	"testing"
	"time"

	"repro/internal/circuit"
	"repro/internal/metrics"
	"repro/internal/transport"
)

// wideTestCircuit builds a deep mixed circuit over three parties' 6-bit
// inputs: adders, a comparison, an equality, word outputs.
func wideTestCircuit(t testing.TB) *circuit.Circuit {
	t.Helper()
	const width = 6
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
	ge, err := b.GreaterEq(sum, circuit.ConstVec(17, width))
	if err != nil {
		t.Fatal(err)
	}
	eq, err := b.Equal(x, z)
	if err != nil {
		t.Fatal(err)
	}
	if err := b.Output(ge); err != nil {
		t.Fatal(err)
	}
	if err := b.Output(eq); err != nil {
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

// One wide run must equal 64 plaintext evaluations, lane for lane.
func TestWideMatchesPlaintextLanes(t *testing.T) {
	circ := wideTestCircuit(t)
	inputs := randomInputs(rand.New(rand.NewSource(12)), circ, 3, WideLanes)
	res := runInMem(t, 3, circ, inputs, 13)
	if res.Rounds != 2+len(circ.AndRounds()) {
		t.Fatalf("Rounds = %d, want %d", res.Rounds, 2+len(circ.AndRounds()))
	}
	if err := checkLanes(circ, inputs, res.Outputs, WideLanes); err != nil {
		t.Fatal(err)
	}
}

// Shares-kept mode: no output round, and the parties' share words XOR to
// the plaintext outputs.
func TestWideSharedReconstructs(t *testing.T) {
	circ := wideTestCircuit(t)
	inputs := randomInputs(rand.New(rand.NewSource(18)), circ, 3, WideLanes)
	triples, err := GenTriplesWideSharded(19, 3, circ.Stats().AndGates, 4)
	if err != nil {
		t.Fatal(err)
	}
	net, err := transport.NewInMem(3)
	if err != nil {
		t.Fatal(err)
	}
	defer net.Close()
	res, err := RunWideShared(net, circ, inputs, triples, 20)
	if err != nil {
		t.Fatal(err)
	}
	if res.Outputs != nil {
		t.Fatal("shared run opened outputs")
	}
	if res.Rounds != 1+len(circ.AndRounds()) {
		t.Fatalf("Rounds = %d, want %d (no output round)", res.Rounds, 1+len(circ.AndRounds()))
	}
	opened := make([]uint64, len(circ.Outputs()))
	for _, partyShares := range res.OutputShares {
		if len(partyShares) != len(opened) {
			t.Fatalf("party holds %d output words, want %d", len(partyShares), len(opened))
		}
		for i, w := range partyShares {
			opened[i] ^= w
		}
	}
	if err := checkLanes(circ, inputs, opened, WideLanes); err != nil {
		t.Fatal(err)
	}
}

// eppi_gmw_triples_used_total counts word-triples — one per AND gate per
// run — whether one lane or all 64 carry data.
func TestTriplesCounterCountsWordTriples(t *testing.T) {
	circ := wideTestCircuit(t)
	net, err := transport.NewInMem(3)
	if err != nil {
		t.Fatal(err)
	}
	defer net.Close()
	reg := metrics.NewRegistry()
	transport.Instrument(net, reg)
	rng := rand.New(rand.NewSource(26))
	for _, lanes := range []int{1, WideLanes} {
		if _, err := RunWide(net, circ, randomInputs(rng, circ, 3, lanes), int64(lanes)); err != nil {
			t.Fatal(err)
		}
	}
	got := reg.Counter("eppi_gmw_triples_used_total", "").Value()
	if want := uint64(2 * circ.Stats().AndGates); got != want {
		t.Fatalf("triples_used_total = %d after two runs, want %d (AND gates × runs)", got, want)
	}
}

// Every entry point applies the same shape checks: the shares-kept run
// rejects bad inputs and bad triples before any traffic.
func TestRunWideValidation(t *testing.T) {
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
	triples, err := GenTriplesWide(rand.New(rand.NewSource(1)), 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := RunWideShared(net, circ, [][]uint64{{1}}, triples, 1); !errors.Is(err, ErrInputShape) {
		t.Errorf("wrong party count: err = %v, want ErrInputShape", err)
	}
	if _, err := RunWideShared(net, circ, [][]uint64{{1}, {2}}, []WideTriples{{}, {}}, 1); !errors.Is(err, ErrTripleShape) {
		t.Errorf("short triples: err = %v, want ErrTripleShape", err)
	}
	if net.Stats().Messages != 0 {
		t.Errorf("rejected runs sent %d messages", net.Stats().Messages)
	}
}

// FuzzGMWWideEquivalence drives random circuits and random lane words —
// including ragged slabs where only the low `active` lanes carry data —
// through the wide evaluator and checks every active lane against
// plaintext evaluation.
func FuzzGMWWideEquivalence(f *testing.F) {
	f.Add(int64(1), uint8(64))
	f.Add(int64(7), uint8(1))
	f.Add(int64(42), uint8(37))
	f.Fuzz(func(t *testing.T, seed int64, active uint8) {
		if err := randomCircuitMatchesPlaintext(seed, int(active%WideLanes)+1); err != nil {
			t.Fatal(err)
		}
	})
}

// Fault injection on the wide path: crash, total loss, corruption. The
// run must fail loudly (or detect the corruption), never hang or return
// silently wrong openings.
func TestWideFaultInjection(t *testing.T) {
	circ := andCircuit(t)
	inputs := [][]uint64{{^uint64(0)}, {^uint64(0)}, {^uint64(0)}}

	t.Run("crashed party", func(t *testing.T) {
		inner, err := transport.NewInMem(3)
		if err != nil {
			t.Fatal(err)
		}
		net := transport.NewFaulty(inner, transport.FaultPlan{FailSendFrom: map[int]bool{1: true}})
		defer net.Close()
		done := make(chan error, 1)
		go func() {
			_, e := RunWide(net, circ, inputs, 1)
			done <- e
		}()
		select {
		case err := <-done:
			if err == nil {
				t.Fatal("wide MPC succeeded despite crashed party")
			}
		case <-time.After(30 * time.Second):
			t.Fatal("wide MPC hung with crashed party")
		}
	})

	t.Run("all messages dropped", func(t *testing.T) {
		inner, err := transport.NewInMem(3)
		if err != nil {
			t.Fatal(err)
		}
		net := transport.NewFaulty(inner, transport.FaultPlan{DropRate: 1, Seed: 2})
		done := make(chan error, 1)
		go func() {
			_, e := RunWide(net, circ, inputs, 3)
			done <- e
		}()
		time.Sleep(50 * time.Millisecond)
		net.Close()
		select {
		case err := <-done:
			if err == nil {
				t.Fatal("wide MPC succeeded with every message dropped")
			}
		case <-time.After(30 * time.Second):
			t.Fatal("wide MPC hung after network close")
		}
	})

	t.Run("corrupted traffic detected", func(t *testing.T) {
		detected := 0
		const runs = 10
		for i := 0; i < runs; i++ {
			inner, err := transport.NewInMem(3)
			if err != nil {
				t.Fatal(err)
			}
			net := transport.NewFaulty(inner, transport.FaultPlan{CorruptRate: 0.5, Seed: int64(i)})
			_, err = RunWide(net, circ, inputs, int64(i))
			net.Close()
			if err != nil {
				detected++
			}
		}
		if detected == 0 {
			t.Fatal("no corrupted wide run was detected across output reconstruction")
		}
	})
}

// The wide path must run identically over TCP.
func TestWideOverTCP(t *testing.T) {
	const width = 4
	circ := adderCircuit(t, width)
	net, err := transport.NewTCP(2)
	if err != nil {
		t.Fatal(err)
	}
	defer net.Close()
	rng := rand.New(rand.NewSource(23))
	inputs := [][]uint64{make([]uint64, width), make([]uint64, width)}
	for p := range inputs {
		for i := range inputs[p] {
			inputs[p][i] = rng.Uint64()
		}
	}
	res, err := RunWide(net, circ, inputs, 24)
	if err != nil {
		t.Fatal(err)
	}
	for k := 0; k < WideLanes; k++ {
		vx, vy := laneValue(inputs[0], k), laneValue(inputs[1], k)
		got := laneValue(res.Outputs[:width], k)
		if want := (vx + vy) % (1 << width); got != want {
			t.Fatalf("lane %d: %d+%d = %d over TCP, want %d", k, vx, vy, got, want)
		}
	}
}

// BenchmarkWideAdd32 evaluates 64 instances of a 32-bit adder per
// execution (÷64 for the per-instance cost).
func BenchmarkWideAdd32(b *testing.B) {
	const width = 32
	circ := adderCircuit(b, width)
	rng := rand.New(rand.NewSource(25))
	inputs := [][]uint64{make([]uint64, width), make([]uint64, width)}
	for p := range inputs {
		for i := range inputs[p] {
			inputs[p][i] = rng.Uint64()
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		net, err := transport.NewInMem(2)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := RunWide(net, circ, inputs, int64(i)); err != nil {
			b.Fatal(err)
		}
		net.Close()
	}
}
