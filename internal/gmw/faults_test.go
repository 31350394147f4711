package gmw

import (
	"math/rand"
	"testing"
	"time"

	"repro/internal/circuit"
	"repro/internal/transport"
)

func andCircuit(t *testing.T) *circuit.Circuit {
	t.Helper()
	b := circuit.NewBuilder()
	x := b.Input(0)
	y := b.Input(1)
	z := b.Input(2)
	if err := b.Output(b.AND(b.AND(x, y), z)); err != nil {
		t.Fatal(err)
	}
	c, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// runShared evaluates circ shares-kept (the CountBelow mode) with dealer
// triples and returns the error, failing the test if the run hangs.
func runShared(t *testing.T, net transport.Network, circ *circuit.Circuit, seed int64, abort func()) error {
	t.Helper()
	triples, err := GenTriplesWide(rand.New(rand.NewSource(seed)), net.Size(), circ.Stats().AndGates)
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		_, e := RunWideShared(net, circ, [][]uint64{{1}, {1}, {1}}, triples, seed)
		done <- e
	}()
	if abort != nil {
		time.Sleep(50 * time.Millisecond)
		abort()
	}
	select {
	case err := <-done:
		return err
	case <-time.After(30 * time.Second):
		t.Fatal("shares-kept MPC hung")
		return nil
	}
}

// A crashed party fails a shares-kept run fast: with no output round,
// the failure must surface from the input and AND rounds alone.
func TestCrashedPartyFailsFast(t *testing.T) {
	inner, err := transport.NewInMem(3)
	if err != nil {
		t.Fatal(err)
	}
	net := transport.NewFaulty(inner, transport.FaultPlan{FailSendFrom: map[int]bool{1: true}})
	defer net.Close()
	if runShared(t, net, andCircuit(t), 1, nil) == nil {
		t.Fatal("MPC succeeded despite crashed party")
	}
}

// A shares-kept run whose every message is dropped aborts when the
// network closes.
func TestDroppedMessagesAbortOnClose(t *testing.T) {
	inner, err := transport.NewInMem(3)
	if err != nil {
		t.Fatal(err)
	}
	net := transport.NewFaulty(inner, transport.FaultPlan{DropRate: 1, Seed: 2})
	if runShared(t, net, andCircuit(t), 3, func() { net.Close() }) == nil {
		t.Fatal("MPC succeeded with every message dropped")
	}
}

// Disagreeing outputs (caused by corrupted share traffic) must be detected
// by the cross-party output comparison rather than returned silently, also
// in a run with one live lane (the popcount opener's shape).
func TestCorruptedTrafficDetected(t *testing.T) {
	circ := andCircuit(t)
	detected := 0
	const runs = 10
	for i := 0; i < runs; i++ {
		inner, err := transport.NewInMem(3)
		if err != nil {
			t.Fatal(err)
		}
		net := transport.NewFaulty(inner, transport.FaultPlan{CorruptRate: 0.5, Seed: int64(i)})
		_, err = RunWide(net, circ, [][]uint64{{1}, {1}, {1}}, int64(i))
		net.Close()
		if err != nil {
			detected++
		}
	}
	if detected == 0 {
		t.Fatal("no corrupted run was detected across output reconstruction")
	}
}
