package transport

import (
	"errors"
	"fmt"
	"sync"
	"testing"
)

func testNetwork(t *testing.T, mk func(n int) (Network, error)) {
	t.Helper()

	t.Run("basic send recv", func(t *testing.T) {
		net, err := mk(3)
		if err != nil {
			t.Fatal(err)
		}
		defer net.Close()
		if net.Size() != 3 {
			t.Fatalf("Size = %d", net.Size())
		}
		want := Message{Kind: KindShare, Seq: 7, Data: []uint64{1, 2, 3}}
		if err := net.Node(0).Send(2, want); err != nil {
			t.Fatal(err)
		}
		got, err := net.Node(2).Recv()
		if err != nil {
			t.Fatal(err)
		}
		if got.From != 0 || got.To != 2 || got.Kind != KindShare || got.Seq != 7 {
			t.Fatalf("header mismatch: %+v", got)
		}
		if len(got.Data) != 3 || got.Data[0] != 1 || got.Data[2] != 3 {
			t.Fatalf("payload mismatch: %v", got.Data)
		}
	})

	t.Run("self send", func(t *testing.T) {
		net, err := mk(2)
		if err != nil {
			t.Fatal(err)
		}
		defer net.Close()
		if err := net.Node(1).Send(1, Message{Kind: KindControl}); err != nil {
			t.Fatal(err)
		}
		got, err := net.Node(1).Recv()
		if err != nil || got.From != 1 {
			t.Fatalf("self message: %+v err=%v", got, err)
		}
	})

	t.Run("out of range destination", func(t *testing.T) {
		net, err := mk(2)
		if err != nil {
			t.Fatal(err)
		}
		defer net.Close()
		if err := net.Node(0).Send(5, Message{}); err == nil {
			t.Fatal("destination 5 accepted in 2-party net")
		}
		if err := net.Node(0).Send(-1, Message{}); err == nil {
			t.Fatal("destination -1 accepted")
		}
	})

	t.Run("all-to-all", func(t *testing.T) {
		const n = 5
		net, err := mk(n)
		if err != nil {
			t.Fatal(err)
		}
		defer net.Close()
		var wg sync.WaitGroup
		errCh := make(chan error, 1)
		for i := 0; i < n; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				node := net.Node(i)
				for j := 0; j < n; j++ {
					if j == i {
						continue
					}
					if err := node.Send(j, Message{Kind: KindShare, Data: []uint64{uint64(i)}}); err != nil {
						select {
						case errCh <- err:
						default:
						}
						return
					}
				}
				seen := make(map[int]bool)
				for k := 0; k < n-1; k++ {
					m, err := node.Recv()
					if err != nil {
						select {
						case errCh <- err:
						default:
						}
						return
					}
					if seen[m.From] || m.Data[0] != uint64(m.From) {
						panic("duplicate or corrupted message")
					}
					seen[m.From] = true
				}
			}(i)
		}
		wg.Wait()
		select {
		case err := <-errCh:
			t.Fatal(err)
		default:
		}
		st := net.Stats()
		if st.Messages != uint64(n*(n-1)) {
			t.Fatalf("Messages = %d, want %d", st.Messages, n*(n-1))
		}
		if st.Bytes == 0 {
			t.Fatal("Bytes = 0")
		}
	})

	t.Run("recv unblocks on close", func(t *testing.T) {
		net, err := mk(2)
		if err != nil {
			t.Fatal(err)
		}
		done := make(chan error, 1)
		go func() {
			_, err := net.Node(0).Recv()
			done <- err
		}()
		net.Close()
		if err := <-done; err == nil {
			t.Fatal("Recv returned nil after close")
		}
	})
}

func TestInMemNetwork(t *testing.T) {
	testNetwork(t, func(n int) (Network, error) { return NewInMem(n) })
}

func TestTCPNetwork(t *testing.T) {
	testNetwork(t, func(n int) (Network, error) { return NewTCP(n) })
}

func TestNewValidation(t *testing.T) {
	if _, err := NewInMem(0); err == nil {
		t.Error("NewInMem(0) accepted")
	}
	if _, err := NewTCP(-1); err == nil {
		t.Error("NewTCP(-1) accepted")
	}
}

func TestInMemPayloadIsolation(t *testing.T) {
	net, err := NewInMem(2)
	if err != nil {
		t.Fatal(err)
	}
	defer net.Close()
	buf := []uint64{1, 2, 3}
	if err := net.Node(0).Send(1, Message{Kind: KindShare, Data: buf}); err != nil {
		t.Fatal(err)
	}
	buf[0] = 99 // sender reuses its buffer
	got, err := net.Node(1).Recv()
	if err != nil {
		t.Fatal(err)
	}
	if got.Data[0] != 1 {
		t.Fatalf("receiver saw sender's mutation: %v", got.Data)
	}
}

func TestKindString(t *testing.T) {
	kinds := map[Kind]string{
		KindShare:      "share",
		KindSuperShare: "supershare",
		KindGMWShare:   "gmw-share",
		KindGMWAnd:     "gmw-and",
		KindGMWOutput:  "gmw-output",
		KindControl:    "control",
		Kind(99):       "kind(99)",
	}
	for k, want := range kinds {
		if got := k.String(); got != want {
			t.Errorf("Kind(%d).String() = %q, want %q", k, got, want)
		}
	}
}

func TestCollectorSelectiveReceive(t *testing.T) {
	net, err := NewInMem(2)
	if err != nil {
		t.Fatal(err)
	}
	defer net.Close()
	// Interleave kinds and seqs from party 0 to party 1.
	send := func(kind Kind, seq uint32, v uint64) {
		t.Helper()
		if err := net.Node(0).Send(1, Message{Kind: kind, Seq: seq, Data: []uint64{v}}); err != nil {
			t.Fatal(err)
		}
	}
	send(KindGMWAnd, 2, 22)
	send(KindShare, 1, 11)
	send(KindGMWAnd, 1, 21)

	c := NewCollector(net.Node(1))
	m, err := c.RecvKind(KindShare, 1)
	if err != nil || m.Data[0] != 11 {
		t.Fatalf("RecvKind(share,1) = %+v err=%v", m, err)
	}
	if c.Pending() != 1 { // KindGMWAnd seq=2 parked; seq=1 not read yet
		t.Fatalf("Pending = %d, want 1", c.Pending())
	}
	m, err = c.RecvKind(KindGMWAnd, 1)
	if err != nil || m.Data[0] != 21 {
		t.Fatalf("RecvKind(and,1) = %+v err=%v", m, err)
	}
	m, err = c.RecvKind(KindGMWAnd, 2)
	if err != nil || m.Data[0] != 22 {
		t.Fatalf("RecvKind(and,2) = %+v err=%v", m, err)
	}
	if c.Pending() != 0 {
		t.Fatalf("Pending = %d, want 0", c.Pending())
	}
}

func TestCollectorGather(t *testing.T) {
	net, err := NewInMem(4)
	if err != nil {
		t.Fatal(err)
	}
	defer net.Close()
	for i := 1; i < 4; i++ {
		if err := net.Node(i).Send(0, Message{Kind: KindSuperShare, Seq: 3, Data: []uint64{uint64(i * 10)}}); err != nil {
			t.Fatal(err)
		}
	}
	c := NewCollector(net.Node(0))
	got, err := c.GatherKind(KindSuperShare, 3, 3)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < 4; i++ {
		if got[i].Data[0] != uint64(i*10) {
			t.Fatalf("gather[%d] = %v", i, got[i].Data)
		}
	}
}

func TestCollectorGatherDuplicate(t *testing.T) {
	net, err := NewInMem(2)
	if err != nil {
		t.Fatal(err)
	}
	defer net.Close()
	for i := 0; i < 2; i++ {
		if err := net.Node(1).Send(0, Message{Kind: KindSuperShare, Seq: 0}); err != nil {
			t.Fatal(err)
		}
	}
	c := NewCollector(net.Node(0))
	if _, err := c.GatherKind(KindSuperShare, 0, 2); err == nil {
		t.Fatal("duplicate sender accepted")
	}
}

func BenchmarkInMemRoundTrip(b *testing.B) {
	net, err := NewInMem(2)
	if err != nil {
		b.Fatal(err)
	}
	defer net.Close()
	payload := make([]uint64, 64)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := net.Node(0).Send(1, Message{Kind: KindShare, Data: payload}); err != nil {
			b.Fatal(err)
		}
		if _, err := net.Node(1).Recv(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTCPRoundTrip(b *testing.B) {
	net, err := NewTCP(2)
	if err != nil {
		b.Fatal(err)
	}
	defer net.Close()
	payload := make([]uint64, 64)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := net.Node(0).Send(1, Message{Kind: KindShare, Data: payload}); err != nil {
			b.Fatal(err)
		}
		if _, err := net.Node(1).Recv(); err != nil {
			b.Fatal(err)
		}
	}
}

// RootCause reports the first error that is not an ErrClosed cascade,
// wherever it sits, and falls back to the first error.
func TestRootCause(t *testing.T) {
	closed := fmt.Errorf("party 0: recv: %w", ErrClosed)
	real := errors.New("party 2: injected failure")
	other := errors.New("party 3: bad message")
	for _, tc := range []struct {
		name string
		errs []error
		want error
	}{
		{"none", []error{nil, nil}, nil},
		{"empty", nil, nil},
		{"cause after victims", []error{closed, nil, real, other}, real},
		{"cause first", []error{real, closed}, real},
		{"only victims", []error{nil, closed, fmt.Errorf("again: %w", ErrClosed)}, closed},
	} {
		if got := RootCause(tc.errs); got != tc.want {
			t.Errorf("%s: RootCause = %v, want %v", tc.name, got, tc.want)
		}
	}
}
