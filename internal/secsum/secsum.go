// Package secsum implements SecSumShare, the parallel secure-sum protocol
// of Section IV-B1 of the ε-PPI paper.
//
// Given m providers each holding a private boolean vector over n identities,
// the protocol outputs c share vectors s(0,·)…s(c−1,·), held by c
// coordinator providers, such that for every identity j:
//
//	Σ_k s(k, j) mod q  =  Σ_i M(i, j)   (the identity's frequency)
//
// No party learns any other party's input ((2c−3)-secrecy), and fewer than
// all c coordinator vectors reveal nothing about any frequency (c-secrecy,
// Theorem 4.1). The protocol runs in two constant-size communication rounds:
//
//  1. share distribution — provider i splits each input bit into c
//     additive shares and sends the k-th share to successor (i+k) mod m;
//  2. super-share aggregation — each provider sums the shares it received
//     into a super-share vector and sends it to coordinator (i mod c).
package secsum

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"repro/internal/field"
	"repro/internal/metrics"
	"repro/internal/secretshare"
	"repro/internal/trace"
	"repro/internal/transport"
)

var (
	// ErrTooFewProviders reports m < c: the ring cannot host c distinct
	// share destinations per provider.
	ErrTooFewProviders = errors.New("secsum: need at least c providers")
	// ErrInputShape reports malformed provider inputs.
	ErrInputShape = errors.New("secsum: malformed inputs")
)

// Result carries the protocol output and execution accounting.
type Result struct {
	// CoordinatorShares[k] is the share vector s(k, ·) held by coordinator
	// provider k, one element per identity.
	CoordinatorShares [][]uint64
	// Rounds is the number of sequential communication rounds (always 2).
	Rounds int
	// Stats is the transport traffic consumed by this run.
	Stats transport.Stats
}

// Run executes SecSumShare over net. inputs[i] is provider i's private
// vector (one value per identity; for ε-PPI these are 0/1 membership bits,
// but any field elements sum correctly). The scheme fixes c and the field.
//
// Run drives all m providers as goroutines over the supplied network; it is
// used with the in-memory transport for simulation and with the TCP
// transport for realistic distributed runs.
func Run(net transport.Network, scheme secretshare.Scheme, inputs [][]uint64, seed int64) (*Result, error) {
	m := net.Size()
	c := scheme.Shares()
	if m < c {
		return nil, fmt.Errorf("%w: m=%d c=%d", ErrTooFewProviders, m, c)
	}
	if len(inputs) != m {
		return nil, fmt.Errorf("%w: %d input vectors for %d providers", ErrInputShape, len(inputs), m)
	}
	numIDs := len(inputs[0])
	for i, in := range inputs {
		if len(in) != numIDs {
			return nil, fmt.Errorf("%w: provider %d has %d identities, provider 0 has %d",
				ErrInputShape, i, len(in), numIDs)
		}
	}

	// Phase timers report through whatever registry the caller attached to
	// the network (transport.Instrument); with no registry every instrument
	// is a nil no-op. Likewise, phase spans hang under whatever span the
	// caller attached (transport.AttachSpan); party 0 records them as the
	// representative provider (it plays every role, coordinator included).
	tm := newTimers(transport.RegistryOf(net))
	tm.runs.Inc()
	runSpan := transport.SpanOf(net)
	runSpan.SetAttrs(trace.Int("parties", m), trace.Int("identities", numIDs), trace.Int("rounds", 2))
	before := net.Stats()
	coordShares := make([][]uint64, c)
	errs := make([]error, m)
	// On the first party failure the network is closed so that peers
	// blocked in Recv fail fast instead of hanging on a peer that will
	// never send (crashed node, dropped message).
	var failOnce sync.Once
	var wg sync.WaitGroup
	for i := 0; i < m; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			var sp *trace.Span
			if i == 0 {
				sp = runSpan
			}
			rng := rand.New(rand.NewSource(seed + int64(i)*7919))
			shares, err := runProvider(net.Node(i), scheme, inputs[i], rng, tm, sp)
			if err != nil {
				errs[i] = fmt.Errorf("provider %d: %w", i, err)
				failOnce.Do(func() { net.Close() })
				return
			}
			if shares != nil {
				coordShares[i] = shares
			}
		}(i)
	}
	wg.Wait()
	if err := transport.RootCause(errs); err != nil {
		return nil, err
	}
	after := net.Stats()
	tm.rounds.Add(2)
	return &Result{
		CoordinatorShares: coordShares,
		Rounds:            2,
		Stats: transport.Stats{
			Messages: after.Messages - before.Messages,
			Bytes:    after.Bytes - before.Bytes,
		},
	}, nil
}

// timers groups the per-phase instruments of one Run. The zero value (all
// nil) no-ops, so uninstrumented networks cost nothing but the time reads.
type timers struct {
	runs       *metrics.Counter
	rounds     *metrics.Counter
	distribute *metrics.Histogram
	aggregate  *metrics.Histogram
	coordinate *metrics.Histogram
}

func newTimers(reg *metrics.Registry) *timers {
	const name = "eppi_secsum_phase_seconds"
	const help = "Per-provider wall time of each SecSumShare phase."
	return &timers{
		runs:       reg.Counter("eppi_secsum_runs_total", "SecSumShare protocol executions."),
		rounds:     reg.Counter("eppi_secsum_rounds_total", "Sequential communication rounds across all SecSumShare runs."),
		distribute: reg.Histogram(name, help, metrics.DefDurationBuckets, metrics.L("phase", "distribute")),
		aggregate:  reg.Histogram(name, help, metrics.DefDurationBuckets, metrics.L("phase", "aggregate")),
		coordinate: reg.Histogram(name, help, metrics.DefDurationBuckets, metrics.L("phase", "coordinate")),
	}
}

// runProvider executes one provider's role. Coordinators (id < c) return
// their aggregated share vector; other providers return nil. sp, when
// non-nil (party 0), parents per-phase child spans.
func runProvider(node transport.Node, scheme secretshare.Scheme, input []uint64, rng *rand.Rand, tm *timers, sp *trace.Span) ([]uint64, error) {
	m := node.Size()
	c := scheme.Shares()
	f := scheme.Field()
	numIDs := len(input)
	id := node.ID()

	phaseStart := time.Now()
	phaseSpan := sp.Child("secsum.distribute")
	// Step 1: generate shares. perDest[k][j] is the k-th share of input[j],
	// destined for successor (id+k) mod m; k=0 stays local.
	perDest := make([][]uint64, c)
	for k := range perDest {
		perDest[k] = make([]uint64, numIDs)
	}
	sh := make([]uint64, c)
	for j, v := range input {
		scheme.SplitInto(rng, v, sh)
		for k, x := range sh {
			perDest[k][j] = x
		}
	}

	// Step 2: distribute shares k=1..c-1 to the next c-1 neighbours.
	for k := 1; k < c; k++ {
		dest := (id + k) % m
		msg := transport.Message{Kind: transport.KindShare, Seq: uint32(k), Data: perDest[k]}
		if err := node.Send(dest, msg); err != nil {
			return nil, fmt.Errorf("send share %d: %w", k, err)
		}
	}

	tm.distribute.ObserveSince(phaseStart)
	phaseSpan.End()
	phaseStart = time.Now()
	phaseSpan = sp.Child("secsum.aggregate")

	// Step 3: receive c-1 share vectors from predecessors and fold them,
	// together with the locally kept k=0 share, into the super-share.
	coll := transport.NewCollector(node)
	super := perDest[0]
	for k := 1; k < c; k++ {
		msg, err := coll.RecvKind(transport.KindShare, uint32(k))
		if err != nil {
			return nil, fmt.Errorf("recv share %d: %w", k, err)
		}
		if wantFrom := ((id-k)%m + m) % m; msg.From != wantFrom {
			return nil, fmt.Errorf("share %d from party %d, want %d", k, msg.From, wantFrom)
		}
		if len(msg.Data) != numIDs {
			return nil, fmt.Errorf("share %d has %d elements, want %d", k, len(msg.Data), numIDs)
		}
		addInto(f, super, msg.Data)
		// The received vector is folded in and exclusively ours; recycle it.
		transport.PutWords(msg.Data)
	}

	// Step 4: ship the super-share to coordinator (id mod c).
	coordID := id % c
	msg := transport.Message{Kind: transport.KindSuperShare, Data: super}
	if err := node.Send(coordID, msg); err != nil {
		return nil, fmt.Errorf("send super-share: %w", err)
	}
	tm.aggregate.ObserveSince(phaseStart)
	phaseSpan.End()

	if id >= c {
		return nil, nil
	}
	phaseStart = time.Now()
	defer tm.coordinate.ObserveSince(phaseStart)
	phaseSpan = sp.Child("secsum.coordinate")
	defer phaseSpan.End()

	// Coordinator role: gather super-shares from every provider p with
	// p mod c == id (including our own, sent above) and sum them.
	expected := 0
	for p := id; p < m; p += c {
		expected++
	}
	gathered, err := coll.GatherKind(transport.KindSuperShare, 0, expected)
	if err != nil {
		return nil, fmt.Errorf("gather super-shares: %w", err)
	}
	acc := make([]uint64, numIDs)
	for from, gm := range gathered {
		if from%c != id {
			return nil, fmt.Errorf("super-share from party %d not assigned to coordinator %d", from, id)
		}
		if len(gm.Data) != numIDs {
			return nil, fmt.Errorf("super-share from %d has %d elements, want %d", from, len(gm.Data), numIDs)
		}
		addInto(f, acc, gm.Data)
		transport.PutWords(gm.Data)
	}
	return acc, nil
}

// addInto folds src into acc element-wise mod q, in place. The caller has
// checked the lengths match.
func addInto(f field.Field, acc, src []uint64) {
	acc = acc[:len(src)]
	for j, v := range src {
		acc[j] = f.Add(acc[j], f.Reduce(v))
	}
}

// Frequencies reconstructs per-identity frequencies from the c coordinator
// share vectors. It exists for tests and for the *trusted-aggregate*
// construction path; the secure path never reconstructs frequencies outside
// the CountBelow circuit.
func Frequencies(scheme secretshare.Scheme, coordShares [][]uint64) ([]uint64, error) {
	c := scheme.Shares()
	if len(coordShares) != c {
		return nil, fmt.Errorf("secsum: %d coordinator vectors, want %d", len(coordShares), c)
	}
	if c == 0 || len(coordShares[0]) == 0 {
		return nil, nil
	}
	f := scheme.Field()
	n := len(coordShares[0])
	out := make([]uint64, n)
	for k, vec := range coordShares {
		if len(vec) != n {
			return nil, fmt.Errorf("secsum: coordinator %d vector length %d, want %d", k, len(vec), n)
		}
		for j, v := range vec {
			out[j] = f.Add(out[j], f.Reduce(v))
		}
	}
	return out, nil
}
