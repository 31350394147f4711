package experiments

import (
	"fmt"
	"math/rand"
	"time"

	"repro/internal/circuit"
	"repro/internal/core"
	"repro/internal/gmw"
	"repro/internal/mathx"
	"repro/internal/netsim"
	"repro/internal/transport"
	"repro/internal/workload"
)

// Figure 6 evaluates the construction protocol's performance: the
// MPC-reduced ε-PPI pipeline (SecSumShare + c-party CountBelow/Reveal)
// against the pure-MPC baseline in which all m providers are parties to a
// single circuit that also computes the raw β* in fixed point (the
// unreordered computation flow of Equation 8).
//
// The experiments use c = 3 coordinators, matching the paper.

const (
	fig6C        = 3
	fig6FracBits = 8
	fig6CoinBits = 8
	fig6Eps      = 0.5
)

// netFactory returns the transport constructor for the experiment options.
// Networks are instrumented with opts.Metrics (no-op when nil) so Fig 6
// runs contribute transport traffic and MPC phase timers to the registry.
func netFactory(opts Options) func(int) (transport.Network, error) {
	mk := func(parties int) (transport.Network, error) { return transport.NewInMem(parties) }
	if opts.TCP {
		mk = func(parties int) (transport.Network, error) { return transport.NewTCP(parties) }
	}
	return func(parties int) (transport.Network, error) {
		net, err := mk(parties)
		if err != nil {
			return nil, err
		}
		transport.Instrument(net, opts.Metrics)
		return net, nil
	}
}

// securePipelineTime runs the full secure ε-PPI construction over the
// configured transport and returns the wall-clock duration plus stats.
func securePipelineTime(opts Options, m, identities int, seed int64) (time.Duration, *core.SecureStats, error) {
	rng := rand.New(rand.NewSource(seed))
	freqs := make([]int, identities)
	for j := range freqs {
		freqs[j] = 1 + rng.Intn(m)
	}
	d, err := workload.GenerateFixed(workload.FixedConfig{
		Providers:   m,
		Frequencies: freqs,
		Eps:         epsSlice(identities, fig6Eps),
		Seed:        seed,
	})
	if err != nil {
		return 0, nil, err
	}
	cfg := core.Config{
		Policy:     mathx.PolicyChernoff,
		Gamma:      0.9,
		Mode:       core.ModeSecure,
		C:          fig6C,
		CoinBits:   fig6CoinBits,
		Seed:       seed,
		Workers:    opts.Workers,
		Metrics:    opts.Metrics,
		NewNetwork: netFactory(opts),
	}
	start := time.Now()
	res, err := core.Construct(d.Matrix, d.Eps, cfg)
	if err != nil {
		return 0, nil, err
	}
	return time.Since(start), res.Secure, nil
}

// pureMPCTime runs the baseline: one GMW execution among all m providers
// evaluating the PureBeta circuit.
func pureMPCTime(opts Options, m, identities int, seed int64) (time.Duration, *circuit.Circuit, transport.Stats, int, error) {
	epsFixed := make([]uint64, identities)
	for j := range epsFixed {
		epsFixed[j] = circuit.EpsToFixed(fig6Eps, fig6FracBits)
	}
	circ, err := circuit.PureBeta(circuit.PureBetaParams{
		Providers:    m,
		Identities:   identities,
		EpsFixed:     epsFixed,
		FracBits:     fig6FracBits,
		CoinBits:     fig6CoinBits,
		MixThreshold: 0,
	})
	if err != nil {
		return 0, nil, transport.Stats{}, 0, err
	}
	rng := rand.New(rand.NewSource(seed))
	inputs := make([][]bool, m)
	for i := 0; i < m; i++ {
		bits := make([]bool, 0, identities*(1+fig6CoinBits))
		for j := 0; j < identities; j++ {
			bits = append(bits, rng.Intn(4) == 0)
			bits = append(bits, circuit.PackBits(rng.Uint64()%(1<<fig6CoinBits), fig6CoinBits)...)
		}
		inputs[i] = bits
	}
	net, err := netFactory(opts)(m)
	if err != nil {
		return 0, nil, transport.Stats{}, 0, err
	}
	defer net.Close()
	start := time.Now()
	res, err := gmw.Run(net, circ, inputs, seed)
	if err != nil {
		return 0, nil, transport.Stats{}, 0, fmt.Errorf("pure MPC: %w", err)
	}
	return time.Since(start), circ, res.Stats, res.Rounds, nil
}

// Fig6a: execution time vs number of parties, single identity.
func Fig6a(opts Options) (*Figure, error) {
	parties := []int{3, 5, 7, 9}
	if opts.Quick {
		parties = []int{3, 5}
	}
	fig := &Figure{
		ID:     "fig6a",
		Title:  "Construction time vs parties (1 identity, c=3)",
		XLabel: "parties",
		YLabel: "execution time (ms)",
	}
	ePPI := Series{Label: "e-PPI"}
	pure := Series{Label: "Pure-MPC"}
	for _, m := range parties {
		dur, _, err := securePipelineTime(opts, m, 1, opts.Seed+int64(m))
		if err != nil {
			return nil, fmt.Errorf("e-PPI at m=%d: %w", m, err)
		}
		ePPI.Points = append(ePPI.Points, Point{X: float64(m), Y: float64(dur.Microseconds()) / 1000})
		pdur, _, _, _, err := pureMPCTime(opts, m, 1, opts.Seed+int64(m))
		if err != nil {
			return nil, fmt.Errorf("pure MPC at m=%d: %w", m, err)
		}
		pure.Points = append(pure.Points, Point{X: float64(m), Y: float64(pdur.Microseconds()) / 1000})
	}
	fig.Series = []Series{ePPI, pure}
	return fig, nil
}

// Fig6b: circuit size vs number of parties (compile only, so the sweep
// extends to 61 parties as in the paper).
func Fig6b(opts Options) (*Figure, error) {
	parties := []int{3, 11, 21, 31, 41, 51, 61}
	if opts.Quick {
		parties = []int{3, 11, 21}
	}
	fig := &Figure{
		ID:     "fig6b",
		Title:  "Circuit size vs parties (1 identity, c=3)",
		XLabel: "parties",
		YLabel: "circuit size (gates)",
	}
	ePPI := Series{Label: "e-PPI"}
	pure := Series{Label: "Pure-MPC"}
	for _, m := range parties {
		shareBits := circuit.BitsNeeded(uint64(m + 1))
		threshold := []uint64{uint64(m)/2 + 1}
		cb, err := circuit.CountBelow(circuit.CountBelowParams{
			Parties: fig6C, Identities: 1, ShareBits: shareBits, Thresholds: threshold,
		})
		if err != nil {
			return nil, err
		}
		rv, err := circuit.Reveal(circuit.RevealParams{
			Parties: fig6C, Identities: 1, ShareBits: shareBits, Thresholds: threshold,
			CoinBits: fig6CoinBits, MixThreshold: 0,
		})
		if err != nil {
			return nil, err
		}
		ePPI.Points = append(ePPI.Points, Point{X: float64(m), Y: float64(cb.Stats().Size() + rv.Stats().Size())})

		pb, err := circuit.PureBeta(circuit.PureBetaParams{
			Providers: m, Identities: 1,
			EpsFixed: []uint64{circuit.EpsToFixed(fig6Eps, fig6FracBits)},
			FracBits: fig6FracBits, CoinBits: fig6CoinBits, MixThreshold: 0,
		})
		if err != nil {
			return nil, err
		}
		pure.Points = append(pure.Points, Point{X: float64(m), Y: float64(pb.Stats().Size())})
	}
	fig.Series = []Series{ePPI, pure}
	return fig, nil
}

// Fig6c: execution time vs number of identities in a 3-party network.
func Fig6c(opts Options) (*Figure, error) {
	idCounts := []int{1, 10, 100, 1000}
	if opts.Quick {
		idCounts = []int{1, 10, 50}
	}
	fig := &Figure{
		ID:     "fig6c",
		Title:  "Construction time vs identities (3 parties, c=3)",
		XLabel: "identities",
		YLabel: "execution time (ms)",
	}
	ePPI := Series{Label: "e-PPI"}
	pure := Series{Label: "Pure-MPC"}
	for _, n := range idCounts {
		dur, _, err := securePipelineTime(opts, fig6C, n, opts.Seed+int64(n))
		if err != nil {
			return nil, fmt.Errorf("e-PPI at n=%d: %w", n, err)
		}
		ePPI.Points = append(ePPI.Points, Point{X: float64(n), Y: float64(dur.Microseconds()) / 1000})
		pdur, _, _, _, err := pureMPCTime(opts, fig6C, n, opts.Seed+int64(n))
		if err != nil {
			return nil, fmt.Errorf("pure MPC at n=%d: %w", n, err)
		}
		pure.Points = append(pure.Points, Point{X: float64(n), Y: float64(pdur.Microseconds()) / 1000})
	}
	fig.Series = []Series{ePPI, pure}
	return fig, nil
}

// Fig6aModelled complements Fig6a with the netsim Emulab-style cluster
// model, where per-gate MPC cost and LAN latency dominate: this is the
// regime the paper measured, and it shows the same separation at larger
// scale than an in-process run can.
func Fig6aModelled(opts Options) (*Figure, error) {
	parties := []int{3, 5, 7, 9, 15, 31, 61}
	if opts.Quick {
		parties = []int{3, 9, 31}
	}
	model := netsim.Emulab()
	fig := &Figure{
		ID:     "fig6a-model",
		Title:  "Modelled cluster construction time vs parties (1 identity)",
		XLabel: "parties",
		YLabel: "modelled time (s)",
	}
	ePPI := Series{Label: "e-PPI"}
	pure := Series{Label: "Pure-MPC"}
	for _, m := range parties {
		shareBits := circuit.BitsNeeded(uint64(m + 1))
		threshold := []uint64{uint64(m)/2 + 1}
		cb, err := circuit.CountBelow(circuit.CountBelowParams{
			Parties: fig6C, Identities: 1, ShareBits: shareBits, Thresholds: threshold,
		})
		if err != nil {
			return nil, err
		}
		rv, err := circuit.Reveal(circuit.RevealParams{
			Parties: fig6C, Identities: 1, ShareBits: shareBits, Thresholds: threshold,
			CoinBits: fig6CoinBits, MixThreshold: 0,
		})
		if err != nil {
			return nil, err
		}
		// The model follows the paper's testbed: FairplayMP is a
		// constant-round (garbled-circuit) runtime, so rounds do not grow
		// with circuit depth; per-gate work grows with the number of MPC
		// parties (each gate is garbled/evaluated cooperatively by all).
		// e-PPI: 2 SecSumShare rounds over m providers, then the two
		// constant-round c-party MPCs.
		gates := (cb.Stats().AndGates + rv.Stats().AndGates) * (fig6C - 1)
		rounds := 2 + 2*8
		bytes := fig6C*8*2 + gates*16 // share vectors + garbled tables
		dur, err := model.Estimate(netsim.Workload{Rounds: rounds, MaxBytesPerParty: bytes, Gates: gates})
		if err != nil {
			return nil, err
		}
		ePPI.Points = append(ePPI.Points, Point{X: float64(m), Y: dur.Seconds()})

		pb, err := circuit.PureBeta(circuit.PureBetaParams{
			Providers: m, Identities: 1,
			EpsFixed: []uint64{circuit.EpsToFixed(fig6Eps, fig6FracBits)},
			FracBits: fig6FracBits, CoinBits: fig6CoinBits, MixThreshold: 0,
		})
		if err != nil {
			return nil, err
		}
		pst := pb.Stats()
		// Pure MPC: the same constant-round runtime, but every one of the m
		// providers participates in garbling every gate of a much larger
		// circuit.
		pgates := pst.AndGates * (m - 1)
		prounds := 8
		pbytes := pst.AndGates * 16 * (m - 1)
		pdur, err := model.Estimate(netsim.Workload{Rounds: prounds, MaxBytesPerParty: pbytes, Gates: pgates})
		if err != nil {
			return nil, err
		}
		pure.Points = append(pure.Points, Point{X: float64(m), Y: pdur.Seconds()})
	}
	fig.Series = []Series{ePPI, pure}
	return fig, nil
}
