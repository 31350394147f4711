package core

import (
	"context"
	"fmt"
	"time"

	"repro/internal/bitmat"
	"repro/internal/circuit"
	"repro/internal/field"
	"repro/internal/mathx"
	"repro/internal/parallel"
	"repro/internal/secretshare"
	"repro/internal/secsum"
	"repro/internal/trace"
	"repro/internal/transport"
)

// addCircuitStats accumulates per-batch circuit statistics (sizes add;
// depth takes the maximum: each batch's rounds are its own depth, and
// concurrent batches do not deepen any single circuit).
func addCircuitStats(acc, s circuit.Stats) circuit.Stats {
	acc.Wires += s.Wires
	acc.Gates += s.Gates
	acc.AndGates += s.AndGates
	acc.FreeGates += s.FreeGates
	acc.Inputs += s.Inputs
	acc.Outputs += s.Outputs
	if s.AndDepth > acc.AndDepth {
		acc.AndDepth = s.AndDepth
	}
	return acc
}

// constructSecure runs the real distributed pipeline of Section IV:
//
//	Stage A (m providers): SecSumShare → c coordinator share vectors over
//	        the additive group Z_{2^k}, k = bits(m+1).
//	Stage B (c coordinators, GMW): CountBelow → public common count.
//	        λ is then computed publicly from the count (Equation 7).
//	Stage C (c coordinators, GMW): Reveal → per identity, a hidden bit
//	        (common ∨ mixed) and the frequency, opened only when not
//	        hidden. β follows Equation 6.
//	Phase 2 (every provider, local): randomized publication.
//
// Stages B and C evaluate their circuits with the bit-sliced GMW evaluator
// (secure_wide.go): identities ride 64 to a slab, one protocol execution
// per slab. The identity batches of stages B and C are independent
// computations, so they run concurrently (up to Config.Workers), each slab
// over its own logical session of one shared coordinator network
// (transport.SessionMux) so concurrent executions never interleave
// messages. Per-batch and per-slab randomness — protocol seeds and mixing
// coins — derives from (Seed, stage stream, batch index or slab offset),
// keeping the whole run bit-identical at any worker count.
//
// ξ is taken over identities that *can* be common (public thresholds
// t_j <= m); the trusted path uses the paper's exact max-over-true-commons,
// which the secure path cannot evaluate without leaking the common set.
// The conservative ξ only ever increases λ, i.e. strengthens mixing.
func constructSecure(ctx context.Context, truth *bitmat.Matrix, eps []float64, thresholds []uint64, cfg Config) (*Result, error) {
	m, n := truth.Rows(), truth.Cols()
	c := cfg.C
	workers := cfg.workers()
	if m < c {
		return nil, fmt.Errorf("%w: %d providers cannot host %d coordinators", ErrBadConfig, m, c)
	}
	newNet := cfg.NewNetwork
	if newNet == nil {
		newNet = func(parties int) (transport.Network, error) { return transport.NewInMem(parties) }
	}
	// The slab comparator folds the public threshold into party 0's share
	// and reads the sign bit of freq − t, which needs one bit of sign
	// slack: shares live in Z_{2^W}, W = bits(m+1) + 1. Σ shares mod 2^W
	// is still the frequency, because freq ≤ m < 2^(W−1).
	groupBits := circuit.BitsNeeded(uint64(m+1)) + 1
	group, err := field.NewAdditive(1 << uint(groupBits))
	if err != nil {
		return nil, err
	}
	scheme, err := secretshare.New(group, c)
	if err != nil {
		return nil, err
	}
	stats := &SecureStats{}

	// --- Stage A: SecSumShare over all m providers -------------------------
	inputs := make([][]uint64, m)
	parallel.Blocks(workers, m, rowShard, func(_, lo, hi int) error {
		for i := lo; i < hi; i++ {
			inputs[i] = make([]uint64, n)
			truth.RowValues(i, inputs[i])
		}
		return nil
	})
	provNet, err := newNet(m)
	if err != nil {
		return nil, fmt.Errorf("provider network: %w", err)
	}
	transport.Instrument(provNet, cfg.Metrics)
	_, ssSpan := trace.StartChild(ctx, "secsum.share")
	transport.AttachSpan(provNet, ssSpan)
	sumRes, err := secsum.Run(provNet, scheme, inputs, cfg.Seed)
	ssSpan.End()
	closeErr := provNet.Close()
	if err != nil {
		return nil, fmt.Errorf("SecSumShare: %w", err)
	}
	if closeErr != nil {
		return nil, fmt.Errorf("provider network close: %w", closeErr)
	}
	stats.SecSum = sumRes.Stats
	stats.SecSumRounds = sumRes.Rounds

	// One physical coordinator network for the whole run, multiplexed into
	// per-batch sessions so concurrent batches cannot interleave messages.
	// Registry instrumentation sits on the physical network (each wire
	// message counted once); spans attach per session (exact per-batch
	// attribution).
	coordNet, err := newNet(c)
	if err != nil {
		return nil, fmt.Errorf("coordinator network: %w", err)
	}
	transport.Instrument(coordNet, cfg.Metrics)
	mux := transport.NewSessionMux(coordNet)
	defer mux.Close()

	ws := &wideState{
		ctx:        ctx,
		cfg:        cfg,
		mux:        mux,
		c:          c,
		w:          groupBits,
		m:          m,
		workers:    workers,
		shares:     sumRes.CoordinatorShares,
		thresholds: thresholds,
	}

	// --- Stage B: CountBelow among the c coordinators ----------------------
	// Identities are processed in batches (Config.BatchSize); the batches
	// are independent and run concurrently up to Workers. The per-batch
	// common counts are summed into the global count; batch boundaries are
	// public parameters, so the extra release is the count granularity
	// only.
	batch := cfg.BatchSize
	if batch <= 0 || batch > n {
		batch = n
	}
	nb := (n + batch - 1) / batch
	mpcStart := time.Now()
	cbOuts := make([]wideOut, nb)
	cbErrs := make([]error, nb)
	parallel.For(workers, nb, func(b int) error {
		lo := b * batch
		hi := lo + batch
		if hi > n {
			hi = n
		}
		out, err := ws.countBelowBatch(lo, hi)
		if err != nil {
			cbErrs[b] = fmt.Errorf("CountBelow [%d:%d]: %w", lo, hi, err)
			return cbErrs[b]
		}
		cbOuts[b] = out
		return nil
	})
	if err := transport.RootCause(cbErrs); err != nil {
		return nil, err
	}
	commonCount, waste := 0, 0
	for _, out := range cbOuts { // reduce in batch order: deterministic accounting
		stats.CountBelowCircuit = addCircuitStats(stats.CountBelowCircuit, out.circ)
		commonCount += out.count
		waste += out.waste
		stats.MPC.Messages += out.stats.Messages
		stats.MPC.Bytes += out.stats.Bytes
		stats.MPCRounds += out.rounds
	}

	// λ from the public count (Equation 7), with conservative public ξ.
	_, mixSpan := trace.StartChild(ctx, "core.mixing", trace.Int("common_count", commonCount))
	xi := cfg.XiOverride
	if xi <= 0 {
		for j := 0; j < n; j++ {
			if thresholds[j] <= uint64(m) && eps[j] > xi {
				xi = eps[j]
			}
		}
	}
	lambda, err := mathx.Lambda(xi, commonCount, n)
	if err != nil {
		mixSpan.End()
		return nil, err
	}
	coinBits := cfg.coinBits()
	coinMod := uint64(1) << uint(coinBits)
	mixThreshold := uint64(lambda * float64(coinMod))
	if mixThreshold >= coinMod {
		mixThreshold = coinMod - 1 // λ ≈ 1 clamped to the coin resolution
	}
	mixSpan.End()

	// --- Stage C: Reveal among the c coordinators (same batching) ----------
	// Mixing coins derive per batch from (Seed, seedStreamCoins, batch),
	// so the coin sequence of a batch does not depend on which batches ran
	// before it — the prerequisite for running them concurrently while
	// keeping the run reproducible.
	hidden := make([]bool, n)
	betas := make([]float64, n)
	rvOuts := make([]wideOut, nb)
	rvErrs := make([]error, nb)
	parallel.For(workers, nb, func(b int) error {
		lo := b * batch
		hi := lo + batch
		if hi > n {
			hi = n
		}
		out, err := ws.revealBatch(b, lo, hi, coinBits, coinMod, mixThreshold, eps, hidden, betas)
		if err != nil {
			rvErrs[b] = fmt.Errorf("Reveal [%d:%d]: %w", lo, hi, err)
			return rvErrs[b]
		}
		rvOuts[b] = out
		return nil
	})
	if err := transport.RootCause(rvErrs); err != nil {
		return nil, err
	}
	for _, out := range rvOuts {
		stats.RevealCircuit = addCircuitStats(stats.RevealCircuit, out.circ)
		waste += out.waste
		stats.MPC.Messages += out.stats.Messages
		stats.MPC.Bytes += out.stats.Bytes
		stats.MPCRounds += out.rounds
	}
	stats.MPCWall = time.Since(mpcStart)
	if g := cfg.Metrics.Gauge("eppi_gmw_slab_waste_slots",
		"Padded lanes across the wide slab executions of the most recent secure construction (CountBelow and Reveal passes counted separately; 0 when every slab is full)."); g != nil {
		g.Set(float64(waste))
	}
	if err := mux.Close(); err != nil {
		return nil, fmt.Errorf("coordinator network close: %w", err)
	}

	// Phase 2: every provider publishes locally using the public β vector.
	published := publishSharded(ctx, truth, betas, cfg.Seed, workers)
	return &Result{
		Published:   published,
		Betas:       betas,
		Thresholds:  thresholds,
		Hidden:      hidden,
		CommonCount: commonCount,
		Lambda:      lambda,
		Xi:          xi,
		Secure:      stats,
	}, nil
}
