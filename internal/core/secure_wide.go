package core

import (
	"context"
	"fmt"
	"math/rand"

	"repro/internal/bitmat"
	"repro/internal/circuit"
	"repro/internal/gmw"
	"repro/internal/mathx"
	"repro/internal/trace"
	"repro/internal/transport"
)

// Stages B and C schedule identities onto 64-lane slabs and evaluate
// each slab with the bit-sliced GMW evaluator: one protocol execution (one
// AND-opening round per circuit layer) answers 64 identities at once.
// Three invariants keep the published matrix exactly what the paper's
// per-identity CountBelow/Reveal circuits define:
//
//   - Thresholds enter as data, not circuit structure. Shares live in
//     Z_{2^W} with W = bits(m+1)+1; party 0 folds (2^W − t_j) into its
//     share (CountBelowSlice) or feeds it as a trailing private input
//     (RevealSlice, where the raw frequency must survive for the masked
//     output). The comparator then reads the sign bit of freq − t. One
//     compiled circuit therefore serves every slab — and the compile cache
//     makes that a single compilation per construction.
//
//   - Nothing extra is opened. CountBelowSlice runs shares-kept (the
//     per-identity ≥-bits stay secret); one SliceCount execution per
//     batch (a single live lane) XORs the kept lane shares and opens only
//     the batch's popcount (batch counts are public parameters).
//
//   - The outcome is pinned. The count is an exact sum, so λ and the
//     mixing threshold follow from it alone; the mixing coins come from
//     the per-batch stream in party-major, identity-minor draw order;
//     ragged final slabs are padded with zero shares and a folded t = 1,
//     making padded lanes never-common and their outputs discardable.
//     TestWideSecureConstructEndToEnd holds the result to digests recorded from
//     the per-batch scalar circuits.
//
// Per-slab protocol seeds derive from (Seed, wide stream, slab identity
// offset) — slabs never straddle batch boundaries, so the offset is unique
// — and the slab loop below is sequential within a batch, so the run is
// deterministic at any worker count.
type wideState struct {
	ctx        context.Context
	cfg        Config
	mux        *transport.SessionMux
	c          int
	w          int // share width W = bits(m+1) + 1
	m          int
	workers    int
	shares     [][]uint64 // coordinator share vectors over Z_{2^W}
	thresholds []uint64
}

// wideOut is the per-batch accounting record of stages B and C (count is
// stage B's opened popcount; stage C leaves it zero).
type wideOut struct {
	circ   circuit.Stats
	count  int
	stats  transport.Stats
	rounds int
	waste  int // padded lanes in ragged final slabs
}

// Session-id scheme, keyed by identity offsets (slab offset for the wide
// runs, batch offset for the per-batch popcount opener). The three
// families occupy disjoint residue classes mod 3, so no two sessions ever
// share an id: CountBelow 1+3L ≡ 1, SliceCount 2+3B ≡ 2, Reveal 3+3L ≡ 0.
func wideSessCountBelow(slabLo int) uint32  { return uint32(1 + 3*slabLo) }
func wideSessSliceCount(batchLo int) uint32 { return uint32(2 + 3*batchLo) }
func wideSessReveal(slabLo int) uint32      { return uint32(3 + 3*slabLo) }

// packPlanes transposes 64 per-lane values into bit-plane words (word i =
// bit i of every lane) and returns the first planes words. Values must fit
// in planes bits; rows is clobbered.
func packPlanes(rows *[64]uint64, planes int) []uint64 {
	bitmat.Transpose64(rows)
	out := make([]uint64, planes)
	copy(out, rows[:planes])
	return out
}

// inSession runs fn over its own coordinator session inside one span
// named stage; the session carries the span, so the GMW/OT phase spans
// nest underneath. On failure the whole mux is closed so sibling batches
// abort promptly instead of waiting on a dead peer.
func (ws *wideState) inSession(stage string, sessID uint32, attrs []trace.Attr, fn func(sess transport.Network) error) error {
	sess, err := ws.mux.Session(sessID)
	if err != nil {
		return fmt.Errorf("coordinator session: %w", err)
	}
	_, sp := trace.StartChild(ws.ctx, stage, attrs...)
	transport.AttachSpan(sess, sp)
	defer sp.End()
	err = fn(sess)
	sess.Close()
	if err != nil {
		ws.mux.Close()
		return err
	}
	return nil
}

// runWide executes one bit-sliced GMW run over identities [lo, hi) with
// preprocessing per the configuration: sharded dealer, or pairwise OT over
// the same session before the online phase. Only the first lanes lanes
// carry data (a ragged slab's live identities, or the one lane of the
// per-batch popcount opener); the rest are public-zero padding, which OT
// preprocessing serves with the free all-zero triple. keepShared leaves
// the outputs XOR-shared (RunWideShared) instead of opening them.
func (ws *wideState) runWide(stage string, sessID uint32, lo, hi, lanes int, circ *circuit.Circuit, inputs [][]uint64, seed int64, keepShared bool) (*gmw.WideResult, error) {
	var res *gmw.WideResult
	attrs := []trace.Attr{trace.Int("lo", lo), trace.Int("hi", hi), trace.Int("lanes", lanes)}
	err := ws.inSession(stage, sessID, attrs, func(sess transport.Network) error {
		andGates := circ.Stats().AndGates
		var triples []gmw.WideTriples
		var err error
		if ws.cfg.Triples == TripleOT {
			if triples, err = gmw.GenTriplesWideOT(sess, andGates, lanes, seed+7919); err != nil {
				return fmt.Errorf("OT preprocessing: %w", err)
			}
		} else if triples, err = gmw.GenTriplesWideSharded(seed, ws.c, andGates, ws.workers); err != nil {
			return err
		}
		if keepShared {
			res, err = gmw.RunWideShared(sess, circ, inputs, triples, seed)
		} else {
			res, err = gmw.RunWideWithTriples(sess, circ, inputs, triples, seed)
		}
		return err
	})
	return res, err
}

// countBelowBatch is stage B for one identity batch: per slab, a
// shares-kept CountBelowSlice execution produces the 64 ≥-threshold bit
// shares; then ONE SliceCount execution per batch opens the popcount of
// every live lane's kept share at once. Opening per batch — not per
// slab — keeps the release granularity at the batch counts, the only
// partial sums ever disclosed, and costs one opener session instead of
// one per slab.
func (ws *wideState) countBelowBatch(lo, hi int) (wideOut, error) {
	var out wideOut
	cbCirc, err := circuit.CountBelowSliceCached(circuit.SliceParams{
		Parties: ws.c, ShareBits: ws.w, Arithmetic: ws.cfg.Arithmetic,
	})
	if err != nil {
		return out, fmt.Errorf("compile CountBelowSlice: %w", err)
	}
	mod := uint64(1) << uint(ws.w)
	// laneShares[k] holds party k's kept ≥-bit share of every live
	// identity in the batch, one per word in bit 0: the opener's input.
	laneShares := make([][]uint64, ws.c)
	for k := range laneShares {
		laneShares[k] = make([]uint64, 0, hi-lo)
	}
	for slabLo := lo; slabLo < hi; slabLo += gmw.WideLanes {
		slabHi := slabLo + gmw.WideLanes
		if slabHi > hi {
			slabHi = hi
		}
		active := slabHi - slabLo
		out.waste += gmw.WideLanes - active
		inputs := make([][]uint64, ws.c)
		for k := 0; k < ws.c; k++ {
			var rows [64]uint64
			for r := 0; r < active; r++ {
				j := slabLo + r
				v := ws.shares[k][j]
				if k == 0 {
					// Fold the public threshold into party 0's share so one
					// compiled circuit serves every slab.
					v = (v + mod - ws.thresholds[j]%mod) % mod
				}
				rows[r] = v
			}
			if k == 0 {
				// Padded lanes: zero shares with t = 1 folded ⟹ never ≥,
				// so they cannot perturb the count.
				for r := active; r < gmw.WideLanes; r++ {
					rows[r] = mod - 1
				}
			}
			inputs[k] = packPlanes(&rows, ws.w)
		}
		wres, err := ws.runWide("mpc.countbelow", wideSessCountBelow(slabLo), slabLo, slabHi, active, cbCirc, inputs,
			mathx.DeriveSeed(ws.cfg.Seed, seedStreamWideCountBelow, uint64(slabLo)), true)
		if err != nil {
			return out, fmt.Errorf("CountBelowSlice MPC [%d:%d]: %w", slabLo, slabHi, err)
		}
		for k := range laneShares {
			word := wres.OutputShares[k][0]
			for s := 0; s < active; s++ {
				laneShares[k] = append(laneShares[k], word>>uint(s)&1)
			}
		}
		out.circ = addCircuitStats(out.circ, cbCirc.Stats())
		out.stats.Messages += wres.Stats.Messages
		out.stats.Bytes += wres.Stats.Bytes
		out.rounds += wres.Rounds
	}
	// One popcount opener for the whole batch, over its live identities
	// only (a padded lane's ≥-bit is a public 0). It runs as a wide
	// execution with one live lane: lane 0 of every input word carries a
	// share bit, and the count is lane 0 of the output words.
	scCirc, err := circuit.SliceCountCached(circuit.SliceCountParams{
		Parties: ws.c, Slots: len(laneShares[0]), Arithmetic: ws.cfg.Arithmetic,
	})
	if err != nil {
		return out, fmt.Errorf("compile SliceCount: %w", err)
	}
	scRes, err := ws.runWide("mpc.slicecount", wideSessSliceCount(lo), lo, hi, 1, scCirc, laneShares,
		mathx.DeriveSeed(ws.cfg.Seed, seedStreamSliceCount, uint64(lo)), false)
	if err != nil {
		return out, fmt.Errorf("SliceCount MPC [%d:%d]: %w", lo, hi, err)
	}
	for i, word := range scRes.Outputs {
		out.count |= int(word&1) << uint(i)
	}
	out.circ = addCircuitStats(out.circ, scCirc.Stats())
	out.stats.Messages += scRes.Stats.Messages
	out.stats.Bytes += scRes.Stats.Bytes
	out.rounds += scRes.Rounds
	return out, nil
}

// revealBatch is stage C for one identity batch. The mixing coins come
// from the per-batch stream (Seed, seedStreamCoins, b), drawn party-major,
// identity-minor, so a batch's coins do not depend on which batches ran
// before it. Padded lanes carry zero shares, zero coins and a folded
// t = 1; their outputs are discarded undecoded.
func (ws *wideState) revealBatch(b, lo, hi, coinBits int, coinMod, mixThreshold uint64, eps []float64, hidden []bool, betas []float64) (wideOut, error) {
	var out wideOut
	rvCirc, err := circuit.RevealSliceCached(circuit.SliceParams{
		Parties: ws.c, ShareBits: ws.w, CoinBits: coinBits,
		MixThreshold: mixThreshold, Arithmetic: ws.cfg.Arithmetic,
	})
	if err != nil {
		return out, fmt.Errorf("compile RevealSlice: %w", err)
	}
	coinRng := rand.New(rand.NewSource(mathx.DeriveSeed(ws.cfg.Seed, seedStreamCoins, uint64(b))))
	coinVals := make([][]uint64, ws.c)
	for k := 0; k < ws.c; k++ {
		coinVals[k] = make([]uint64, hi-lo)
		for j := lo; j < hi; j++ {
			coinVals[k][j-lo] = coinRng.Uint64() % coinMod
		}
	}
	mod := uint64(1) << uint(ws.w)
	for slabLo := lo; slabLo < hi; slabLo += gmw.WideLanes {
		slabHi := slabLo + gmw.WideLanes
		if slabHi > hi {
			slabHi = hi
		}
		active := slabHi - slabLo
		out.waste += gmw.WideLanes - active
		inputs := make([][]uint64, ws.c)
		for k := 0; k < ws.c; k++ {
			var shareRows, coinRows [64]uint64
			for r := 0; r < active; r++ {
				j := slabLo + r
				shareRows[r] = ws.shares[k][j]
				coinRows[r] = coinVals[k][j-lo]
			}
			in := make([]uint64, 0, 2*ws.w+coinBits)
			in = append(in, packPlanes(&shareRows, ws.w)...)
			in = append(in, packPlanes(&coinRows, coinBits)...)
			if k == 0 {
				var offRows [64]uint64
				for r := 0; r < active; r++ {
					offRows[r] = (mod - ws.thresholds[slabLo+r]%mod) % mod
				}
				for r := active; r < gmw.WideLanes; r++ {
					offRows[r] = mod - 1
				}
				in = append(in, packPlanes(&offRows, ws.w)...)
			}
			inputs[k] = in
		}
		wres, err := ws.runWide("mpc.reveal", wideSessReveal(slabLo), slabLo, slabHi, active, rvCirc, inputs,
			mathx.DeriveSeed(ws.cfg.Seed, seedStreamWideReveal, uint64(slabLo)), false)
		if err != nil {
			return out, fmt.Errorf("RevealSlice MPC [%d:%d]: %w", slabLo, slabHi, err)
		}
		if len(wres.Outputs) != 1+ws.w {
			return out, fmt.Errorf("core: wide reveal output words %d, want %d", len(wres.Outputs), 1+ws.w)
		}
		for r := 0; r < active; r++ {
			j := slabLo + r
			hidden[j] = wres.Outputs[0]>>uint(r)&1 == 1
			if hidden[j] {
				betas[j] = 1
				continue
			}
			var freq uint64
			for i := 0; i < ws.w; i++ {
				freq |= (wres.Outputs[1+i] >> uint(r) & 1) << uint(i)
			}
			sigma := float64(freq) / float64(ws.m)
			bv, err := mathx.Beta(ws.cfg.Policy, mathx.BetaParams{
				Sigma: sigma, Epsilon: eps[j], M: ws.m, Delta: ws.cfg.Delta, Gamma: ws.cfg.Gamma,
			})
			if err != nil {
				return out, fmt.Errorf("β for identity %d: %w", j, err)
			}
			betas[j] = bv
		}
		out.circ = addCircuitStats(out.circ, rvCirc.Stats())
		out.stats.Messages += wres.Stats.Messages
		out.stats.Bytes += wres.Stats.Bytes
		out.rounds += wres.Rounds
	}
	return out, nil
}
