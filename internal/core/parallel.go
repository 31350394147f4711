package core

import (
	"context"
	"math/rand"

	"repro/internal/bitmat"
	"repro/internal/mathx"
	"repro/internal/parallel"
	"repro/internal/trace"
)

// Sharding geometry of the parallel construction pipeline. These values
// are part of the deterministic-output contract: per-shard RNG streams are
// derived from (Config.Seed, stage stream, shard index), so changing a
// shard size changes which stream a given cell draws from and therefore
// the published matrix for a given seed. They are tuned once, not
// per-run.
const (
	// colShard is the column block size for β thresholds, aggregation and
	// mixing. A multiple of 64 so publication shards align with the
	// word-packed bitmat layout.
	colShard = 64
	// rowShard is the row block size of one publication shard.
	rowShard = 128
)

// DeriveSeed stream labels, one per randomized construction stage. Each
// stage draws from its own family of child seeds so no two stages — and no
// two shards within a stage — ever share an RNG stream.
const (
	seedStreamMix uint64 = iota + 1
	seedStreamPublish
	seedStreamCoins
	_ // retired: per-batch CountBelow circuit seeds
	_ // retired: per-batch Reveal circuit seeds
	// Slab streams: one per slab-level protocol execution, indexed by the
	// slab's global identity offset (unique across batches because slabs
	// never straddle batch boundaries); SliceCount is indexed by the
	// batch's offset.
	seedStreamWideCountBelow
	seedStreamSliceCount
	seedStreamWideReveal
)

// publishSharded applies the randomized publication rule of Equation 2
// (true bits copy unchanged, false bits flip with probability β_j) sharded
// across the worker pool.
//
// Shards are colShard×rowShard tiles. Because the matrix packs 64 columns
// per word and colShard is a multiple of 64, two shards never touch the
// same word, so the tiles write race-free. Each tile draws from an RNG
// seeded by (seed, seedStreamPublish, tile index) and scans cells in a
// fixed order, making the published matrix a pure function of the seed —
// identical at any worker count, and identical to a Workers=1 run.
func publishSharded(ctx context.Context, truth *bitmat.Matrix, betas []float64, seed int64, workers int) *bitmat.Matrix {
	published := truth.Clone()
	m, n := truth.Rows(), truth.Cols()
	colBlocks := (n + colShard - 1) / colShard
	rowBlocks := (m + rowShard - 1) / rowShard
	pubCtx, pubSpan := trace.StartChild(ctx, "core.publish")
	defer pubSpan.End()
	// One task per tile; tile index = colBlock*rowBlocks + rowBlock.
	parallel.For(workers, colBlocks*rowBlocks, func(tile int) error {
		cb, rb := tile/rowBlocks, tile%rowBlocks
		colLo, colHi := cb*colShard, (cb+1)*colShard
		if colHi > n {
			colHi = n
		}
		rowLo, rowHi := rb*rowShard, (rb+1)*rowShard
		if rowHi > m {
			rowHi = m
		}
		_, sp := trace.StartChild(pubCtx, "core.publish.shard",
			trace.Int("col_lo", colLo), trace.Int("row_lo", rowLo))
		defer sp.End()
		rng := rand.New(rand.NewSource(mathx.DeriveSeed(seed, seedStreamPublish, uint64(tile))))
		for j := colLo; j < colHi; j++ {
			beta := betas[j]
			if beta <= 0 {
				continue
			}
			for i := rowLo; i < rowHi; i++ {
				if !truth.Get(i, j) && mathx.Bernoulli(rng, beta) {
					published.Set(i, j, true)
				}
			}
		}
		return nil
	})
	return published
}
