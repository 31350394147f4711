package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"os"
	"runtime"
	"time"

	"repro/internal/circuit"
	"repro/internal/core"
	"repro/internal/mathx"
	"repro/internal/workload"
)

// The -mpcbench workload: large enough that slab scheduling and circuit
// compilation are steady-state costs (identities span two full 64-lane
// slabs per batch, 16 batches), small enough to run in about a second.
// Prefix arithmetic and 32-bit mixing coins are the latency-oriented
// configuration the facade recommends for WAN links: log-depth circuits
// trade gates for rounds, which is exactly the trade the bit-sliced
// evaluator amortizes 64-wide. BatchSize 128 is a slab multiple, so no
// lane is padded.
const (
	mpcBenchProviders    = 64
	mpcBenchIdentities   = 2048
	mpcBenchCoordinators = 3
	mpcBenchBatch        = 128
	mpcBenchCoinBits     = 32
)

// mpcPhase is the measurement in a BENCH_mpc.json entry. Seconds is the
// wall time of the CountBelow/Reveal construction stages — circuit
// compilation, triple preprocessing and protocol execution; TotalSeconds
// is the whole construction, SecSumShare and publication included.
// AndGateInstancesPerSec divides the per-identity workload — the AND gates
// of the paper's per-batch CountBelow and Reveal circuits for this exact
// construction — by the stage time, so entries stay comparable however
// the evaluator schedules those gates.
type mpcPhase struct {
	Seconds                float64 `json:"seconds"`
	TotalSeconds           float64 `json:"total_seconds"`
	AndGateInstancesPerSec float64 `json:"and_gate_instances_per_sec"`
}

// mpcEntry is one appended BENCH_mpc.json record. Entries written while a
// per-batch scalar evaluator still existed also carry "scalar" and
// "speedup" fields; the guard reads only "wide".
type mpcEntry struct {
	Timestamp        string   `json:"timestamp"`
	Providers        int      `json:"providers"`
	Identities       int      `json:"identities"`
	Coordinators     int      `json:"coordinators"`
	Batch            int      `json:"batch"`
	CoinBits         int      `json:"coin_bits"`
	Arithmetic       string   `json:"arithmetic"`
	Workers          int      `json:"workers"`
	GoMaxProcs       int      `json:"gomaxprocs"`
	AndGateInstances uint64   `json:"and_gate_instances"`
	Wide             mpcPhase `json:"wide"`
}

// runMPCBench times the secure construction of one fixed workload,
// checks its publication covers the truth, and appends the measurement
// to the JSON history at path (the file `make bench-mpc` tracks and
// scripts/benchguard -mpc gates).
func runMPCBench(path string, seed int64, workers int, out io.Writer) error {
	rng := rand.New(rand.NewSource(seed))
	freqs := make([]int, mpcBenchIdentities)
	eps := make([]float64, mpcBenchIdentities)
	for j := range freqs {
		freqs[j] = 1 + rng.Intn(mpcBenchProviders)
		eps[j] = 0.3 + 0.6*rng.Float64()
	}
	d, err := workload.GenerateFixed(workload.FixedConfig{
		Providers:   mpcBenchProviders,
		Frequencies: freqs,
		Eps:         eps,
		Seed:        seed,
	})
	if err != nil {
		return err
	}
	cfg := core.Config{
		Policy:     mathx.PolicyChernoff,
		Gamma:      0.9,
		Mode:       core.ModeSecure,
		C:          mpcBenchCoordinators,
		BatchSize:  mpcBenchBatch,
		CoinBits:   mpcBenchCoinBits,
		Arithmetic: circuit.StylePrefix,
		Seed:       seed,
		Workers:    workers,
	}

	start := time.Now()
	res, err := core.Construct(d.Matrix, d.Eps, cfg)
	if err != nil {
		return fmt.Errorf("construction: %w", err)
	}
	total := time.Since(start).Seconds()
	sec := res.Secure.MPCWall.Seconds()
	if !res.Published.Covers(d.Matrix) {
		return fmt.Errorf("published matrix lost true positives — benchmark void")
	}
	instances, err := perIdentityAndGates(res, cfg)
	if err != nil {
		return err
	}

	entry := mpcEntry{
		Timestamp:        time.Now().UTC().Format(time.RFC3339),
		Providers:        mpcBenchProviders,
		Identities:       mpcBenchIdentities,
		Coordinators:     mpcBenchCoordinators,
		Batch:            mpcBenchBatch,
		CoinBits:         mpcBenchCoinBits,
		Arithmetic:       "prefix",
		Workers:          workers,
		GoMaxProcs:       runtime.GOMAXPROCS(0),
		AndGateInstances: instances,
		Wide:             mpcPhase{Seconds: sec, TotalSeconds: total, AndGateInstancesPerSec: float64(instances) / sec},
	}
	if err := appendMPCEntry(path, entry); err != nil {
		return err
	}
	fmt.Fprintf(out, "mpcbench: %d AND instances over %dx%d (c=%d, batch=%d)\n",
		instances, mpcBenchProviders, mpcBenchIdentities, mpcBenchCoordinators, mpcBenchBatch)
	fmt.Fprintf(out, "  CountBelow/Reveal stages: %.3fs (%.3g inst/s, %.3fs total construct)\n",
		entry.Wide.Seconds, entry.Wide.AndGateInstancesPerSec, entry.Wide.TotalSeconds)
	return nil
}

// perIdentityAndGates counts the AND gates of the per-batch CountBelow and
// Reveal circuits (circuit.CountBelow, circuit.Reveal) for the batches,
// public thresholds and λ of res: the workload the throughput is quoted
// in.
func perIdentityAndGates(res *core.Result, cfg core.Config) (uint64, error) {
	shareBits := circuit.BitsNeeded(uint64(mpcBenchProviders + 1))
	coinMod := uint64(1) << uint(cfg.CoinBits)
	mixThreshold := uint64(res.Lambda * float64(coinMod))
	if mixThreshold >= coinMod {
		mixThreshold = coinMod - 1
	}
	var gates uint64
	for lo := 0; lo < len(res.Thresholds); lo += cfg.BatchSize {
		hi := min(lo+cfg.BatchSize, len(res.Thresholds))
		cb, err := circuit.CountBelow(circuit.CountBelowParams{
			Parties: cfg.C, Identities: hi - lo, ShareBits: shareBits,
			Thresholds: res.Thresholds[lo:hi], Arithmetic: cfg.Arithmetic,
		})
		if err != nil {
			return 0, fmt.Errorf("count CountBelow gates: %w", err)
		}
		rv, err := circuit.Reveal(circuit.RevealParams{
			Parties: cfg.C, Identities: hi - lo, ShareBits: shareBits,
			Thresholds: res.Thresholds[lo:hi], CoinBits: cfg.CoinBits,
			MixThreshold: mixThreshold, Arithmetic: cfg.Arithmetic,
		})
		if err != nil {
			return 0, fmt.Errorf("count Reveal gates: %w", err)
		}
		gates += uint64(cb.Stats().AndGates + rv.Stats().AndGates)
	}
	return gates, nil
}

// appendMPCEntry appends entry to the JSON array history at path, creating
// the file on first run.
func appendMPCEntry(path string, entry mpcEntry) error {
	var history []json.RawMessage
	if raw, err := os.ReadFile(path); err == nil {
		if err := json.Unmarshal(raw, &history); err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
	} else if !os.IsNotExist(err) {
		return err
	}
	raw, err := json.Marshal(entry)
	if err != nil {
		return err
	}
	history = append(history, raw)
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	if err := enc.Encode(history); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
