// Command benchguard is the regression gate behind scripts/bench_guard.sh
// and `make bench-mpc`: it reads a benchmark JSON history and fails
// (exit 1) when the newest entry fell more than the allowed fraction below
// its predecessor.
//
// Default mode reads a BENCH_gateway.json history and compares the newest
// entry's batch warm QPS against the previous entry that recorded a batch
// warm phase. Entries written before the batched lookup pipeline existed
// carry no batch fields and are skipped, so the guard arms itself
// automatically once two batch-bearing entries exist.
//
// -mpc reads a BENCH_mpc.json history (written by eppi-bench -mpcbench)
// and compares the newest entry's wide AND-gate-instance throughput
// against the previous entry's. Older entries also carry a "scalar" phase
// from before the construction became wide-only; it is ignored.
//
// Usage: benchguard [-max-regress 0.20] [-mpc] BENCH_gateway.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
)

type phase struct {
	QPS float64 `json:"qps"`
}

type entry struct {
	Timestamp string `json:"timestamp"`
	BatchWarm *phase `json:"batch_warm"`
}

func main() {
	maxRegress := flag.Float64("max-regress", 0.20, "largest tolerated fractional drop vs the previous entry")
	mpc := flag.Bool("mpc", false, "guard a BENCH_mpc.json history (wide AND-gate-instance throughput) instead of gateway QPS")
	flag.Parse()
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: benchguard [-max-regress 0.20] [-mpc] BENCH_gateway.json")
		os.Exit(2)
	}
	guard := run
	if *mpc {
		guard = runMPC
	}
	if err := guard(flag.Arg(0), *maxRegress); err != nil {
		fmt.Fprintln(os.Stderr, "benchguard:", err)
		os.Exit(1)
	}
}

func run(path string, maxRegress float64) error {
	raw, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	var history []entry
	if err := json.Unmarshal(raw, &history); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	// Collect the entries that actually measured a batch warm phase, in
	// file order: the last is the run under test, the one before is its
	// baseline.
	var batched []entry
	for _, e := range history {
		if e.BatchWarm != nil && e.BatchWarm.QPS > 0 {
			batched = append(batched, e)
		}
	}
	if len(batched) == 0 {
		return fmt.Errorf("%s has no batch warm measurements", path)
	}
	if len(batched) == 1 {
		fmt.Printf("benchguard: first batch entry (%s), nothing to compare\n", batched[0].Timestamp)
		return nil
	}
	prev, cur := batched[len(batched)-2], batched[len(batched)-1]
	floor := prev.BatchWarm.QPS * (1 - maxRegress)
	if cur.BatchWarm.QPS < floor {
		return fmt.Errorf("batch warm QPS regressed: %.0f -> %.0f (floor %.0f, -%.0f%% allowed; baseline %s)",
			prev.BatchWarm.QPS, cur.BatchWarm.QPS, floor, maxRegress*100, prev.Timestamp)
	}
	fmt.Printf("benchguard: batch warm QPS %.0f vs baseline %.0f (%+.1f%%), within -%.0f%% budget\n",
		cur.BatchWarm.QPS, prev.BatchWarm.QPS,
		(cur.BatchWarm.QPS/prev.BatchWarm.QPS-1)*100, maxRegress*100)
	return nil
}

// mpcEntry is the slice of a BENCH_mpc.json record the guard needs: the
// wide evaluator's AND-gate-instance throughput over the CountBelow/Reveal
// stages, the number `make bench-mpc` exists to protect.
type mpcEntry struct {
	Timestamp string `json:"timestamp"`
	Wide      *struct {
		InstPerSec float64 `json:"and_gate_instances_per_sec"`
	} `json:"wide"`
}

func runMPC(path string, maxRegress float64) error {
	raw, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	var history []mpcEntry
	if err := json.Unmarshal(raw, &history); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	var measured []mpcEntry
	for _, e := range history {
		if e.Wide != nil && e.Wide.InstPerSec > 0 {
			measured = append(measured, e)
		}
	}
	if len(measured) == 0 {
		return fmt.Errorf("%s has no wide MPC measurements", path)
	}
	if len(measured) == 1 {
		fmt.Printf("benchguard: first MPC entry (%s), nothing to compare\n", measured[0].Timestamp)
		return nil
	}
	prev, cur := measured[len(measured)-2], measured[len(measured)-1]
	floor := prev.Wide.InstPerSec * (1 - maxRegress)
	if cur.Wide.InstPerSec < floor {
		return fmt.Errorf("wide MPC throughput regressed: %.3g -> %.3g inst/s (floor %.3g, -%.0f%% allowed; baseline %s)",
			prev.Wide.InstPerSec, cur.Wide.InstPerSec, floor, maxRegress*100, prev.Timestamp)
	}
	fmt.Printf("benchguard: wide MPC %.3g inst/s vs baseline %.3g (%+.1f%%), within -%.0f%% budget\n",
		cur.Wide.InstPerSec, prev.Wide.InstPerSec,
		(cur.Wide.InstPerSec/prev.Wide.InstPerSec-1)*100, maxRegress*100)
	return nil
}
