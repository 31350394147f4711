// Command perfbench is the repository's end-to-end benchmark. It deploys
// the whole locator in one process — construction, privacy audit, epoch
// publish, origin/mirror replication, shard nodes and the gateway, each
// behind the HTTP front users hit — drives one named workload through
// it, checks every answer, and prints the workload's metrics.
//
//	bash perfbench/run.sh --workload serve-zipf --seed 1 --seconds 20 --trace 0
//	bash perfbench/run.sh --workload all --seed 1 --seconds 20 --trace 0
//
// With --trace 0 the last line of standard output is one JSON object
// with the end-to-end metrics; with --trace 1 it carries the per-layer
// metrics of a traced pass. README.md describes the workloads.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"
)

// runBudget bounds one workload run, so that a hung fleet fails the run
// instead of outliving its caller.
const runBudget = 170 * time.Second

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	code, err := cli(os.Args[1:], os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
	}
	os.Exit(code)
}

func cli(args []string, out io.Writer) (int, error) {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload to run, or \"all\" to run each in its own process")
	seed := fs.Int64("seed", 1, "seed of the data, the owner streams and the arrival schedules")
	seconds := fs.Int("seconds", 20, "measured seconds per pass")
	traceFlag := fs.Int("trace", 0, "1: add a traced pass and report per-layer metrics")
	outDir := fs.String("out", filepath.Join(".bench_build", "runs"), "directory for the epoch stores and span files")
	if err := fs.Parse(args); err != nil {
		return 2, err
	}
	if *seconds < 1 || (*traceFlag != 0 && *traceFlag != 1) {
		return 2, fmt.Errorf("bad --seconds %d or --trace %d", *seconds, *traceFlag)
	}
	if *name == "all" {
		return runAll(args, out)
	}
	sp, ok := findSpec(*name)
	if !ok {
		return 2, fmt.Errorf("unknown workload %q", *name)
	}
	ctx, cancel := context.WithTimeout(context.Background(), runBudget)
	defer cancel()
	dir := filepath.Join(*outDir, fmt.Sprintf("%s-seed%d-%d", sp.name, *seed, os.Getpid()))
	r := newRun(sp, *seed, time.Duration(*seconds)*time.Second, *traceFlag == 1, dir)
	res, err := r.execute(ctx)
	if err != nil {
		return 1, err
	}
	fp := fingerprintOf(r)
	if err := report(out, r, fp, res); err != nil {
		return 1, err
	}
	if !res.Correct {
		return 1, errors.New("wrong answers or failed checks")
	}
	return 0, nil
}

// runAll runs every workload in its own process, one after another, so
// that each one's memory figures are its own.
func runAll(args []string, out io.Writer) (int, error) {
	self, err := os.Executable()
	if err != nil {
		return 1, err
	}
	code := 0
	for _, sp := range workloads {
		child := append(append([]string(nil), args...), "--workload", sp.name)
		fmt.Fprintf(out, "== %s\n", sp.name)
		cmd := exec.Command(self, child...)
		cmd.Stdout, cmd.Stderr = out, os.Stderr
		if err := cmd.Run(); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", sp.name, err)
			code = 1
		}
	}
	return code, nil
}

// report prints the fingerprint, the human-readable table and, last, the
// result line.
func report(out io.Writer, r *run, fp fingerprint, res result) error {
	raw, err := json.Marshal(fp)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "fingerprint %s\n", raw)
	for _, p := range r.problems {
		fmt.Fprintf(out, "CHECK FAILED: %s\n", p)
	}
	printTable(out, r.spec.name, res.Metrics)
	fmt.Fprintf(out, "attempted %d, failed %d, error_rate %.6f\n", res.Attempted, res.Failed,
		float64(res.Failed)/float64(max(res.Attempted, 1)))
	if r.traced {
		path := filepath.Join(filepath.Dir(r.dir), fmt.Sprintf("%s-seed%d-spans.json", r.spec.name, r.seed))
		if err := r.rec.write(path); err != nil {
			return err
		}
		fmt.Fprintf(out, "spans written to %s\n", path)
	}
	raw, err = json.Marshal(res)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(out, "%s\n", raw)
	return err
}

// peakRSSMB reads the process's resident-set high-water mark (VmHWM).
func peakRSSMB() (float64, error) {
	raw, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(raw), "\n") {
		var kb float64
		if _, err := fmt.Sscanf(line, "VmHWM: %f kB", &kb); err == nil {
			return kb * 1024 / 1e6, nil
		}
	}
	return 0, errors.New("no VmHWM in /proc/self/status")
}

// liveHeapMB is the heap still in use after a forced collection.
func liveHeapMB() float64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / 1e6
}

func fmtValue(v float64) string { return strconv.FormatFloat(v, 'g', 6, 64) }
