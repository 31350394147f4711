package main

import (
	"os"
	"path/filepath"
	"strconv"
	"testing"
)

func historyFile(t *testing.T, body string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "BENCH_gateway.json")
	if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func entryJSON(ts string, qps float64) string {
	return `{"timestamp":"` + ts + `","batch_warm":{"qps":` +
		strconv.FormatFloat(qps, 'f', -1, 64) + `}}`
}

func TestGuardPassesWithinBudget(t *testing.T) {
	path := historyFile(t, "["+entryJSON("t1", 1000)+","+entryJSON("t2", 850)+"]")
	if err := run(path, 0.20); err != nil {
		t.Fatalf("15%% drop failed the 20%% guard: %v", err)
	}
}

func TestGuardFailsOnRegression(t *testing.T) {
	path := historyFile(t, "["+entryJSON("t1", 1000)+","+entryJSON("t2", 799)+"]")
	if err := run(path, 0.20); err == nil {
		t.Fatal("20.1% drop passed the 20% guard")
	}
}

func TestGuardPassesOnImprovement(t *testing.T) {
	path := historyFile(t, "["+entryJSON("t1", 1000)+","+entryJSON("t2", 1500)+"]")
	if err := run(path, 0.20); err != nil {
		t.Fatal(err)
	}
}

func TestGuardComparesLastTwoBatchEntriesOnly(t *testing.T) {
	// The middle entry regressed hard, but the guard judges the newest
	// entry against its immediate batch-bearing predecessor.
	path := historyFile(t, "["+
		entryJSON("t1", 5000)+","+
		entryJSON("t2", 1000)+","+
		entryJSON("t3", 990)+"]")
	if err := run(path, 0.20); err != nil {
		t.Fatalf("newest vs previous is within budget, yet: %v", err)
	}
}

func TestGuardSkipsPreBatchEntries(t *testing.T) {
	// Entries written before the batch pipeline carry no batch_warm and
	// must be invisible to the comparison.
	path := historyFile(t, `[
		{"timestamp":"old1","warm":{"qps":123}},
		`+entryJSON("t1", 1000)+`,
		{"timestamp":"old2"},
		`+entryJSON("t2", 950)+"]")
	if err := run(path, 0.20); err != nil {
		t.Fatal(err)
	}
}

func TestGuardSingleBatchEntryIsBaseline(t *testing.T) {
	path := historyFile(t, "["+entryJSON("t1", 1000)+"]")
	if err := run(path, 0.20); err != nil {
		t.Fatalf("first batch entry must pass (nothing to compare): %v", err)
	}
}

func mpcEntryJSON(ts string, wideInstPerSec float64) string {
	return `{"timestamp":"` + ts + `","wide":{"and_gate_instances_per_sec":` +
		strconv.FormatFloat(wideInstPerSec, 'f', -1, 64) + `}}`
}

func TestMPCGuardPassesWithinBudget(t *testing.T) {
	path := historyFile(t, "["+mpcEntryJSON("t1", 4e7)+","+mpcEntryJSON("t2", 3.4e7)+"]")
	if err := runMPC(path, 0.20); err != nil {
		t.Fatalf("15%% drop failed the 20%% guard: %v", err)
	}
}

func TestMPCGuardFailsOnRegression(t *testing.T) {
	path := historyFile(t, "["+mpcEntryJSON("t1", 4e7)+","+mpcEntryJSON("t2", 3.1e7)+"]")
	if err := runMPC(path, 0.20); err == nil {
		t.Fatal("22.5% throughput drop passed the 20% guard")
	}
}

func TestMPCGuardSingleEntryIsBaseline(t *testing.T) {
	path := historyFile(t, "["+mpcEntryJSON("t1", 4e7)+"]")
	if err := runMPC(path, 0.20); err != nil {
		t.Fatalf("first MPC entry must pass (nothing to compare): %v", err)
	}
}

// Entries from before the secure construction became wide-only carry a
// "scalar" phase and a "speedup"; they must still parse and gate against
// wide-only entries on their "wide" throughput alone.
func TestMPCGuardReadsEntriesWithScalarPhase(t *testing.T) {
	legacy := `{"timestamp":"t1","and_gate_instances":743552,` +
		`"scalar":{"seconds":0.27,"total_seconds":0.29,"and_gate_instances_per_sec":2.7e6},` +
		`"wide":{"seconds":0.015,"total_seconds":0.035,"and_gate_instances_per_sec":4e7},"speedup":17.7}`
	path := historyFile(t, "["+legacy+","+mpcEntryJSON("t2", 3.4e7)+"]")
	if err := runMPC(path, 0.20); err != nil {
		t.Fatalf("wide-only entry within budget of a legacy entry failed: %v", err)
	}
	path = historyFile(t, "["+legacy+","+mpcEntryJSON("t2", 3.1e7)+"]")
	if err := runMPC(path, 0.20); err == nil {
		t.Fatal("22.5% drop from a legacy entry's wide throughput passed the 20% guard")
	}
}

func TestMPCGuardErrors(t *testing.T) {
	if err := runMPC(filepath.Join(t.TempDir(), "missing.json"), 0.20); err == nil {
		t.Error("missing file passed")
	}
	if err := runMPC(historyFile(t, "{nope"), 0.20); err == nil {
		t.Error("bad JSON passed")
	}
	if err := runMPC(historyFile(t, `[{"timestamp":"t1"}]`), 0.20); err == nil {
		t.Error("history without any wide measurement passed")
	}
}

func TestGuardErrors(t *testing.T) {
	if err := run(filepath.Join(t.TempDir(), "missing.json"), 0.20); err == nil {
		t.Error("missing file passed")
	}
	if err := run(historyFile(t, "{nope"), 0.20); err == nil {
		t.Error("bad JSON passed")
	}
	if err := run(historyFile(t, `[{"timestamp":"t1"}]`), 0.20); err == nil {
		t.Error("history without any batch measurement passed")
	}
}
