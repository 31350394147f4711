package main

import (
	"encoding/json"
	"errors"
	"os"
	"testing"

	"repro/internal/httpapi"
	"repro/internal/metrics"
)

func TestScanSingleMatchesDigestOf(t *testing.T) {
	for _, ps := range [][]int{{}, {0}, {3, 17, 999}} {
		body, err := json.Marshal(httpapi.QueryResponse{Owner: "owner://x", Providers: ps})
		if err != nil {
			t.Fatal(err)
		}
		got, err := scanSingle(body)
		if err != nil || got != digestOf(ps) {
			t.Fatalf("%v: digest %x, %v; want %x", ps, got, err, digestOf(ps))
		}
	}
	if digestOf([]int{1, 2}) == digestOf([]int{1, 2, 0}) || digestOf([]int{1, 2}) == digestOf([]int{2, 1}) {
		t.Fatal("digest ignores length or order")
	}
	if _, err := scanSingle([]byte(`{"error":"owner not found"}`)); err == nil {
		t.Fatal("an error body parsed as an answer")
	}
}

func TestScanBatchRows(t *testing.T) {
	rows := []httpapi.BatchRow{
		{Owner: "a", Found: true, Providers: []int{1, 5}},
		{Owner: "b", Found: false, Providers: []int{}},
		{Owner: "c", Found: true, Providers: []int{7}},
	}
	body, err := json.Marshal(httpapi.BatchQueryResponse{Results: rows})
	if err != nil {
		t.Fatal(err)
	}
	out := make([]uint64, len(rows))
	if err := scanBatch(body, out); err != nil {
		t.Fatal(err)
	}
	for i, r := range rows {
		if out[i] != digestOf(r.Providers) {
			t.Fatalf("row %d digest mismatch", i)
		}
	}
	if err := scanBatch(body, make([]uint64, 2)); err == nil {
		t.Fatal("a batch with an extra row passed")
	}
	if err := scanBatch(body, make([]uint64, 4)); err == nil {
		t.Fatal("a batch with a missing row passed")
	}
	rows[1].Error = "shard 2 unreachable"
	body, err = json.Marshal(httpapi.BatchQueryResponse{Results: rows})
	if err != nil {
		t.Fatal(err)
	}
	if err := scanBatch(body, out); !errors.Is(err, errRowFailed) {
		t.Fatalf("failed row: %v, want errRowFailed", err)
	}
}

func TestQuantileDeltaInterpolatesWithinBucket(t *testing.T) {
	reg := metrics.NewRegistry()
	h := reg.Histogram("lat", "test", []float64{1, 2, 4})
	h.Observe(100) // before the window: must not count
	before := snapshot(nil, reg)
	for i := 0; i < 50; i++ {
		h.Observe(0.5)
		h.Observe(3)
	}
	after := snapshot(nil, reg)
	if got := countDelta(before, after, "lat"); got != 100 {
		t.Fatalf("count delta %v, want 100", got)
	}
	// Half the window's samples lie in (0, 1], half in (2, 4].
	if got := quantileDelta(before, after, "lat", 0.5); got != 1 {
		t.Fatalf("p50 = %v, want 1", got)
	}
	if got := quantileDelta(before, after, "lat", 0.75); got != 3 {
		t.Fatalf("p75 = %v, want 3", got)
	}
	if got := quantileDelta(after, after, "lat", 0.5); got != 0 {
		t.Fatalf("empty window p50 = %v, want 0", got)
	}
}

// BENCHMARK.json at the repository root must list exactly the workloads
// and metrics this program reports.
func TestBenchmarkJSONMatches(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type entry struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	}
	var doc struct {
		Workloads []struct {
			Name string `json:"name"`
		} `json:"workloads"`
		EndToEnd []entry `json:"end_to_end"`
		PerLayer []entry `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d here", len(doc.Workloads), len(workloads))
	}
	for i, w := range doc.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d: %q vs %q", i, w.Name, workloads[i].name)
		}
	}
	check := func(kind string, got []entry, want []metricSpec) {
		if len(got) != len(want) {
			t.Fatalf("%s: %d metrics in BENCHMARK.json, %d here", kind, len(got), len(want))
		}
		for i, e := range got {
			if w := want[i]; e.Name != w.name || e.Unit != w.unit || e.Better != w.better {
				t.Errorf("%s %d: %+v vs %+v", kind, i, e, w)
			}
		}
	}
	check("end_to_end", doc.EndToEnd, endToEnd)
	check("per_layer", doc.PerLayer, perLayer)
	for _, e := range doc.EndToEnd {
		if e.Bound <= 0 || e.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", e.Name, e.Bound)
		}
	}
}
