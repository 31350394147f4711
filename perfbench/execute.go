package main

import (
	"context"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"time"

	"repro/internal/metrics"
)

// spec of one reported metric, shared by the result line, the printed
// table and BENCHMARK.json (see TestBenchmarkJSONMatches).
type metricSpec struct {
	name, unit, better string
}

// endToEnd are the metrics a user of the locator sees. Every workload
// reports each of them; README.md gives the per-workload meaning.
var endToEnd = []metricSpec{
	{"setup_s", "s", "lower"},
	{"max_owners_per_s", "1/s", "higher"},
	{"epoch_mb", "MB", "lower"},
	{"peak_rss_mb", "MB", "lower"},
	{"live_heap_mb", "MB", "lower"},
}

// perLayer are the traced pass's metrics, one group per layer. A layer
// the workload does not exercise reports 0.
var perLayer = []metricSpec{
	{"gen.latency_p50_ms", "ms", "lower"},
	{"gen.latency_p99_ms", "ms", "lower"},
	{"gen.lateness_p99_ms", "ms", "lower"},
	{"gen.sent", "count", "higher"},
	{"gen.failed", "count", "lower"},
	{"gen.slo_owners_per_s", "1/s", "higher"},
	{"gateway.cache_hit_ratio", "ratio", "higher"},
	{"gateway.upstream_per_request", "count", "lower"},
	{"gateway.upstream_p99_ms", "ms", "lower"},
	{"gateway.hedge_ratio", "ratio", "lower"},
	{"gateway.hedge_win_ratio", "ratio", "higher"},
	{"gateway.shed", "count", "lower"},
	{"httpapi.node_p50_ms", "ms", "lower"},
	{"httpapi.node_p99_ms", "ms", "lower"},
	{"httpapi.swap_ms", "ms", "lower"},
	{"index.query_us", "us", "lower"},
	{"index.batch_us_per_owner", "us", "lower"},
	{"index.fanout_mean", "count", "lower"},
	{"index.fanout_frac", "ratio", "lower"},
	{"core.construct_s", "s", "lower"},
	{"core.mpc_s", "s", "lower"},
	{"core.search_cost_ratio", "ratio", "lower"},
	{"core.lambda", "ratio", "lower"},
	{"core.published_common_frac", "ratio", "lower"},
	{"secsum.bytes", "bytes", "lower"},
	{"secsum.messages", "count", "lower"},
	{"gmw.bytes", "bytes", "lower"},
	{"gmw.rounds", "count", "lower"},
	{"circuit.and_gates", "count", "lower"},
	{"privacy.compute_s", "s", "lower"},
	{"privacy.success_ratio", "ratio", "higher"},
	{"epoch.publish_s", "s", "lower"},
	{"epoch.load_ms", "ms", "lower"},
	{"replica.sync_ms", "ms", "lower"},
	{"replica.bytes_ratio", "ratio", "lower"},
	{"replica.failures", "count", "lower"},
	{"rebuild.wall_s", "s", "lower"},
	{"rebuild.converge_ms", "ms", "lower"},
	{"rebuild.span_coverage", "ratio", "higher"},
	{"go.cpu_us_per_owner", "us", "lower"},
	{"go.live_heap_end_mb", "MB", "lower"},
	{"go.alloc_mb", "MB", "lower"},
	{"go.gc_cycles", "count", "lower"},
	{"trace.overhead_ms", "ms", "lower"},
}

func unitOf(specs []metricSpec, name string) string {
	for _, s := range specs {
		if s.name == name {
			return s.unit
		}
	}
	panic("perfbench: unlisted metric " + name)
}

// setLayer records a per-layer figure.
func (r *run) setLayer(name string, v float64) {
	r.layer[name] = metric{Value: v, Unit: unitOf(perLayer, name)}
}

// passMark brackets a traced pass: registry snapshots, runtime
// statistics and the request counters.
type passMark struct {
	gw, nodes         regSnap
	mem               runtime.MemStats
	attempted, failed int
}

func nodeRoute(name string, labels map[string]string) bool {
	return name != "eppi_http_request_seconds" || labels["route"] == "query" || labels["route"] == "batch"
}

func (r *run) mark() passMark {
	var m passMark
	m.gw = snapshot(nil, r.fleet.greg)
	m.nodes = snapshot(nodeRoute, r.nodeRegs()...)
	runtime.ReadMemStats(&m.mem)
	m.attempted, m.failed = r.attempted, r.failed
	return m
}

// execute runs the workload: set-up, an untraced measured pass for the
// end-to-end metrics, and with tracing a traced pass for the per-layer
// metrics. The fleet is torn down and its stores removed on return.
func (r *run) execute(ctx context.Context) (result, error) {
	defer func() {
		if r.fleet != nil {
			r.fleet.close()
		}
		os.RemoveAll(r.dir) // scratch stores only; a leftover is harmless
	}()
	setup, err := r.setup(ctx)
	if err != nil {
		return result{}, err
	}
	e2e := map[string]metric{}
	set := func(name string, v float64) { e2e[name] = metric{Value: v, Unit: unitOf(endToEnd, name)} }
	set("setup_s", setup.Seconds())

	traced := r.rec.on
	r.rec.on = false
	// live_heap_mb is the fleet's heap once it is up and warm, read before
	// the measured pass. After secure rebuilds the heap also holds the
	// circuit compile cache: one Reveal circuit per distinct λ the rebuilds
	// met, and whether λ moves depends on the seed. The traced run reports
	// the end-of-run heap as go.live_heap_end_mb.
	if sp := r.spec.serve; sp != nil {
		r.warm(ctx, sp)
		set("live_heap_mb", liveHeapMB())
		p := r.serve(ctx, sp, 1)
		set("max_owners_per_s", p.saturated)
		if traced {
			r.setLayer("go.cpu_us_per_owner", p.cpuPerOwner)
			r.rec.on = true
			before := r.mark()
			tp := r.serve(ctx, sp, 2)
			after := r.mark()
			if err := r.serveLayers(ctx, p, tp, before, after); err != nil {
				return result{}, err
			}
			owners, shed := r.ladder(ctx, sp, 3)
			r.setLayer("gen.slo_owners_per_s", owners)
			r.setLayer("gateway.shed", shed)
		}
	} else {
		set("live_heap_mb", liveHeapMB())
		// One untimed rebuild first: it faults in the memory a rebuild
		// needs and compiles the secure circuits, and ran ≈20% slower
		// than the rebuilds after it.
		r.attempted++
		if _, err := r.rebuildOnce(ctx, 0); err != nil {
			return result{}, fmt.Errorf("warm-up rebuild: %w", err)
		}
		p, err := r.rebuildLoop(ctx, 1)
		if err != nil {
			return result{}, err
		}
		set("max_owners_per_s", float64(r.spec.owners)/p.medianWall().Seconds())
		if traced {
			r.setLayer("go.cpu_us_per_owner", float64(p.medianCPU().Microseconds())/float64(r.spec.owners))
			r.rec.on = true
			before := r.mark()
			tp, err := r.rebuildLoop(ctx, 2)
			if err != nil {
				return result{}, err
			}
			r.rebuildLayers(ctx, p, tp, before, r.mark())
		}
	}

	size, err := epochBytes(r.fleet.pub.Root, r.last.epoch)
	if err != nil {
		return result{}, fmt.Errorf("epoch size: %w", err)
	}
	set("epoch_mb", float64(size)/1e6)
	rss, err := peakRSSMB()
	if err != nil {
		return result{}, err
	}
	set("peak_rss_mb", rss)
	if traced {
		r.setLayer("go.live_heap_end_mb", liveHeapMB())
	}
	runtime.KeepAlive(r.fleet)

	res := result{Correct: len(r.problems) == 0, Attempted: r.attempted, Failed: r.failed, Metrics: e2e}
	if traced {
		for _, s := range perLayer {
			if _, ok := r.layer[s.name]; !ok {
				r.setLayer(s.name, 0)
			}
		}
		res.Metrics = r.layer
	}
	return res, nil
}

// commonLayers records what every workload reports the same way: the
// gateway and node registries, the runtime, the request counters, the
// index replay and the validity figures of the newest epoch.
func (r *run) commonLayers(ctx context.Context, before, after passMark, stream []int32) {
	g0, g1 := before.gw, after.gw
	sent := float64(after.attempted - before.attempted)
	hits := delta(g0, g1, "eppi_gateway_cache_hits_total")
	misses := delta(g0, g1, "eppi_gateway_cache_misses_total")
	upstream := countDelta(g0, g1, "eppi_gateway_upstream_seconds")
	hedges := delta(g0, g1, "eppi_gateway_hedges_total")
	r.setLayer("gen.sent", sent)
	r.setLayer("gen.failed", float64(after.failed-before.failed))
	r.setLayer("gateway.cache_hit_ratio", ratio(hits, hits+misses))
	r.setLayer("gateway.upstream_per_request", ratio(upstream, sent))
	r.setLayer("gateway.upstream_p99_ms", 1e3*quantileDelta(g0, g1, "eppi_gateway_upstream_seconds", 0.99))
	r.setLayer("gateway.hedge_ratio", ratio(hedges, upstream))
	r.setLayer("gateway.hedge_win_ratio", ratio(delta(g0, g1, "eppi_gateway_hedge_wins_total"), hedges))
	r.setLayer("httpapi.node_p50_ms", 1e3*quantileDelta(before.nodes, after.nodes, "eppi_http_request_seconds", 0.5))
	r.setLayer("httpapi.node_p99_ms", 1e3*quantileDelta(before.nodes, after.nodes, "eppi_http_request_seconds", 0.99))
	r.setLayer("replica.failures", delta(before.nodes, after.nodes, "eppi_replica_failures_total"))
	r.setLayer("go.alloc_mb", float64(after.mem.TotalAlloc-before.mem.TotalAlloc)/1e6)
	r.setLayer("go.gc_cycles", float64(after.mem.NumGC-before.mem.NumGC))

	if len(stream) == 0 {
		stream = newSchedule(r.seed, float64(replayCap), time.Second, 1, uniformPicker(r.spec.owners)).Owners
	}
	q, b, fan := r.replayIndex(ctx, stream)
	r.setLayer("index.query_us", q)
	r.setLayer("index.batch_us_per_owner", b)
	r.setLayer("index.fanout_mean", fan)

	res := r.last.res
	n, m := float64(res.Published.Cols()), float64(res.Published.Rows())
	hidden := 0
	for _, h := range res.Hidden {
		if h {
			hidden++
		}
	}
	r.setLayer("index.fanout_frac", float64(res.Published.Count())/(n*m))
	r.setLayer("core.search_cost_ratio", ratio(float64(res.Published.Count()), float64(r.data.Matrix.Count())))
	r.setLayer("core.lambda", res.Lambda)
	r.setLayer("core.published_common_frac", float64(hidden)/n)
	r.setLayer("privacy.success_ratio", r.last.rep.SuccessRatio)
	if s := res.Secure; s != nil {
		r.setLayer("core.mpc_s", s.MPCWall.Seconds())
		r.setLayer("secsum.bytes", float64(s.SecSum.Bytes))
		r.setLayer("secsum.messages", float64(s.SecSum.Messages))
		r.setLayer("gmw.bytes", float64(s.MPC.Bytes))
		r.setLayer("gmw.rounds", float64(s.MPCRounds))
		r.setLayer("circuit.and_gates", float64(s.CountBelowCircuit.AndGates+s.RevealCircuit.AndGates))
	}
	r.setLayer("core.construct_s", r.last.construct.Seconds())
	r.setLayer("privacy.compute_s", r.last.audit.Seconds())
	r.setLayer("epoch.publish_s", r.last.publish.Seconds())
}

// nodeLayers records the per-node sync, load and swap figures of one
// fleet update, and the bytes pulled per byte the mirrored epochs hold.
func (r *run) nodeLayers(steps []nodeStep, pulled float64, need int64) {
	var load, sync, swap time.Duration
	for _, st := range steps {
		load += st.load
		sync = max(sync, st.sync)
		swap = max(swap, st.swap)
	}
	r.setLayer("epoch.load_ms", ms(load)/float64(len(steps)))
	r.setLayer("replica.sync_ms", ms(sync))
	r.setLayer("httpapi.swap_ms", ms(swap))
	r.setLayer("replica.bytes_ratio", ratio(pulled, float64(need)))
}

// mirroredBytes is the size of epoch e summed over every node's store.
func (r *run) mirroredBytes(e uint64) (int64, error) {
	var total int64
	for _, nd := range r.fleet.nodes {
		b, err := epochBytes(nd.root, e)
		if err != nil {
			return 0, fmt.Errorf("mirrored epoch size: %w", err)
		}
		total += b
	}
	return total, nil
}

func (r *run) serveLayers(ctx context.Context, base, tp servePass, before, after passMark) error {
	r.commonLayers(ctx, before, after, tp.stream)
	r.setLayer("gen.latency_p50_ms", tp.nominal.P50)
	r.setLayer("gen.latency_p99_ms", tp.nominal.P99)
	r.setLayer("gen.lateness_p99_ms", tp.nominal.LateP99)
	r.setLayer("trace.overhead_ms", tp.nominal.P50-base.nominal.P50)
	// The fleet's one update was its boot: every node pulled epoch 1.
	pulled := snapshot(nil, r.nodeRegs()...).values["eppi_replica_bytes_total"]
	need, err := r.mirroredBytes(r.last.epoch)
	if err != nil {
		return err
	}
	r.nodeLayers(r.boot, pulled, need)
	r.setLayer("httpapi.swap_ms", 0) // booting installs, it does not swap
	return nil
}

func (r *run) rebuildLayers(ctx context.Context, base, tp rebuildPass, before, after passMark) {
	last := tp.runs[len(tp.runs)-1]
	r.commonLayers(ctx, before, after, nil)
	r.setLayer("trace.overhead_ms", ms(tp.medianWall()-base.medianWall()))
	r.setLayer("rebuild.wall_s", tp.medianWall().Seconds())
	r.setLayer("rebuild.converge_ms", ms(last.converge))
	var covered time.Duration
	for _, s := range r.rec.children(last.root) {
		covered += s.End - s.Start
	}
	coverage := ratio(float64(covered), float64(last.wall))
	r.setLayer("rebuild.span_coverage", coverage)
	if math.Abs(coverage-1) > 0.05 {
		r.problem("layer spans cover %.3f of the rebuild wall time, want 1 ± 0.05", coverage)
	}
	var need int64
	for _, rb := range tp.runs {
		need += rb.mirrored
	}
	r.nodeLayers(last.steps, delta(before.nodes, after.nodes, "eppi_replica_bytes_total"), need)
}

func (r *run) nodeRegs() []*metrics.Registry {
	regs := make([]*metrics.Registry, len(r.fleet.nodes))
	for i, nd := range r.fleet.nodes {
		regs[i] = nd.reg
	}
	return regs
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// printTable writes the reported metrics, one per line, in list order.
func printTable(out io.Writer, workload string, got map[string]metric) {
	fmt.Fprintf(out, "workload %s\n", workload)
	for _, specs := range [][]metricSpec{endToEnd, perLayer} {
		for _, s := range specs {
			if m, ok := got[s.name]; ok {
				fmt.Fprintf(out, "  %-30s %14s %s\n", s.name, fmtValue(m.Value), m.Unit)
			}
		}
	}
}
