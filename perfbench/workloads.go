package main

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"net/http"
	"net/url"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"time"

	"repro/internal/httpapi"
	"repro/internal/shard"
	"repro/internal/workload"
)

// serveSpec shapes a serve workload's traffic.
type serveSpec struct {
	per     int       // owners per request: 1 = GET /v1/query, else POST /v1/query/batch
	zipf    bool      // Zipf-skewed owner popularity; uniform otherwise
	rate    float64   // nominal rate, requests/s
	limitMS float64   // p99 latency limit per request
	ladder  []float64 // capacity ladder, requests/s, ascending
}

// spec is one named workload.
type spec struct {
	name   string
	owners int
	serve  *serveSpec // nil for a rebuild workload
	secure bool       // rebuild in core.ModeSecure
	// perRebuild is the measured time one rebuild is planned to take: a
	// pass runs max(1, seconds/perRebuild) rebuilds, so that the count
	// depends on the arguments only, never on how fast the host is.
	perRebuild time.Duration
}

// The workloads; README.md gives the reason for each and its sizing.
var workloads = []spec{
	{
		name: "serve-zipf", owners: 100_000,
		serve: &serveSpec{per: 1, zipf: true, rate: 6000, limitMS: 5, ladder: geometricLadder(3000, 1.05, 31)},
	},
	{
		name: "serve-batch", owners: 100_000,
		serve: &serveSpec{per: 64, rate: 200, limitMS: 25, ladder: geometricLadder(300, 1.05, 31)},
	},
	{
		name: "rebuild-secure", owners: 25_000, secure: true, perRebuild: 5 * time.Second,
	},
}

func findSpec(name string) (spec, bool) {
	for _, s := range workloads {
		if s.name == name {
			return s, true
		}
	}
	return spec{}, false
}

const (
	setupRepeats = 3    // set-ups per run; setup_s is their median
	senders      = 2    // load-generator goroutines and connections
	freshFrac    = 0.01 // memberships added per rebuild
	replayCap    = 20_000
	cycles       = 5 // nominal/saturated rounds per serve pass
)

// run is the state of one workload execution.
type run struct {
	spec    spec
	seed    int64
	seconds time.Duration
	traced  bool
	dir     string
	rec     *recorder
	client  *http.Client

	data    *workload.Dataset
	escaped []string
	fleet   *fleet
	expect  map[uint64][]uint64 // epoch → per-owner answer digest
	last    built               // newest epoch built
	boot    []nodeStep          // node steps of the last set-up

	attempted, failed int
	problems          []string // wrong answers and failed checks
	layer             map[string]metric
}

func newRun(sp spec, seed int64, seconds time.Duration, traced bool, dir string) *run {
	return &run{
		spec: sp, seed: seed, seconds: seconds, traced: traced, dir: dir,
		rec:    newRecorder(traced),
		expect: map[uint64][]uint64{},
		layer:  map[string]metric{},
		client: &http.Client{Timeout: 10 * time.Second, Transport: &http.Transport{
			MaxConnsPerHost: senders, MaxIdleConnsPerHost: senders, DisableCompression: true,
		}},
	}
}

// logf prints a progress line to standard error.
func (r *run) logf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "perfbench %s: %s\n", r.spec.name, fmt.Sprintf(format, args...))
}

func (r *run) problem(format string, args ...any) {
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

// setup generates the data, builds, audits and publishes epoch 1 and
// boots the fleet, setupRepeats times from scratch; the last fleet stays
// up. It returns the median set-up time.
func (r *run) setup(ctx context.Context) (time.Duration, error) {
	var times []time.Duration
	for i := 0; i < setupRepeats; i++ {
		if r.fleet != nil {
			r.fleet.close()
		}
		runtime.GC()
		var b built
		d, err := r.rec.timed("setup", 0, func(id int32) error {
			var err error
			if _, err = r.rec.timed("workload.generate", id, func(int32) error {
				r.data, err = genData(r.seed, r.spec.owners)
				return err
			}); err != nil {
				return err
			}
			if r.fleet, err = newFleet(filepath.Join(r.dir, "fleet")); err != nil {
				return err
			}
			if b, err = buildEpoch(ctx, r.rec, id, r.fleet.pub, r.data, coreConfig(r.seed, false)); err != nil {
				return err
			}
			r.boot, err = r.fleet.boot(ctx, r.rec, id)
			return err
		})
		if err != nil {
			return 0, fmt.Errorf("setup: %w", err)
		}
		times = append(times, d)
		r.last = b
	}
	if err := r.admit(r.data, r.last); err != nil {
		return 0, err
	}
	r.escaped = make([]string, len(r.data.Names))
	for j, name := range r.data.Names {
		r.escaped[j] = url.QueryEscape(name)
	}
	sort.Slice(times, func(i, j int) bool { return times[i] < times[j] })
	return times[len(times)/2], nil
}

// admit checks a built epoch and records the answers it must serve:
// M′ ⊇ M (full recall), the audited success ratio reaches γ, the common
// count matches the count recomputed in the clear from M and the public
// thresholds, and the index is not a broadcast (λ < 1).
func (r *run) admit(d *workload.Dataset, b built) error {
	res := b.res
	if res.Lambda >= 1 {
		return fmt.Errorf("validity guard: λ = %v, the index is a broadcast and would hide every index change", res.Lambda)
	}
	if !res.Published.Covers(d.Matrix) {
		r.problem("epoch %d: M' does not cover M (recall < 100%%)", b.epoch)
	}
	if b.rep.SuccessRatio < gamma {
		r.problem("epoch %d: privacy success ratio %.4f < γ = %v", b.epoch, b.rep.SuccessRatio, gamma)
	}
	common := 0
	for j := 0; j < d.Matrix.Cols(); j++ {
		if uint64(d.Matrix.ColCount(j)) >= res.Thresholds[j] {
			common++
		}
	}
	if common != res.CommonCount {
		r.problem("epoch %d: CommonCount %d, recomputed in the clear %d", b.epoch, res.CommonCount, common)
	}
	r.expect[b.epoch] = columnDigests(res.Published)
	return nil
}

// answers holds what each request of a schedule got back, verified after
// the phase so that checking costs no time while requests are in flight.
type answers struct {
	epochs  []uint64 // per request: the epoch the answer is stamped with
	digests []uint64 // per owner slot
}

// play sends schedule s through the gateway and records the answers.
func (r *run) play(ctx context.Context, s schedule, name string, parent int32, stop <-chan struct{}) ([]sample, answers) {
	ans := answers{epochs: make([]uint64, s.Len()), digests: make([]uint64, s.Len()*s.Per)}
	bufs := make([]*bytes.Buffer, senders)
	for i := range bufs {
		bufs[i] = new(bytes.Buffer)
	}
	base := r.fleet.front.url
	do := func(ctx context.Context, w, i int) bool {
		start := time.Now()
		ok := r.request(ctx, base, bufs[w], s, i, &ans)
		if r.rec.on {
			r.rec.add(name, parent, start, time.Now())
		}
		return ok
	}
	return runOpenLoop(ctx, s, senders, stop, do), ans
}

// request sends planned request i. A refused or failed request returns
// false; a wrong answer is left for verify to find.
func (r *run) request(ctx context.Context, base string, buf *bytes.Buffer, s schedule, i int, ans *answers) bool {
	owners := s.Batch(i)
	var req *http.Request
	var err error
	if s.Per == 1 {
		req, err = http.NewRequestWithContext(ctx, http.MethodGet, base+"/v1/query?owner="+r.escaped[owners[0]], nil)
	} else {
		body := make([]byte, 0, 64+40*len(owners))
		body = append(body, `{"owners":[`...)
		for k, o := range owners {
			if k > 0 {
				body = append(body, ',')
			}
			body = strconv.AppendQuote(body, r.data.Names[o])
		}
		body = append(body, "]}"...)
		req, err = http.NewRequestWithContext(ctx, http.MethodPost, base+"/v1/query/batch", bytes.NewReader(body))
	}
	if err != nil {
		return false
	}
	resp, err := r.client.Do(req)
	if err != nil {
		return false
	}
	buf.Reset()
	_, err = buf.ReadFrom(resp.Body)
	resp.Body.Close()
	if err != nil {
		return false
	}
	switch resp.StatusCode {
	case http.StatusOK:
	case http.StatusNotFound:
		// A known owner reported missing is a wrong answer: leave its
		// digest zero so verify flags it.
		return true
	default:
		return false
	}
	ans.epochs[i], _ = strconv.ParseUint(resp.Header.Get(httpapi.EpochHeader), 10, 64)
	if s.Per == 1 {
		d, err := scanSingle(buf.Bytes())
		ans.digests[i] = d
		return err == nil
	}
	return scanBatch(buf.Bytes(), ans.digests[i*s.Per:(i+1)*s.Per]) == nil
}

// verify compares every answered request with the columns of the epoch
// it is stamped with.
func (r *run) verify(s schedule, samples []sample, ans answers) {
	wrong, unknown := 0, 0
	for i, sm := range samples {
		if !sm.Sent || !sm.OK {
			continue
		}
		want := r.expect[ans.epochs[i]]
		if want == nil {
			unknown++
			continue
		}
		for k, o := range s.Batch(i) {
			if ans.digests[i*s.Per+k] != want[o] {
				wrong++
			}
		}
	}
	if wrong > 0 {
		r.problem("%d answers differ from the published M' column", wrong)
	}
	if unknown > 0 {
		r.problem("%d answers stamped with an epoch this run never published", unknown)
	}
}

// count adds a phase's requests to the run's attempted/failed totals.
func (r *run) count(st phaseStats) {
	r.attempted += st.Sent
	r.failed += st.Failed
}

func (r *run) picker(sp *serveSpec) ownerPicker {
	if sp.zipf {
		return zipfPicker(r.seed, r.spec.owners, zipfS)
	}
	return uniformPicker(r.spec.owners)
}

// servePass is one measured pass of a serve workload.
type servePass struct {
	nominal phaseStats
	stream  []int32 // owners of the nominal phase, for the index replay
	// saturated is the median over the rounds of the owners resolved per
	// second with every sender sending its next request as soon as the
	// previous answer arrives.
	saturated float64
	// cpuPerOwner is the median over the rounds of the process CPU time,
	// in µs, spent per owner resolved while saturated.
	cpuPerOwner float64
}

// serve runs `cycles` rounds over the run's seconds. Each round plays
// the nominal rate for a quarter of its time and then saturates the
// senders for the rest. Spreading both phases over the whole run lets
// each average over the same host conditions, which on a shared host
// change within seconds.
func (r *run) serve(ctx context.Context, sp *serveSpec, salt int64) servePass {
	var p servePass
	round := r.seconds / cycles
	nominal := round / 4
	window := round - nominal
	var all []sample
	rates := make([]float64, cycles)
	costs := make([]float64, cycles)
	for c := int64(0); c < cycles; c++ {
		seed := (r.seed*1000+salt)*100 + 2*c
		s := newSchedule(seed, sp.rate, nominal, sp.per, r.picker(sp))
		phase := r.rec.open("serve.nominal", 0)
		samples, ans := r.play(ctx, s, "gateway.request", phase, nil)
		r.rec.close(phase)
		r.verify(s, samples, ans)
		all = append(all, samples...)
		p.stream = append(p.stream, s.Owners...)

		// Every request is due at once, so the senders run closed-loop;
		// the plan holds twice the top ladder rate for the window, and
		// stop ends it. Requests in flight at the stop are not counted.
		s = burst(seed+1, int(2*sp.ladder[len(sp.ladder)-1]*window.Seconds()), sp.per, r.picker(sp))
		stop := make(chan struct{})
		timer := time.AfterFunc(window, func() { close(stop) })
		phase = r.rec.open("serve.saturated", 0)
		cpu0 := cpuTime()
		samples, ans = r.play(ctx, s, "gateway.request", phase, stop)
		cpu := cpuTime() - cpu0
		r.rec.close(phase)
		timer.Stop()
		r.verify(s, samples, ans)
		st := summarize(samples)
		r.count(st)
		if st.Sent == s.Len() {
			r.problem("saturation plan of %d requests ran out before the window ended", s.Len())
		}
		done := 0
		for _, sm := range samples {
			if sm.Sent && sm.OK && sm.Lat < window {
				done++
			}
		}
		rates[c] = float64(done*sp.per) / window.Seconds()
		costs[c] = float64(cpu.Microseconds()) / float64((st.Sent-st.Failed)*sp.per)
		r.logf("round %d: %.0f owners/s, %.1f µs CPU per owner", c, rates[c], costs[c])
	}
	p.nominal = summarize(all)
	r.count(p.nominal)
	p.saturated = median(rates)
	p.cpuPerOwner = median(costs)
	return p
}

// ladder climbs the capacity ladder: the highest rate at which the p99
// latency stays within the limit with no growing backlog and no failures,
// in owners per second (0 when even the lowest rung fails), and the
// requests shed at the highest rung probed.
func (r *run) ladder(ctx context.Context, sp *serveSpec, salt int64) (owners, topShed float64) {
	probes := int(math.Ceil(math.Log2(float64(len(sp.ladder) + 1))))
	probeDur := r.seconds / time.Duration(probes)
	top := -1
	rung := climb(len(sp.ladder), func(i int) bool {
		rate := sp.ladder[i]
		dur := probeDur
		// A p99 needs 100·minBeyond samples; plan 20% more so that a
		// Poisson shortfall does not void the probe.
		if need := time.Duration(1.2 * 100 * minBeyond / rate * float64(time.Second)); need > dur {
			dur = need
		}
		s := newSchedule(r.seed*1000+salt+int64(i)+1, rate, dur, sp.per, r.picker(sp))
		shed0 := snapshot(nil, r.fleet.greg)
		step := r.rec.open("serve.ladder", 0)
		samples, ans := r.play(ctx, s, "gateway.request", step, nil)
		r.rec.close(step)
		r.verify(s, samples, ans)
		st := summarize(samples)
		r.count(st)
		r.logf("ladder rung %d: %.0f req/s for %v: sent %d, failed %d, p50 %.3f ms, p99 %.3f ms, tail lateness %.3f ms, pass %v",
			i, rate, dur, st.Sent, st.Failed, st.P50, st.P99, st.TailLateP50, st.meets(sp.limitMS))
		if i > top {
			top = i
			topShed = delta(shed0, snapshot(nil, r.fleet.greg), "eppi_gateway_shed_total")
		}
		return st.meets(sp.limitMS)
	})
	if rung < 0 {
		return 0, topShed
	}
	return sp.ladder[rung] * float64(sp.per), topShed
}

// rebuilt is one measured rebuild.
type rebuilt struct {
	built
	wall, converge time.Duration
	cpu            time.Duration // process CPU time
	steps          []nodeStep
	root           int32
	mirrored       int64 // bytes of the new epoch summed over the node stores
}

// rebuildOnce adds fresh memberships to the truth matrix and re-publishes:
// construct → audit → publish → every node syncs, loads and swaps. Its
// wall time runs from construction start until the last node serves the
// new epoch.
func (r *run) rebuildOnce(ctx context.Context, k int64) (rebuilt, error) {
	d := &workload.Dataset{
		Matrix: addMemberships(r.data.Matrix, freshFrac, r.seed*7919+k),
		Names:  r.data.Names, Eps: r.data.Eps,
	}
	var out rebuilt
	start, cpu0 := time.Now(), cpuTime()
	out.root = r.rec.open("rebuild", 0)
	b, err := buildEpoch(ctx, r.rec, out.root, r.fleet.pub, d, coreConfig(r.seed+k, r.spec.secure))
	if err != nil {
		return out, err
	}
	flip := time.Now()
	conv := r.rec.open("rebuild.converge", out.root)
	out.steps, err = r.fleet.swapAll(ctx, r.rec, conv)
	end, cpu := time.Now(), cpuTime()-cpu0
	r.rec.close(conv)
	r.rec.close(out.root)
	if err != nil {
		return out, err
	}
	out.built, out.wall, out.converge, out.cpu = b, end.Sub(start), end.Sub(flip), cpu
	r.data, r.last = d, b
	if out.mirrored, err = r.mirroredBytes(b.epoch); err != nil {
		return out, err
	}
	return out, r.admit(d, b)
}

// rebuildPass is one measured pass of a rebuild workload.
type rebuildPass struct {
	runs []rebuilt
}

// medianWall is the median rebuild wall time of the pass.
func (p rebuildPass) medianWall() time.Duration {
	walls := make([]time.Duration, len(p.runs))
	for i, rb := range p.runs {
		walls[i] = rb.wall
	}
	sort.Slice(walls, func(i, j int) bool { return walls[i] < walls[j] })
	return walls[len(walls)/2]
}

// medianCPU is the median process CPU time of the pass's rebuilds.
func (p rebuildPass) medianCPU() time.Duration {
	cpus := make([]time.Duration, len(p.runs))
	for i, rb := range p.runs {
		cpus[i] = rb.cpu
	}
	sort.Slice(cpus, func(i, j int) bool { return cpus[i] < cpus[j] })
	return cpus[len(cpus)/2]
}

// rebuildLoop rebuilds max(1, seconds/perRebuild) times.
func (r *run) rebuildLoop(ctx context.Context, salt int64) (rebuildPass, error) {
	var p rebuildPass
	count := max(1, int64(r.seconds/r.spec.perRebuild))
	for k := int64(0); k < count; k++ {
		r.attempted++
		rb, err := r.rebuildOnce(ctx, salt*100+k+1)
		if err != nil {
			return p, fmt.Errorf("rebuild: %w", err)
		}
		r.logf("rebuild %d: wall %v, CPU %v", k, rb.wall.Round(time.Millisecond), rb.cpu.Round(time.Millisecond))
		p.runs = append(p.runs, rb)
	}
	return p, nil
}

// replayIndex replays an owner stream straight into the loaded shard
// servers: per-lookup time of index.Server.QueryCtx, per-owner time of
// QueryBatch on 64-owner batches split by shard, and the mean fan-out.
func (r *run) replayIndex(ctx context.Context, stream []int32) (queryUS, batchUS, fanout float64) {
	if len(stream) > replayCap {
		stream = stream[:replayCap]
	}
	if len(stream) == 0 {
		return 0, 0, 0
	}
	names := make([]string, len(stream))
	for i, o := range stream {
		names[i] = r.data.Names[o]
	}
	total := 0
	start := time.Now()
	for _, name := range names {
		srv := r.fleet.nodes[shard.For(name, shardCount)].shard.Load()
		ps, err := srv.QueryCtx(ctx, name)
		if err != nil {
			r.problem("index replay: %v", err)
			return 0, 0, 0
		}
		total += len(ps)
	}
	queryUS = float64(time.Since(start).Nanoseconds()) / 1e3 / float64(len(names))
	fanout = float64(total) / float64(len(names))

	start = time.Now()
	for lo := 0; lo < len(names); lo += 64 {
		for k, group := range shard.Group(names[lo:min(lo+64, len(names))], shardCount) {
			if len(group) > 0 {
				r.fleet.nodes[k].shard.Load().QueryBatch(ctx, group)
			}
		}
	}
	batchUS = float64(time.Since(start).Nanoseconds()) / 1e3 / float64(len(names))
	return queryUS, batchUS, fanout
}

// warm sends one second of nominal traffic so the gateway cache, the
// connections and the runtime reach steady state before timing.
func (r *run) warm(ctx context.Context, sp *serveSpec) {
	s := newSchedule(r.seed*1000+999, sp.rate, time.Second, sp.per, r.picker(sp))
	samples, ans := r.play(ctx, s, "gateway.warmup", 0, nil)
	r.verify(s, samples, ans)
	r.count(summarize(samples))
}
