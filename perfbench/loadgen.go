package main

import (
	"context"
	"math"
	"math/rand"
	"sort"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// schedule is an open-loop arrival plan: request i is due At[i] after the
// phase starts and asks for owners Owners[i*Per : (i+1)*Per]. Arrivals are
// Poisson (exponential gaps), so the plan is fixed before the first
// request is sent and does not bend to how fast the fleet answers.
type schedule struct {
	At     []time.Duration
	Owners []int32
	Per    int
}

// Len is the number of requests in the plan.
func (s schedule) Len() int { return len(s.At) }

// Batch returns the owners of request i.
func (s schedule) Batch(i int) []int32 { return s.Owners[i*s.Per : (i+1)*s.Per] }

// ownerPicker binds an owner distribution to a schedule's random source
// and returns the function that draws one owner index.
type ownerPicker func(rng *rand.Rand) func() int

// zipfPicker draws owners with Zipf-skewed popularity (exponent s > 1)
// over n owners. Popularity ranks are assigned through a seeded
// permutation, so the popular owners are not simply the first columns
// (which the data generator makes the most frequent ones).
func zipfPicker(seed int64, n int, s float64) ownerPicker {
	perm := rand.New(rand.NewSource(seed)).Perm(n)
	return func(rng *rand.Rand) func() int {
		z := rand.NewZipf(rng, s, 1, uint64(n-1))
		return func() int { return perm[z.Uint64()] }
	}
}

// uniformPicker draws owners uniformly from n.
func uniformPicker(n int) ownerPicker {
	return func(rng *rand.Rand) func() int {
		return func() int { return rng.Intn(n) }
	}
}

// newSchedule plans Poisson arrivals at rate requests/s for dur, each
// request naming per owners drawn by pick. The same seed gives the same
// plan.
func newSchedule(seed int64, rate float64, dur time.Duration, per int, pick ownerPicker) schedule {
	rng := rand.New(rand.NewSource(seed))
	draw := pick(rng)
	s := schedule{Per: per}
	expect := int(rate*dur.Seconds()) + 1
	s.At = make([]time.Duration, 0, expect)
	s.Owners = make([]int32, 0, expect*per)
	t := 0.0
	for {
		t += rng.ExpFloat64() / rate
		at := time.Duration(t * float64(time.Second))
		if at >= dur {
			break
		}
		s.At = append(s.At, at)
		for k := 0; k < per; k++ {
			s.Owners = append(s.Owners, int32(draw()))
		}
	}
	return s
}

// burst plans n requests all due at once: played open-loop, the senders
// then send back to back, each as soon as its previous answer arrives.
func burst(seed int64, n, per int, pick ownerPicker) schedule {
	draw := pick(rand.New(rand.NewSource(seed)))
	s := schedule{At: make([]time.Duration, n), Owners: make([]int32, n*per), Per: per}
	for i := range s.Owners {
		s.Owners[i] = int32(draw())
	}
	return s
}

// sample is the outcome of one planned request. Latency runs from the
// request's intended send time, so a stalled fleet inflates the latency
// of every request queued behind the stall (no coordinated omission).
type sample struct {
	Lat  time.Duration // completion − intended send
	Late time.Duration // actual send − intended send
	Sent bool
	OK   bool
}

// requester sends planned request i and reports whether it succeeded.
type requester func(ctx context.Context, worker, i int) bool

// runOpenLoop plays s with workers sending goroutines. Each goroutine
// takes the next planned request, sleeps until it is due (never when it
// is already late), sends it and waits for the answer. When stop is
// closed, no further request is started. It returns one sample per
// planned request; requests never started have Sent false.
func runOpenLoop(ctx context.Context, s schedule, workers int, stop <-chan struct{}, do requester) []sample {
	out := make([]sample, s.Len())
	var next atomic.Int64
	start := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= s.Len() {
					return
				}
				due := start.Add(s.At[i])
				if !sleepUntil(ctx, due, stop) {
					return
				}
				sent := time.Now()
				ok := do(ctx, w, i)
				done := time.Now()
				out[i] = sample{Lat: done.Sub(due), Late: sent.Sub(due), Sent: true, OK: ok}
			}
		}(w)
	}
	wg.Wait()
	return out
}

// sleepUntil blocks until due and reports whether to go on (false once
// stop is closed or ctx is done). It sleeps in nanosleep(2) rather than on
// a runtime timer: an idle Go process waits for timers in epoll with
// millisecond resolution, which would make the generator itself run up
// to a millisecond late on every sub-millisecond gap.
func sleepUntil(ctx context.Context, due time.Time, stop <-chan struct{}) bool {
	for {
		select {
		case <-stop:
			return false
		case <-ctx.Done():
			return false
		default:
		}
		d := time.Until(due)
		if d <= 0 {
			return true
		}
		ts := syscall.NsecToTimespec(int64(min(d, 10*time.Millisecond)))
		_ = syscall.Nanosleep(&ts, nil) // EINTR just ends this slice early
	}
}

// minBeyond is how many samples must lie beyond a percentile before it is
// reported: fewer, and the figure is one or two outliers.
const minBeyond = 10

// percentile returns the p-quantile (nearest rank) of sorted and whether
// at least minBeyond samples lie beyond it.
func percentile(sorted []float64, p float64) (float64, bool) {
	n := len(sorted)
	if n == 0 || float64(n)*(1-p) < minBeyond {
		return 0, false
	}
	idx := int(math.Ceil(p*float64(n))) - 1
	if idx < 0 {
		idx = 0
	}
	return sorted[idx], true
}

// phaseStats summarises the samples of one open-loop phase.
type phaseStats struct {
	Sent, Failed int
	P50, P99     float64 // ms from intended send; 0 with too few samples
	HasP99       bool
	LateP99      float64 // ms the generator ran behind its plan
	TailLateP50  float64 // ms, median lateness of the last tenth sent
}

// summarize computes the statistics of the sent samples. A failed request
// counts as missing every latency limit, so it is kept at +Inf in the
// latency distribution.
func summarize(samples []sample) phaseStats {
	var st phaseStats
	lat := make([]float64, 0, len(samples))
	late := make([]float64, 0, len(samples))
	for _, s := range samples {
		if !s.Sent {
			continue
		}
		st.Sent++
		l := ms(s.Lat)
		if !s.OK {
			st.Failed++
			l = math.Inf(1)
		}
		lat = append(lat, l)
		late = append(late, ms(s.Late))
	}
	tail := append([]float64(nil), late[len(late)-len(late)/10:]...)
	sort.Float64s(lat)
	sort.Float64s(late)
	sort.Float64s(tail)
	st.P50, _ = percentile(lat, 0.5)
	st.P99, st.HasP99 = percentile(lat, 0.99)
	st.LateP99, _ = percentile(late, 0.99)
	if len(tail) > 0 {
		st.TailLateP50 = tail[len(tail)/2]
	}
	return st
}

func median(v []float64) float64 {
	v = append([]float64(nil), v...)
	sort.Float64s(v)
	n := len(v)
	if n%2 == 1 {
		return v[n/2]
	}
	return (v[n/2-1] + v[n/2]) / 2
}

// meets reports whether a ladder step passed: enough samples for a p99,
// p99 within the limit, no failures, and no growing backlog — the last
// tenth of the requests went out, at the median, within the limit of
// their due time.
func (st phaseStats) meets(limitMS float64) bool {
	return st.HasP99 && st.P99 <= limitMS && st.Failed == 0 && st.TailLateP50 <= limitMS
}

// climb finds the highest passing rung of a fixed ladder of n ascending
// rates by bisection, assuming a rung passes whenever a higher one does.
// It returns -1 when even the lowest rung fails. Bisection probes
// ⌈log2(n+1)⌉ rungs instead of all of them, which keeps a fine ladder
// affordable within one run.
func climb(n int, pass func(rung int) bool) int {
	lo, hi := -1, n // rung lo passes (or is -1), rung hi fails (or is n)
	for hi-lo > 1 {
		mid := (lo + hi) / 2
		if pass(mid) {
			lo = mid
		} else {
			hi = mid
		}
	}
	return lo
}

// geometricLadder returns n rates from lo growing by factor per rung.
func geometricLadder(lo, factor float64, n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = lo * math.Pow(factor, float64(i))
	}
	return out
}

// cpuTime is the user plus system CPU time the process has used. Time
// the host gave to other tenants (steal) is not in it.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
