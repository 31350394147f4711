package main

import (
	"context"
	"math"
	"reflect"
	"testing"
	"time"
)

func TestScheduleIsAFunctionOfTheSeed(t *testing.T) {
	for _, pick := range []ownerPicker{zipfPicker(7, 1000, 1.1), uniformPicker(1000)} {
		a := newSchedule(42, 2000, time.Second, 4, pick)
		b := newSchedule(42, 2000, time.Second, 4, pick)
		if !reflect.DeepEqual(a, b) {
			t.Fatal("same seed gave different schedules")
		}
		c := newSchedule(43, 2000, time.Second, 4, pick)
		if reflect.DeepEqual(a.At, c.At) || reflect.DeepEqual(a.Owners, c.Owners) {
			t.Fatal("different seeds gave the same schedule")
		}
		if n := a.Len(); n < 1800 || n > 2200 {
			t.Fatalf("2000/s for 1s planned %d requests", n)
		}
		if len(a.Owners) != 4*a.Len() {
			t.Fatalf("%d owners for %d requests of 4", len(a.Owners), a.Len())
		}
		for i := 1; i < a.Len(); i++ {
			if a.At[i] < a.At[i-1] || a.At[i] >= time.Second {
				t.Fatalf("arrival %d at %v out of order or past the phase", i, a.At[i])
			}
		}
	}
}

func TestZipfPickerIsSkewed(t *testing.T) {
	s := newSchedule(1, 20000, time.Second, 1, zipfPicker(1, 100000, 1.1))
	counts := map[int32]int{}
	for _, o := range s.Owners {
		counts[o]++
	}
	top := 0
	for _, c := range counts {
		top = max(top, c)
	}
	if len(counts) > s.Len()/2 || top < s.Len()/50 {
		t.Fatalf("%d distinct owners in %d draws, hottest %d: not Zipf-skewed", len(counts), s.Len(), top)
	}
}

func TestPercentileNeedsTenSamplesBeyond(t *testing.T) {
	sorted := func(n int) []float64 {
		out := make([]float64, n)
		for i := range out {
			out[i] = float64(i + 1)
		}
		return out
	}
	cases := []struct {
		n    int
		p    float64
		ok   bool
		want float64
	}{
		{999, 0.99, false, 0},
		{1000, 0.99, true, 990},
		{19, 0.5, false, 0},
		{20, 0.5, true, 10},
		{0, 0.5, false, 0},
	}
	for _, c := range cases {
		got, ok := percentile(sorted(c.n), c.p)
		if ok != c.ok || got != c.want {
			t.Errorf("percentile(%d samples, %v) = %v, %v; want %v, %v", c.n, c.p, got, ok, c.want, c.ok)
		}
	}
}

// A stall of the fleet must show in the latency of every request planned
// behind it, measured from the intended send time, and in the
// generator's lateness.
func TestOpenLoopChargesStallsToQueuedRequests(t *testing.T) {
	const gap, stall = 2 * time.Millisecond, 60 * time.Millisecond
	s := schedule{Per: 1}
	for i := 0; i < 20; i++ {
		s.At = append(s.At, time.Duration(i)*gap)
		s.Owners = append(s.Owners, int32(i))
	}
	samples := runOpenLoop(context.Background(), s, 1, nil, func(_ context.Context, _, i int) bool {
		if i == 0 {
			time.Sleep(stall)
		}
		return true
	})
	for i, sm := range samples {
		if !sm.Sent || !sm.OK {
			t.Fatalf("request %d not sent", i)
		}
		// Request i was due at i·gap but could go out only after the
		// stall ended, so it waited about stall − i·gap.
		if want := stall - time.Duration(i)*gap - time.Millisecond; sm.Lat < want {
			t.Errorf("request %d: latency %v, want at least %v", i, sm.Lat, want)
		}
	}
	st := summarize(samples)
	if st.Sent != 20 || st.Failed != 0 {
		t.Fatalf("sent %d failed %d", st.Sent, st.Failed)
	}
	// The last tenth (requests 18 and 19) went out about stall − 19·gap late.
	if min := ms(stall - 20*gap); st.TailLateP50 < min {
		t.Errorf("tail lateness %.2f ms: the backlog behind the stall went unseen", st.TailLateP50)
	}
}

func TestOpenLoopStopEndsThePhase(t *testing.T) {
	s := newSchedule(1, 100, time.Minute, 1, uniformPicker(10))
	stop := make(chan struct{})
	time.AfterFunc(50*time.Millisecond, func() { close(stop) })
	start := time.Now()
	samples := runOpenLoop(context.Background(), s, 2, stop, func(context.Context, int, int) bool { return true })
	if d := time.Since(start); d > 5*time.Second {
		t.Fatalf("stop took %v to end the phase", d)
	}
	if st := summarize(samples); st.Sent == 0 || st.Sent >= s.Len() {
		t.Fatalf("sent %d of %d", st.Sent, s.Len())
	}
}

func TestFailedRequestsMissEveryLimit(t *testing.T) {
	samples := make([]sample, 2000)
	for i := range samples {
		samples[i] = sample{Lat: time.Millisecond, Sent: true, OK: i >= 30}
	}
	st := summarize(samples)
	if st.Failed != 30 || !math.IsInf(st.P99, 1) || st.meets(1e9) {
		t.Fatalf("30 failures of 2000: failed %d, p99 %v, meets %v", st.Failed, st.P99, st.meets(1e9))
	}
}

func TestClimbStopsAtTheHighestPassingRung(t *testing.T) {
	for n := 1; n <= 33; n++ {
		bound := int(math.Ceil(math.Log2(float64(n + 1))))
		for capacity := 0; capacity <= n; capacity++ {
			probes := 0
			got := climb(n, func(i int) bool {
				probes++
				return i < capacity
			})
			if got != capacity-1 {
				t.Fatalf("n=%d capacity=%d: climb = %d, want %d", n, capacity, got, capacity-1)
			}
			if probes > bound {
				t.Fatalf("n=%d: %d probes, want at most %d", n, probes, bound)
			}
		}
	}
}

func TestMeetsChecksLimitSamplesAndBacklog(t *testing.T) {
	ok := phaseStats{HasP99: true, P99: 4, TailLateP50: 0.1}
	if !ok.meets(5) {
		t.Fatal("a step within the limit failed")
	}
	for name, st := range map[string]phaseStats{
		"p99 over limit": {HasP99: true, P99: 6},
		"too few":        {HasP99: false, P99: 1},
		"failures":       {HasP99: true, P99: 1, Failed: 1},
		"backlog":        {HasP99: true, P99: 4, TailLateP50: 7},
	} {
		if st.meets(5) {
			t.Errorf("%s: step passed", name)
		}
	}
}
