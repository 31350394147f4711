package main

import (
	"math"
	"sort"
	"strconv"

	"repro/internal/metrics"
)

// regSnap is a point-in-time copy of one or more metrics registries,
// summed per series name across label sets and registries. Layer metrics
// are deltas between two snapshots taken around a measured pass.
type regSnap struct {
	values map[string]float64            // counters and gauges
	counts map[string]uint64             // histogram sample counts
	hists  map[string]map[string]float64 // histogram: le → cumulative count
}

// snapshot sums the series of regs. A histogram is summed only over the
// series whose labels pass keep (nil keeps all).
func snapshot(keep func(name string, labels map[string]string) bool, regs ...*metrics.Registry) regSnap {
	s := regSnap{values: map[string]float64{}, counts: map[string]uint64{}, hists: map[string]map[string]float64{}}
	for _, reg := range regs {
		for _, m := range reg.Snapshot() {
			if keep != nil && !keep(m.Name, m.Labels) {
				continue
			}
			if m.Kind != "histogram" {
				s.values[m.Name] += m.Value
				continue
			}
			s.counts[m.Name] += m.Count
			if s.hists[m.Name] == nil {
				s.hists[m.Name] = map[string]float64{}
			}
			for _, b := range m.Buckets {
				s.hists[m.Name][b.Le] += float64(b.Count)
			}
		}
	}
	return s
}

// delta returns after − before of a counter.
func delta(before, after regSnap, name string) float64 {
	return after.values[name] - before.values[name]
}

// countDelta returns after − before of a histogram's sample count.
func countDelta(before, after regSnap, name string) float64 {
	return float64(after.counts[name] - before.counts[name])
}

// quantileDelta estimates the q-quantile of the samples a histogram took
// between two snapshots, interpolating linearly inside the bucket that
// holds it. Buckets bound its resolution; it returns 0 with no samples.
func quantileDelta(before, after regSnap, name string, q float64) float64 {
	type bucket struct{ le, count float64 }
	var bs []bucket
	for le, c := range after.hists[name] {
		bound := math.Inf(1)
		if le != "+Inf" {
			v, err := strconv.ParseFloat(le, 64)
			if err != nil {
				continue
			}
			bound = v
		}
		bs = append(bs, bucket{bound, c - before.hists[name][le]})
	}
	if len(bs) == 0 {
		return 0
	}
	sort.Slice(bs, func(i, j int) bool { return bs[i].le < bs[j].le })
	total := bs[len(bs)-1].count
	if total <= 0 {
		return 0
	}
	rank := q * total
	prevLe, prevCount := 0.0, 0.0
	for _, b := range bs {
		if b.count >= rank {
			if math.IsInf(b.le, 1) {
				return prevLe
			}
			if b.count == prevCount {
				return b.le
			}
			return prevLe + (b.le-prevLe)*(rank-prevCount)/(b.count-prevCount)
		}
		prevLe, prevCount = b.le, b.count
	}
	return prevLe
}
