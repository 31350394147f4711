package main

import (
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/privacy"
	"repro/internal/workload"
)

// build constructs and audits d the way every workload does.
func build(t *testing.T, d *workload.Dataset) built {
	t.Helper()
	cfg := coreConfig(1, false)
	res, err := core.Construct(d.Matrix, d.Eps, cfg)
	if err != nil {
		t.Fatal(err)
	}
	rep, _, err := privacy.Compute(privacy.Input{
		Truth: d.Matrix, Published: res.Published, Names: d.Names, Eps: d.Eps,
		Thresholds: res.Thresholds, Hidden: res.Hidden,
		Policy: cfg.Policy.String(), Gamma: cfg.Gamma, Lambda: res.Lambda, Xi: res.Xi,
	})
	if err != nil {
		t.Fatal(err)
	}
	return built{res: res, rep: rep, epoch: 1}
}

// With ε drawn from [0, 1] (the eppi-construct default) the mixing turns
// the index into a broadcast; the benchmark's ε range keeps it a locator.
func TestValidityGuard(t *testing.T) {
	broadcast, err := workload.GenerateZipf(workload.ZipfConfig{Providers: providers, Owners: 2000, Exponent: zipfS, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	r := newRun(spec{name: "test"}, 1, time.Second, false, t.TempDir())
	if err := r.admit(broadcast, build(t, broadcast)); err == nil {
		t.Fatal("a broadcast index was admitted")
	}

	d, err := genData(1, 2000)
	if err != nil {
		t.Fatal(err)
	}
	b := build(t, d)
	if err := r.admit(d, b); err != nil {
		t.Fatal(err)
	}
	if len(r.problems) > 0 {
		t.Fatalf("checks failed on a correct epoch: %v", r.problems)
	}
	if got := float64(b.res.Published.Count()) / float64(providers*2000); got > 0.5 {
		t.Fatalf("mean fan-out is %.2f of m", got)
	}
	if r.expect[1] == nil {
		t.Fatal("admitted epoch has no expected answers")
	}
}

func TestVerifyFailsWrongAndUnknownEpochAnswers(t *testing.T) {
	r := newRun(spec{name: "test"}, 1, time.Second, false, t.TempDir())
	r.expect[1] = []uint64{10, 20, 30}
	s := schedule{At: make([]time.Duration, 3), Owners: []int32{0, 1, 2}, Per: 1}
	ok := []sample{{Sent: true, OK: true}, {Sent: true, OK: true}, {Sent: true, OK: true}}

	r.verify(s, ok, answers{epochs: []uint64{1, 1, 1}, digests: []uint64{10, 20, 30}})
	if len(r.problems) != 0 {
		t.Fatalf("right answers flagged: %v", r.problems)
	}
	// A failed request is counted as failed, never checked as an answer.
	failed := append([]sample(nil), ok...)
	failed[1].OK = false
	r.verify(s, failed, answers{epochs: []uint64{1, 0, 1}, digests: []uint64{10, 0, 30}})
	if len(r.problems) != 0 {
		t.Fatalf("failed request checked as an answer: %v", r.problems)
	}
	r.verify(s, ok, answers{epochs: []uint64{1, 1, 1}, digests: []uint64{10, 21, 30}})
	if len(r.problems) != 1 {
		t.Fatalf("wrong answer: problems %v", r.problems)
	}
	r.verify(s, ok, answers{epochs: []uint64{1, 7, 1}, digests: []uint64{10, 20, 30}})
	if len(r.problems) != 2 {
		t.Fatalf("unknown epoch: problems %v", r.problems)
	}
}
