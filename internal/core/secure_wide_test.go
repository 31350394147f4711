package core

import (
	"math/rand"
	"testing"
	"time"

	"repro/internal/mathx"
	"repro/internal/metrics"
	"repro/internal/transport"
)

// The common count is an exact sum, so no batch geometry can change it.
// On this dense fixture λ = 1 and every identity is hidden, so no mixing
// coin decides anything and the publication must agree across geometries
// too; TestWideSecureConstructEndToEnd pins geometries where the coins matter.
func TestWideSecureDeterministicAcrossBatchSizes(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	truth := randomMatrix(rng, 9, 70, 0.4)
	eps := make([]float64, 70)
	for j := range eps {
		eps[j] = 0.5
	}
	base := secureCfg(55)
	var ref *Result
	for _, batch := range []int{0, 64, 33} {
		cfg := base
		cfg.BatchSize = batch
		res, err := Construct(truth, eps, cfg)
		if err != nil {
			t.Fatalf("batch=%d: %v", batch, err)
		}
		if ref == nil {
			ref = res
			continue
		}
		if res.CommonCount != ref.CommonCount || !res.Published.Equal(ref.Published) {
			t.Fatalf("batch=%d changes the publication", batch)
		}
	}
}

// The slab-waste gauge must report the padded lanes of both slab passes.
func TestWideSlabWasteGauge(t *testing.T) {
	truth := matrixWithFreqs(6, []int{6, 1, 2})
	eps := []float64{0.4, 0.6, 0.8}
	cfg := secureCfg(31)
	cfg.Policy = mathx.PolicyBasic
	reg := metrics.NewRegistry()
	cfg.Metrics = reg
	if _, err := Construct(truth, eps, cfg); err != nil {
		t.Fatal(err)
	}
	// n=3 → one slab per pass, 61 padded lanes each, two passes.
	if v := reg.Gauge("eppi_gmw_slab_waste_slots", "").Value(); v != 2*61 {
		t.Fatalf("slab waste gauge = %v, want %d", v, 2*61)
	}
}

// TestWideSecureFaultInjection drives the slab pipeline over a faulty
// coordinator network with several concurrent 40-identity batches (ragged
// slabs in each): crash, corruption and total loss must each abort the run
// promptly.
func TestWideSecureFaultInjection(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	truth := randomMatrix(rng, 9, 70, 0.4)
	eps := make([]float64, 70)
	for j := range eps {
		eps[j] = 0.6
	}
	cases := []struct {
		name string
		plan transport.FaultPlan
	}{
		{"crashed coordinator", transport.FaultPlan{FailSendFrom: map[int]bool{1: true}, Seed: 4}},
		{"corrupted payloads", transport.FaultPlan{CorruptRate: 1, Seed: 5}},
		{"dropped messages", transport.FaultPlan{DropRate: 1, RecvTimeout: 250 * time.Millisecond, Seed: 6}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := faultySecureCfg(11, 2, tc.plan)
			cfg.BatchSize = 40
			runConstructGuarded(t, truth, eps, cfg)
		})
	}
}
