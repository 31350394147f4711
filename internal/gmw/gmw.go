// Package gmw implements a semi-honest n-party GMW protocol over boolean
// circuits, the generic-MPC substrate that evaluates the CountBelow and
// Reveal circuits among the c ε-PPI coordinators (standing in for
// FairplayMP).
//
// The evaluator is bit-sliced: one execution runs WideLanes = 64
// independent instances of a circuit (wide.go). Wire values are
// XOR-shared among the parties, one uint64 per wire with bit k belonging
// to instance k. XOR and NOT gates are local; each AND gate consumes one
// Beaver word-triple and the AND gates of equal depth are opened in a
// single batched communication round, so the online round count is
// 2 + AND-depth (input sharing, AND rounds, output reconstruction). A
// computation over a single instance runs with one live lane and
// public-zero padding in the rest.
//
// Triples come from an offline trusted dealer (GenTriplesWide,
// GenTriplesWideSharded) or from pairwise oblivious transfer
// (GenTriplesWideOT). A dealer is the standard MPC preprocessing
// abstraction; the online protocol is information-theoretically secure
// against any proper subset of colluding semi-honest parties given
// correct triples. The paper's FairplayMP plays the same role with
// garbled gates; the online communication structure — the thing the
// Figure 6 experiments measure — is preserved.
package gmw

import (
	"errors"

	"repro/internal/circuit"
	"repro/internal/metrics"
)

var (
	// ErrInputShape reports per-party inputs inconsistent with the circuit.
	ErrInputShape = errors.New("gmw: inputs do not match circuit input wires")
	// ErrTripleShape reports a triple set inconsistent with the circuit.
	ErrTripleShape = errors.New("gmw: triples do not match circuit AND gates")
	// ErrProtocol reports a malformed message from a peer.
	ErrProtocol = errors.New("gmw: protocol violation")
)

// timers groups the per-phase instruments of one run. All-nil (no registry
// on the network) no-ops.
type timers struct {
	runs      *metrics.Counter
	rounds    *metrics.Counter
	andLayers *metrics.Counter
	triples   *metrics.Counter
	inputs    *metrics.Histogram
	andRounds *metrics.Histogram
	outputs   *metrics.Histogram
}

func newTimers(reg *metrics.Registry) *timers {
	const name = "eppi_gmw_phase_seconds"
	const help = "Per-party wall time of each GMW protocol phase."
	return &timers{
		runs:      reg.Counter("eppi_gmw_runs_total", "GMW protocol executions."),
		rounds:    reg.Counter("eppi_gmw_rounds_total", "Sequential communication rounds across all GMW runs."),
		andLayers: reg.Counter("eppi_gmw_and_rounds_total", "Batched AND-opening rounds across all GMW runs (non-empty AND layers)."),
		triples:   reg.Counter("eppi_gmw_triples_used_total", "Beaver word-triples consumed across all GMW runs: one per AND gate per run, however many of its 64 lanes are live."),
		inputs:    reg.Histogram(name, help, metrics.DefDurationBuckets, metrics.L("phase", "input_share")),
		andRounds: reg.Histogram(name, help, metrics.DefDurationBuckets, metrics.L("phase", "and_rounds")),
		outputs:   reg.Histogram(name, help, metrics.DefDurationBuckets, metrics.L("phase", "output")),
	}
}

// countAndLayers returns the number of non-empty AND layers (the batched
// opening rounds a run actually performs).
func countAndLayers(circ *circuit.Circuit) int {
	layers := 0
	for _, batch := range circ.AndRounds() {
		if len(batch) > 0 {
			layers++
		}
	}
	return layers
}
