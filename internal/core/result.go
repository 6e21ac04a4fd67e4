// Package core implements the paper's primary contribution: the adaptive
// cross-layer runtime for coupled simulation + analysis workflows. It wires
// the Monitor (internal/monitor), the Adaptation Engine (this package) and
// the adaptation policies (internal/policy) around a real AMR simulation
// (internal/solver) coupled to a real visualization service (internal/viz)
// over the staging substrate (internal/staging), with execution costs
// scaled to leadership machines by internal/sysmodel.
//
// A Workflow advances the simulation step by step. After each step the
// Monitor samples the operational state; the Engine runs the enabled
// adaptation mechanisms in the root–leaf order of the configured objective;
// the decisions are then executed for real — data is reduced, shipped into
// the staging space or analyzed in place — while the virtual clock books
// the modeled costs on the simulation and staging timelines (Eqs. 4–6).
package core

import (
	"crosslayer/internal/journal"
	"crosslayer/internal/policy"
)

// StepRecord is one workflow step's record. The struct is declared once, in
// internal/journal (which this package imports and which journals it
// verbatim in every checkpoint).
type StepRecord = journal.StepRecord

// Result aggregates a workflow run.
type Result struct {
	Steps []StepRecord

	SimSecondsTotal float64 // Σ per-step simulation time (end-to-end simulation time)
	EndToEnd        float64 // max of the two timelines at completion (Eq. 6)
	OverheadSeconds float64 // EndToEnd − SimSecondsTotal (Fig. 7's "end-to-end overhead")

	BytesMovedTotal    int64   // Fig. 8 / Fig. 11
	StagingUtilization float64 // Eq. 12 (Fig. 9's efficiency number)

	// EnergyJoules is the modeled energy of the run: simulation cores held
	// for the full end-to-end span plus the staging pool's allocated
	// core-seconds (extension: the paper's future-work power management).
	EnergyJoules float64

	InSituSteps    int
	InTransitSteps int
}

// CoreUsageHistogram bins each step's staging-pool size as a fraction of
// the pre-allocated maximum — Table 2's four columns: 100%, 75%, 50%, and
// under 50% of the pre-allocated in-transit cores.
func (r *Result) CoreUsageHistogram(preallocated int) (full, threeQ, half, less int) {
	for _, s := range r.Steps {
		if s.Placement != policy.PlaceInTransit {
			continue
		}
		frac := float64(s.StagingCores) / float64(preallocated)
		switch {
		case frac >= 0.999:
			full++
		case frac >= 0.75:
			threeQ++
		case frac >= 0.50:
			half++
		default:
			less++
		}
	}
	return full, threeQ, half, less
}
