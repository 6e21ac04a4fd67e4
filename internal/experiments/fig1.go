package experiments

import (
	"fmt"
	"io"

	"crosslayer/internal/core"
)

// Fig1Step is one time step of the peak-memory profile.
type Fig1Step struct {
	Step   int
	MinMB  float64 // least loaded rank
	MeanMB float64
	MaxMB  float64 // peak rank (the paper's headline series)
}

// Fig1Result reproduces Fig. 1: the distribution of peak memory consumption
// for the AMR Polytropic Gas simulation across ranks and time steps. The
// paper's observations to match: memory grows over time, the pace is
// erratic (refinement bursts), and usage is strongly imbalanced across
// ranks.
type Fig1Result struct {
	Steps []Fig1Step

	// Derived shape metrics.
	GrowthRatio    float64 // final peak / initial peak
	MaxImbalance   float64 // max over steps of (max rank / mean rank)
	BurstSteps     int     // steps where peak memory jumped > 10% at once
	TargetPeakMB   float64 // calibration target for the peak rank
	RanksSimulated int
}

// Fig1PeakMemory runs the Polytropic Gas profile for `steps` steps on
// `ranks` virtual ranks and returns the per-step per-rank memory
// distribution, linearly calibrated so the global peak matches
// targetPeakMB (the paper's profile peaks at several hundred MB per
// process; pass 0 for the default 380 MB).
func Fig1PeakMemory(steps, ranks int, targetPeakMB float64) *Fig1Result {
	if steps <= 0 {
		steps = 50
	}
	if ranks <= 0 {
		ranks = 32
	}
	if targetPeakMB <= 0 {
		targetPeakMB = 380
	}
	sim := newGasSim(ranks, steps/3) // secondary blast keeps growth erratic

	raw := make([][]int64, 0, steps)
	for i := 0; i < steps; i++ {
		sim.Step()
		raw = append(raw, sim.Hierarchy().BytesPerRank())
	}

	// Post-hoc linear calibration: scale so the global peak hits target.
	var peak int64
	for _, perRank := range raw {
		for _, b := range perRank {
			if b > peak {
				peak = b
			}
		}
	}
	scale := targetPeakMB * (1 << 20) / (float64(peak) * core.MemOverhead)

	res := &Fig1Result{TargetPeakMB: targetPeakMB, RanksSimulated: ranks}
	prevPeak := 0.0
	for i, perRank := range raw {
		var min, max, sum int64
		min = perRank[0]
		for _, b := range perRank {
			if b < min {
				min = b
			}
			if b > max {
				max = b
			}
			sum += b
		}
		toMB := func(v int64) float64 { return float64(v) * core.MemOverhead * scale / (1 << 20) }
		st := Fig1Step{
			Step:   i,
			MinMB:  toMB(min),
			MeanMB: toMB(sum / int64(len(perRank))),
			MaxMB:  toMB(max),
		}
		res.Steps = append(res.Steps, st)
		if st.MeanMB > 0 && st.MaxMB/st.MeanMB > res.MaxImbalance {
			res.MaxImbalance = st.MaxMB / st.MeanMB
		}
		if prevPeak > 0 && st.MaxMB > prevPeak*1.10 {
			res.BurstSteps++
		}
		prevPeak = st.MaxMB
	}
	if first := res.Steps[0].MaxMB; first > 0 {
		res.GrowthRatio = res.Steps[len(res.Steps)-1].MaxMB / first
	}
	return res
}

// Print renders the figure's series as a table plus the shape summary.
func (r *Fig1Result) Print(w io.Writer) {
	fmt.Fprintf(w, "Fig 1 — peak memory distribution, AMR Polytropic Gas (%d ranks, calibrated to %.0f MB peak)\n",
		r.RanksSimulated, r.TargetPeakMB)
	rows := make([][]string, 0, len(r.Steps))
	for _, s := range r.Steps {
		rows = append(rows, []string{
			fmt.Sprint(s.Step),
			fmt.Sprintf("%.1f", s.MinMB),
			fmt.Sprintf("%.1f", s.MeanMB),
			fmt.Sprintf("%.1f", s.MaxMB),
		})
	}
	writeTable(w, []string{"step", "min MB", "mean MB", "peak MB"}, rows)
	fmt.Fprintf(w, "growth ratio (peak final/initial): %.2fx\n", r.GrowthRatio)
	fmt.Fprintf(w, "max cross-rank imbalance (peak/mean): %.2fx\n", r.MaxImbalance)
	fmt.Fprintf(w, "bursty steps (>10%% one-step peak growth): %d\n", r.BurstSteps)
}
