package experiments

import (
	"fmt"
	"io"

	"crosslayer/internal/core"
	"crosslayer/internal/policy"
	"crosslayer/internal/reduce"
	"crosslayer/internal/sysmodel"
)

// Fig5Step is one time step of the application-layer adaptation experiment.
type Fig5Step struct {
	Step       int
	Factor     int     // adaptive down-sampling factor chosen (Eqs. 1–3)
	AvailMB    float64 // real-time memory availability (per core)
	AdaptiveMB float64 // consumption at the adaptive resolution
	MaxResMB   float64 // consumption had the MAX resolution (smallest factor) been used
	MinResMB   float64 // consumption had the MIN resolution (largest factor) been used
}

// Fig5Result reproduces Fig. 5: user-defined range-based down-sampling on
// the memory-constrained Intrepid model. Shape to match: while memory is
// plentiful the mechanism selects the minimum hinted factor (highest
// resolution); as availability shrinks the factor rises; near the end the
// resolution reaches the hinted minimum.
type Fig5Result struct {
	Steps         []Fig5Step
	FirstIncrease int // step at which the factor first rose (paper: ~31 of 40)
	FinalFactor   int
	MaxFactor     int // most aggressive factor the run was forced to
	MinFactorUsed int
	ScaleUsed     float64
}

// Fig5AppAdaptation runs the experiment for `steps` steps (default 40, as
// in the paper) and returns the four series of Fig. 5.
func Fig5AppAdaptation(steps int) *Fig5Result {
	if steps <= 0 {
		steps = 40
	}
	const ranks = 16
	machine := sysmodel.Intrepid()
	hints := paperHints(steps)

	// Probe run: measure the raw memory trajectory so the cost-model scale
	// can be calibrated to make the memory constraint bind near the end of
	// the run (the real Intrepid runs are memory-bound by Chombo's own
	// footprint; our laptop-scale kernels need the linear calibration —
	// see EXPERIMENTS.md).
	probe := newGasSim(ranks, steps/3)
	var rawMaxBytes, rawMaxCells int64
	for i := 0; i < steps; i++ {
		probe.Step()
		for r, b := range probe.Hierarchy().BytesPerRank() {
			if b > rawMaxBytes {
				rawMaxBytes = b
			}
			if c := probe.Hierarchy().CellsPerRank()[r]; c*8 > rawMaxCells {
				rawMaxCells = c * 8
			}
		}
	}
	cap := float64(machine.MemPerCore())
	a := float64(rawMaxBytes) * core.MemOverhead // used bytes per scale unit
	b := float64(rawMaxCells)                    // analysis bytes per scale unit
	minFactor := 2.0
	// Choose scale so that at the peak, the minimum-factor footprint
	// exceeds availability by 50% — the constraint must bind late in the
	// run: b·s/minF³ = 1.5·(cap − a·s).
	scale := 1.5 * cap / (b/(minFactor*minFactor*minFactor) + 1.5*a)

	cfg := core.Config{
		Machine:         machine,
		SimCores:        ranks, // rank-granular mapping: one core per rank
		StagingCores:    ranks,
		Objective:       policy.MinTimeToSolution,
		Enable:          core.Adaptations{Application: true},
		Hints:           hints,
		StaticPlacement: policy.PlaceInSitu,
		CellScale:       scale,
	}
	res := runWorkflow(cfg, newGasSim(ranks, steps/3), steps)

	out := &Fig5Result{ScaleUsed: scale, FirstIncrease: -1, MinFactorUsed: 1 << 30}
	for _, s := range res.Steps {
		factors := hints.FactorsAt(s.Step)
		minF, maxF := factors[0], factors[0]
		for _, f := range factors {
			if f < minF {
				minF = f
			}
			if f > maxF {
				maxF = f
			}
		}
		d := s.MaxRankDataBytes
		st := Fig5Step{
			Step:       s.Step,
			Factor:     s.Factor,
			AvailMB:    mb(s.MinMemAvail),
			AdaptiveMB: mb(reduce.ReducedBytes(d, s.Factor)),
			MaxResMB:   mb(reduce.ReducedBytes(d, minF)),
			MinResMB:   mb(reduce.ReducedBytes(d, maxF)),
		}
		out.Steps = append(out.Steps, st)
		if s.Factor < out.MinFactorUsed {
			out.MinFactorUsed = s.Factor
		}
		if out.FirstIncrease < 0 && s.Factor > out.MinFactorUsed {
			out.FirstIncrease = s.Step
		}
		if s.Factor > out.MaxFactor {
			out.MaxFactor = s.Factor
		}
		out.FinalFactor = s.Factor
	}
	return out
}

// Print renders the Fig. 5 series.
func (r *Fig5Result) Print(w io.Writer) {
	fmt.Fprintf(w, "Fig 5 — application-layer adaptive down-sampling (Intrepid model, scale %.1f)\n", r.ScaleUsed)
	rows := make([][]string, 0, len(r.Steps))
	for _, s := range r.Steps {
		rows = append(rows, []string{
			fmt.Sprint(s.Step),
			fmt.Sprint(s.Factor),
			fmt.Sprintf("%.1f", s.AvailMB),
			fmt.Sprintf("%.1f", s.AdaptiveMB),
			fmt.Sprintf("%.1f", s.MaxResMB),
			fmt.Sprintf("%.1f", s.MinResMB),
		})
	}
	writeTable(w, []string{"step", "factor", "avail MB", "adaptive MB", "maxres MB", "minres MB"}, rows)
	fmt.Fprintf(w, "factor first increased at step %d; max factor %d; final factor %d\n",
		r.FirstIncrease, r.MaxFactor, r.FinalFactor)
}
