package trace

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strings"

	"crosslayer/internal/core"
	"crosslayer/internal/obs"
	"crosslayer/internal/policy"
)

// PlacementStats aggregates the steps that ran under one placement.
type PlacementStats struct {
	Steps           int     `json:"steps"`
	SimSeconds      float64 `json:"sim_seconds"`
	AnalysisSeconds float64 `json:"analysis_seconds"`
	TransferSeconds float64 `json:"transfer_seconds"`
	BytesMoved      int64   `json:"bytes_moved"`
}

// RunReport is the offline summary of a step trace: where the time went,
// why placement moved, and how the staging transport behaved.
type RunReport struct {
	Steps       int `json:"steps"`
	HybridSteps int `json:"hybrid_steps,omitempty"`

	ByPlacement map[string]PlacementStats `json:"by_placement"`

	// ReasonCounts counts placement reasons, normalized: dynamic numbers
	// embedded in reason strings are cut so "staging queue 3.2s > budget"
	// and "staging queue 9.9s > budget" aggregate to one key.
	ReasonCounts map[string]int `json:"reason_counts"`

	Retries    int `json:"staging_retries"`
	Reconnects int `json:"staging_reconnects"`
	Degraded   int `json:"degraded_steps"`
	Resizes    int `json:"staging_resizes"`
	Reductions int `json:"reduced_steps"`

	BytesProduced int64 `json:"bytes_produced"`
	BytesAnalyzed int64 `json:"bytes_analyzed"`
	BytesMoved    int64 `json:"bytes_moved"`

	// Step latency percentiles over the end-to-end virtual span of each
	// step (the delta of max(sim clock, staging clock) between records).
	StepP50 float64 `json:"step_p50_seconds"`
	StepP95 float64 `json:"step_p95_seconds"`
	StepP99 float64 `json:"step_p99_seconds"`
	StepMax float64 `json:"step_max_seconds"`

	EndToEnd float64 `json:"end_to_end_seconds"`
}

// normalizeReason collapses a placement reason carrying run-specific
// numbers into a stable aggregation key: the string is cut at the first
// ASCII digit and trimmed.
func normalizeReason(s string) string {
	for i := 0; i < len(s); i++ {
		if s[i] >= '0' && s[i] <= '9' {
			s = s[:i]
			break
		}
	}
	s = strings.TrimRight(s, " :=(")
	if s == "" {
		return "(unspecified)"
	}
	return s
}

// Summarize aggregates a step trace (from a live Result or re-read with
// ReadJSONL/ReadCSV) into a RunReport.
func Summarize(steps []core.StepRecord) RunReport {
	rep := RunReport{
		ByPlacement:  make(map[string]PlacementStats),
		ReasonCounts: make(map[string]int),
	}
	var spans []float64
	prevClock := 0.0
	for _, s := range steps {
		rep.Steps++
		clock := math.Max(s.SimClock, s.StagingClock)
		if clock > 0 { // traces without clocks (hand-built) skip percentiles
			spans = append(spans, clock-prevClock)
			prevClock = clock
		}

		key := s.Placement.String()
		if s.HybridFrac > 0 && s.HybridFrac < 1 {
			key = "hybrid"
			rep.HybridSteps++
		}
		ps := rep.ByPlacement[key]
		ps.Steps++
		ps.SimSeconds += s.SimSeconds
		ps.AnalysisSeconds += s.AnalysisSeconds
		ps.TransferSeconds += s.TransferSeconds
		ps.BytesMoved += s.BytesMoved
		rep.ByPlacement[key] = ps

		if s.PlacementReason != "" {
			rep.ReasonCounts[normalizeReason(s.PlacementReason)]++
		}
		if s.PlacementReason == policy.ReasonStagingFailure {
			rep.Degraded++
		}
		rep.Retries += s.StagingRetries
		rep.Reconnects += s.StagingReconnects
		if s.Factor > 1 {
			rep.Reductions++
		}
		rep.BytesProduced += s.BytesProduced
		rep.BytesAnalyzed += s.BytesAnalyzed
		rep.BytesMoved += s.BytesMoved
	}
	for i := 1; i < len(steps); i++ {
		if steps[i].StagingCores != steps[i-1].StagingCores {
			rep.Resizes++
		}
	}
	if len(spans) > 0 {
		sort.Float64s(spans)
		rep.StepP50 = quantileSorted(spans, 0.50)
		rep.StepP95 = quantileSorted(spans, 0.95)
		rep.StepP99 = quantileSorted(spans, 0.99)
		rep.StepMax = spans[len(spans)-1]
		rep.EndToEnd = prevClock
	}
	return rep
}

// quantileSorted interpolates the q-quantile of an ascending slice.
func quantileSorted(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	pos := q * float64(len(xs)-1)
	lo := int(pos)
	if lo >= len(xs)-1 {
		return xs[len(xs)-1]
	}
	frac := pos - float64(lo)
	return xs[lo] + frac*(xs[lo+1]-xs[lo])
}

// WriteText renders the report for terminals.
func (r RunReport) WriteText(w io.Writer) error {
	p := func(format string, args ...any) {
		fmt.Fprintf(w, format, args...)
	}
	p("steps                 %d\n", r.Steps)
	p("end-to-end (model)    %.3f s\n", r.EndToEnd)
	p("step latency          p50=%.3fs p95=%.3fs p99=%.3fs max=%.3fs\n",
		r.StepP50, r.StepP95, r.StepP99, r.StepMax)
	p("bytes                 produced=%d analyzed=%d moved=%d\n",
		r.BytesProduced, r.BytesAnalyzed, r.BytesMoved)

	p("placements:\n")
	for _, k := range obs.SortedKeys(r.ByPlacement) {
		ps := r.ByPlacement[k]
		p("  %-12s steps=%-4d sim=%.3fs analysis=%.3fs transfer=%.3fs moved=%d\n",
			k, ps.Steps, ps.SimSeconds, ps.AnalysisSeconds, ps.TransferSeconds, ps.BytesMoved)
	}
	if len(r.ReasonCounts) > 0 {
		p("placement reasons:\n")
		for _, k := range obs.SortedKeys(r.ReasonCounts) {
			p("  %4d  %s\n", r.ReasonCounts[k], k)
		}
	}
	p("adaptation            reductions=%d resizes=%d\n", r.Reductions, r.Resizes)
	p("staging transport     retries=%d reconnects=%d degraded_steps=%d\n",
		r.Retries, r.Reconnects, r.Degraded)
	return nil
}
