package span

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strings"
)

// Tree is a reconstructed span forest: every span indexed by ID, children
// ordered by (start, emission order).
type Tree struct {
	Spans    []Span
	byID     map[string]*Span
	children map[string][]*Span
	roots    []*Span
}

// BuildTree reconstructs the causal tree from a span log. A span whose
// parent is absent from the log is an error — the well-parented invariant
// the chaos explorer checks.
func BuildTree(spans []Span) (*Tree, error) {
	t := &Tree{
		Spans:    spans,
		byID:     make(map[string]*Span, len(spans)),
		children: make(map[string][]*Span),
	}
	for i := range spans {
		s := &spans[i]
		if s.ID == "" {
			return nil, fmt.Errorf("span: span %d (%s) has no ID", i, s.Name)
		}
		if prev, dup := t.byID[s.ID]; dup {
			return nil, fmt.Errorf("span: duplicate ID %s (%s and %s)", s.ID, prev.Name, s.Name)
		}
		t.byID[s.ID] = s
	}
	for i := range spans {
		s := &spans[i]
		if s.Parent == "" {
			t.roots = append(t.roots, s)
			continue
		}
		if _, ok := t.byID[s.Parent]; !ok {
			return nil, fmt.Errorf("span: %s (%s, step %d) references missing parent %s",
				s.ID, s.Name, s.Step, s.Parent)
		}
		t.children[s.Parent] = append(t.children[s.Parent], s)
	}
	for id := range t.children {
		kids := t.children[id]
		sort.SliceStable(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
	}
	return t, nil
}

// Roots returns the parentless spans (one run span per log, normally).
func (t *Tree) Roots() []*Span { return t.roots }

// StepSpans returns the step-level spans (name "step") ordered by step.
func (t *Tree) StepSpans() []*Span {
	var steps []*Span
	for i := range t.Spans {
		if t.Spans[i].Name == "step" {
			steps = append(steps, &t.Spans[i])
		}
	}
	sort.SliceStable(steps, func(i, j int) bool { return steps[i].Step < steps[j].Step })
	return steps
}

// CritSeg is one segment of a step's critical path: the deepest span
// covering that slice of the step's wall time.
type CritSeg struct {
	Name    string
	Layer   string
	Seconds float64
}

// StepBlame is one step's wall-time attribution: the critical path through
// the overlapped pipeline and the per-layer totals it induces. Coverage is
// the attributed fraction of the step's duration (the acceptance bar is
// >= 0.9 on seeded runs).
type StepBlame struct {
	Step     int
	Seconds  float64
	ByLayer  map[string]float64
	Critical []CritSeg
	Coverage float64

	// Wall-clock split of the step's pool operations, present when the log
	// was recorded with wall durations: real queue-wait vs execution
	// nanoseconds summed over per-endpoint RPC spans.
	QueueNs int64
	ExecNs  int64
}

// Analyze attributes each step's wall time to layers. The sweep walks the
// step's descendant spans in time order; every instant is blamed on the
// deepest span covering it (ties to the later-starting span), so a phase
// with finer-grained children is attributed at the finer grain. Zero-width
// spans (policy decisions, pool ops) structure the tree but claim no time.
func (t *Tree) Analyze() []StepBlame {
	var out []StepBlame
	for _, st := range t.StepSpans() {
		out = append(out, t.analyzeStep(st))
	}
	return out
}

// interval is a positive-width descendant span prepared for the sweep.
type interval struct {
	s     *Span
	depth int
}

func (t *Tree) analyzeStep(st *Span) StepBlame {
	b := StepBlame{
		Step:    st.Step,
		Seconds: st.Duration(),
		ByLayer: make(map[string]float64),
	}
	var ivs []interval
	var cuts []float64
	var walk func(s *Span, depth int)
	walk = func(s *Span, depth int) {
		for _, k := range t.children[s.ID] {
			b.QueueNs += k.QueueNs
			b.ExecNs += k.ExecNs
			if k.End > k.Start {
				ivs = append(ivs, interval{s: k, depth: depth + 1})
				cuts = append(cuts, clamp(k.Start, st.Start, st.End), clamp(k.End, st.Start, st.End))
			}
			walk(k, depth+1)
		}
	}
	walk(st, 0)
	if b.Seconds <= 0 {
		b.Coverage = 1
		return b
	}
	cuts = append(cuts, st.Start, st.End)
	sort.Float64s(cuts)
	covered := 0.0
	var lastSeg *CritSeg
	for i := 0; i+1 < len(cuts); i++ {
		lo, hi := cuts[i], cuts[i+1]
		if hi <= lo {
			continue
		}
		mid := lo + (hi-lo)/2
		var best *interval
		for j := range ivs {
			iv := &ivs[j]
			if iv.s.Start <= mid && mid < iv.s.End {
				if best == nil || iv.depth > best.depth ||
					(iv.depth == best.depth && iv.s.Start > best.s.Start) {
					best = iv
				}
			}
		}
		if best == nil {
			lastSeg = nil
			continue
		}
		w := hi - lo
		covered += w
		b.ByLayer[best.s.Layer] += w
		if lastSeg != nil && lastSeg.Name == best.s.Name && lastSeg.Layer == best.s.Layer {
			lastSeg.Seconds += w
		} else {
			b.Critical = append(b.Critical, CritSeg{Name: best.s.Name, Layer: best.s.Layer, Seconds: w})
			lastSeg = &b.Critical[len(b.Critical)-1]
		}
	}
	b.Coverage = covered / b.Seconds
	return b
}

func clamp(v, lo, hi float64) float64 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

// BlameTotals sums per-layer attribution across steps. The wall-clock
// queue/exec split is appended as the staging-queue/staging-exec layers'
// wall columns by WriteBlameText.
func BlameTotals(steps []StepBlame) (byLayer map[string]float64, total float64, queueNs, execNs int64) {
	byLayer = make(map[string]float64)
	for _, b := range steps {
		total += b.Seconds
		for l, s := range b.ByLayer {
			byLayer[l] += s
		}
		queueNs += b.QueueNs
		execNs += b.ExecNs
	}
	return byLayer, total, queueNs, execNs
}

// WriteBlameText renders the per-layer blame table (and, with -critical-path
// style detail, each step's path) in a fixed, deterministic order.
func WriteBlameText(w io.Writer, steps []StepBlame, critical bool) {
	byLayer, total, queueNs, execNs := BlameTotals(steps)
	fmt.Fprintf(w, "steps: %d   attributed wall time: %.6gs\n", len(steps), total)
	fmt.Fprintf(w, "%-16s %12s %8s\n", "layer", "seconds", "share")
	for _, l := range sortedLayerKeys(byLayer) {
		share := 0.0
		if total > 0 {
			share = byLayer[l] / total
		}
		fmt.Fprintf(w, "%-16s %12.6g %7.1f%%\n", l, byLayer[l], 100*share)
	}
	if queueNs > 0 || execNs > 0 {
		fmt.Fprintf(w, "pool wall split: queue-wait %.3fms, execution %.3fms\n",
			float64(queueNs)/1e6, float64(execNs)/1e6)
	}
	if !critical {
		return
	}
	for _, b := range steps {
		fmt.Fprintf(w, "step %d: %.6gs (%.0f%% attributed)\n", b.Step, b.Seconds, 100*b.Coverage)
		for _, seg := range b.Critical {
			fmt.Fprintf(w, "  %-24s %-16s %12.6gs\n", seg.Name, seg.Layer, seg.Seconds)
		}
	}
}

func sortedLayerKeys(m map[string]float64) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// PhaseRow is one line of the per-phase wall-time breakdown `xlayer report
// -spans` renders alongside the step-latency percentiles.
type PhaseRow struct {
	Name    string
	Count   int
	Seconds float64
	Mean    float64
	Share   float64 // of the summed step wall time
}

// PhaseBreakdown aggregates the step-phase spans (solve / analyze / ship /
// drain-barrier) of a span log into per-phase totals.
func PhaseBreakdown(spans []Span) []PhaseRow {
	var stepTotal float64
	agg := make(map[string]*PhaseRow)
	for i := range spans {
		s := &spans[i]
		if s.Name == "step" {
			stepTotal += s.Duration()
			continue
		}
		switch s.Layer {
		case LayerSolver, LayerAnalysis, LayerStagingExec, LayerBarrier:
			if s.Duration() <= 0 && s.Name != "drain-barrier" {
				continue
			}
			r := agg[s.Name]
			if r == nil {
				r = &PhaseRow{Name: s.Name}
				agg[s.Name] = r
			}
			r.Count++
			r.Seconds += s.Duration()
		}
	}
	rows := make([]PhaseRow, 0, len(agg))
	for _, r := range agg {
		if r.Count > 0 {
			r.Mean = r.Seconds / float64(r.Count)
		}
		if stepTotal > 0 {
			r.Share = r.Seconds / stepTotal
		}
		rows = append(rows, *r)
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].Seconds > rows[j].Seconds })
	return rows
}

// WritePhaseText renders the per-phase breakdown table.
func WritePhaseText(w io.Writer, rows []PhaseRow) {
	fmt.Fprintf(w, "%-16s %6s %12s %12s %8s\n", "phase", "count", "seconds", "mean", "share")
	for _, r := range rows {
		fmt.Fprintf(w, "%-16s %6d %12.6g %12.6g %7.1f%%\n",
			r.Name, r.Count, r.Seconds, r.Mean, 100*r.Share)
	}
}

// chromeEvent is one Chrome trace_event record ("X" = complete event).
// Timestamps are microseconds; we map virtual model seconds 1:1 onto
// microseconds so Perfetto renders the modeled timeline directly.
type chromeEvent struct {
	Name string            `json:"name"`
	Cat  string            `json:"cat"`
	Ph   string            `json:"ph"`
	Ts   float64           `json:"ts"`
	Dur  float64           `json:"dur"`
	Pid  int               `json:"pid"`
	Tid  int               `json:"tid"`
	Args map[string]string `json:"args,omitempty"`
}

type chromeTrace struct {
	TraceEvents     []chromeEvent `json:"traceEvents"`
	DisplayTimeUnit string        `json:"displayTimeUnit"`
}

// chromeLanes fixes each layer's thread lane so traces render consistently.
var chromeLanes = map[string]int{
	LayerRun: 0, LayerStep: 1, LayerSolver: 2, LayerAnalysis: 3,
	LayerPolicy: 4, LayerStagingExec: 5, LayerStagingQueue: 6,
	LayerBarrier: 7, LayerNetworkFault: 8,
}

// WriteChromeTrace exports a span log as Chrome trace_event JSON loadable
// in Perfetto (ui.perfetto.dev) or chrome://tracing. Zero-width spans are
// widened to a minimal sliver so they stay visible.
func WriteChromeTrace(w io.Writer, spans []Span) error {
	out := chromeTrace{DisplayTimeUnit: "ms", TraceEvents: make([]chromeEvent, 0, len(spans))}
	for i := range spans {
		s := &spans[i]
		tid, ok := chromeLanes[s.Layer]
		if !ok {
			tid = 9
		}
		dur := (s.End - s.Start) * 1e6
		if dur <= 0 {
			dur = 0.1
		}
		args := map[string]string{"id": s.ID, "step": fmt.Sprint(s.Step)}
		if s.Parent != "" {
			args["parent"] = s.Parent
		}
		if s.Endpoint != 0 || strings.HasPrefix(s.Name, "rpc:") {
			args["endpoint"] = fmt.Sprint(s.Endpoint)
		}
		if s.QueueNs != 0 || s.ExecNs != 0 {
			args["queue_ms"] = fmt.Sprintf("%.3f", float64(s.QueueNs)/1e6)
			args["exec_ms"] = fmt.Sprintf("%.3f", float64(s.ExecNs)/1e6)
		}
		if s.Err != "" {
			args["err"] = s.Err
		}
		if s.Detail != "" {
			args["detail"] = s.Detail
		}
		out.TraceEvents = append(out.TraceEvents, chromeEvent{
			Name: s.Name, Cat: s.Layer, Ph: "X",
			Ts: s.Start * 1e6, Dur: dur,
			Pid: 1, Tid: tid, Args: args,
		})
	}
	enc := json.NewEncoder(w)
	return enc.Encode(&out)
}
