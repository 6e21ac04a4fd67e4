package main

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"crosslayer/internal/analysis"
	"crosslayer/internal/field"
	"crosslayer/internal/obs/span"
	"crosslayer/internal/solver"
)

// spanRec is one benchmark-side span: a call into a layer, timed on the wall
// clock from outside the program. step ties the spans of one step together;
// the "step" span itself is their parent.
type spanRec struct {
	name       string
	step       int
	start, end int64 // ns since the recorder's origin
}

// recorder keeps a traced round's spans in memory. A nil recorder records
// nothing, so untraced rounds run the same code without branching.
type recorder struct {
	origin time.Time
	mu     sync.Mutex
	step   int
	spans  []spanRec
}

func newRecorder(origin time.Time) *recorder { return &recorder{origin: origin} }

// beginStep names the step later spans belong to. Steps that run concurrently
// each need a recorder of their own.
func (r *recorder) beginStep(step int) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.step = step
	r.mu.Unlock()
}

func (r *recorder) add(name string, t0, t1 time.Time) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.spans = append(r.spans, spanRec{name, r.step, t0.Sub(r.origin).Nanoseconds(), t1.Sub(r.origin).Nanoseconds()})
	r.mu.Unlock()
}

// tracedSim decorates solver.Simulation: one span per Step, plus the cell
// count the solver reports for it.
type tracedSim struct {
	solver.Simulation
	rec   *recorder
	cells int64
}

func (s *tracedSim) Step() solver.StepStats {
	t0 := time.Now()
	st := s.Simulation.Step()
	s.rec.add("solver.step", t0, time.Now())
	s.cells += st.CellsUpdated
	return st
}

// tracedService decorates analysis.Service: one span per Analyze.
type tracedService struct {
	analysis.Service
	rec *recorder
}

func (s *tracedService) Analyze(blocks []*field.BoxData, comp int, dx float64) analysis.Report {
	t0 := time.Now()
	rep := s.Service.Analyze(blocks, comp, dx)
	s.rec.add("analysis.analyze", t0, time.Now())
	return rep
}

// spanTotals is what a traced round's spans say about each layer.
type spanTotals struct {
	sum  map[string]int64   // name -> total ns
	durs map[string][]int64 // name -> each span's ns
	// stepSelf is the step spans' time not covered by any child span of the
	// same step; children that overlap (two puts in flight) count once.
	stepSelf int64
}

func (r *recorder) totals() spanTotals {
	t := spanTotals{sum: make(map[string]int64), durs: make(map[string][]int64)}
	children := make(map[int][]spanRec)
	for _, s := range r.spans {
		t.sum[s.name] += s.end - s.start
		t.durs[s.name] = append(t.durs[s.name], s.end-s.start)
		if s.name != "step" {
			children[s.step] = append(children[s.step], s)
		}
	}
	for _, s := range r.spans {
		if s.name != "step" {
			continue
		}
		kids := children[s.step]
		sort.Slice(kids, func(i, j int) bool { return kids[i].start < kids[j].start })
		covered, edge := int64(0), s.start
		for _, k := range kids {
			lo, hi := max(k.start, edge), min(k.end, s.end)
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		t.stepSelf += (s.end - s.start) - covered
	}
	return t
}

// writeChrome writes the round's spans as Chrome trace_event JSON through
// internal/obs/span's writer (open in Perfetto or chrome://tracing). Times
// are wall seconds since the round began.
func (r *recorder) writeChrome(dir, workload string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	layerOf := map[string]string{
		"step": span.LayerStep, "solver.step": span.LayerSolver, "analysis.analyze": span.LayerAnalysis,
		"pool.put": span.LayerStagingExec, "pool.get": span.LayerStagingExec, "pool.drop": span.LayerStagingExec,
	}
	out := make([]span.Span, len(r.spans))
	for i, s := range r.spans {
		out[i] = span.Span{
			Trace: workload, ID: fmt.Sprintf("%x", i+1), Name: s.name, Layer: layerOf[s.name], Step: s.step,
			Start: float64(s.start) / 1e9, End: float64(s.end) / 1e9,
		}
		if s.name != "step" {
			out[i].Parent = fmt.Sprintf("step-%d", s.step)
		} else {
			out[i].ID = fmt.Sprintf("step-%d", s.step)
		}
	}
	f, err := os.Create(filepath.Join(dir, "trace-"+workload+".json"))
	if err != nil {
		return err
	}
	err = span.WriteChromeTrace(f, out)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}
