package span

import (
	"bytes"
	"strings"
	"testing"
)

// TestIDDeterminism pins the ID derivation contract: the same seed yields
// the same trace and the same (step, op-seq) sequence of span IDs, and
// different seeds separate.
func TestIDDeterminism(t *testing.T) {
	mk := func(seed string) []Span {
		sink := &MemSink{}
		tr := NewTracer(sink, seed)
		run := tr.Begin(Ctx{}, "run", LayerRun, StepUnset)
		for step := 0; step < 3; step++ {
			st := tr.Begin(run, "step", LayerStep, step)
			st.Record(Op{Name: "policy:application", Layer: LayerPolicy})
			st.End()
		}
		run.End()
		return sink.Spans()
	}
	a, b := mk("seed-a"), mk("seed-a")
	if len(a) != len(b) {
		t.Fatalf("span counts differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("span %d differs across identical runs:\n%+v\n%+v", i, a[i], b[i])
		}
	}
	c := mk("seed-b")
	if a[0].Trace == c[0].Trace {
		t.Error("different seeds produced the same trace ID")
	}
	if TraceID("") == 0 || TraceID("x") == 0 {
		t.Error("trace IDs must be nonzero (zero disables wire stamping)")
	}
}

// TestNilTracerIsInert: every method on a nil tracer and zero Ctx must
// no-op without panicking — the disabled path the workflow runs by default.
func TestNilTracerIsInert(t *testing.T) {
	var tr *Tracer
	if tr := NewTracer(nil, "seed"); tr != nil {
		t.Fatal("NewTracer(nil sink) should yield a nil tracer")
	}
	c := tr.Begin(Ctx{}, "run", LayerRun, StepUnset)
	if c.Enabled() {
		t.Fatal("nil tracer produced an enabled ctx")
	}
	c.End()
	c.EndErr("x")
	c.AddDetail("d")
	c.Record(Op{Name: "op"})
	if trace, parent := c.WireIDs(); trace != 0 || parent != 0 {
		t.Fatal("zero ctx has wire IDs")
	}
	tr.RecordRemote(1, 2, Op{Name: "srv:put"})
	tr.SetVirtualClock(nil)
	if tr.NowNs() != 0 || tr.WallEnabled() {
		t.Fatal("nil tracer measures wall time")
	}
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestWallDurationsOptIn: NowNs is zero unless wall durations were enabled,
// keeping the deterministic path free of wall-clock reads.
func TestWallDurationsOptIn(t *testing.T) {
	tr := NewTracer(&MemSink{}, "s")
	if tr.NowNs() != 0 {
		t.Error("wall-disabled tracer returned a nonzero NowNs")
	}
	tr = tr.WithWallDurations()
	if !tr.WallEnabled() {
		t.Fatal("WithWallDurations did not enable wall measurement")
	}
	if tr.NowNs() == 0 {
		t.Error("wall-enabled tracer returned zero NowNs")
	}
}

// TestReadSpansRoundTrip: JSONL sink output parses back to the emitted
// spans.
func TestReadSpansRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	tr := NewTracer(NewJSONLSink(nopWriteCloser{&buf}), "rt")
	run := tr.Begin(Ctx{}, "run", LayerRun, StepUnset)
	st := tr.Begin(run, "step", LayerStep, 0)
	st.Record(Op{Name: "pool:put", Layer: LayerStagingExec, Endpoint: 2, Detail: "var=rho"})
	st.EndErr("transport error")
	run.End()
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
	spans, err := ReadSpans(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(spans) != 3 {
		t.Fatalf("round trip read %d spans, want 3", len(spans))
	}
	if spans[1].Err != "transport error" || spans[1].Name != "step" {
		t.Errorf("step span did not survive: %+v", spans[1])
	}
	if spans[0].Endpoint != 2 {
		t.Errorf("endpoint lost: %+v", spans[0])
	}
	if _, err := ReadSpans(strings.NewReader("{not json\n")); err == nil {
		t.Error("corrupt line parsed without error")
	}
}

type nopWriteCloser struct{ *bytes.Buffer }

func (nopWriteCloser) Close() error { return nil }

// TestBuildTreeRejectsIllFormed pins the well-parented invariant's error
// cases: missing parent, duplicate ID, missing ID.
func TestBuildTreeRejectsIllFormed(t *testing.T) {
	ok := []Span{
		{Trace: "t", ID: "a", Name: "run", Start: 0, End: 10},
		{Trace: "t", ID: "b", Parent: "a", Name: "step", Start: 0, End: 10},
	}
	tree, err := BuildTree(ok)
	if err != nil {
		t.Fatal(err)
	}
	if len(tree.Roots()) != 1 || tree.Roots()[0].ID != "a" {
		t.Fatal("root not found")
	}
	if kids := tree.children["a"]; len(kids) != 1 || kids[0].ID != "b" {
		t.Fatal("children not indexed")
	}

	if _, err := BuildTree([]Span{{ID: "x", Parent: "ghost", Name: "s"}}); err == nil {
		t.Error("missing parent accepted")
	}
	if _, err := BuildTree([]Span{{ID: "x"}, {ID: "x"}}); err == nil {
		t.Error("duplicate ID accepted")
	}
	if _, err := BuildTree([]Span{{Name: "anon"}}); err == nil {
		t.Error("missing ID accepted")
	}
}

// TestAnalyzeBlame pins the deepest-covering sweep on a hand-built step: a
// step [0,10] with solve [0,4], ship [4,9] and a nested staged-analysis
// [6,8] must attribute 4s solver, 3s staging-exec, 2s analysis, 1s
// uncovered.
func TestAnalyzeBlame(t *testing.T) {
	spans := []Span{
		{ID: "r", Name: "run", Layer: LayerRun, Step: StepUnset, Start: 0, End: 10},
		{ID: "s0", Parent: "r", Name: "step", Layer: LayerStep, Step: 0, Start: 0, End: 10},
		{ID: "sv", Parent: "s0", Name: "solve", Layer: LayerSolver, Step: 0, Start: 0, End: 4},
		{ID: "sh", Parent: "s0", Name: "ship", Layer: LayerStagingExec, Step: 0, Start: 4, End: 9},
		{ID: "an", Parent: "sh", Name: "staged-analysis", Layer: LayerAnalysis, Step: 0, Start: 6, End: 8},
		// Zero-width op span: structures the tree, claims no time.
		{ID: "op", Parent: "sh", Name: "pool:put", Layer: LayerStagingExec, Step: 0, Start: 5, End: 5, QueueNs: 100, ExecNs: 200},
	}
	tree, err := BuildTree(spans)
	if err != nil {
		t.Fatal(err)
	}
	steps := tree.Analyze()
	if len(steps) != 1 {
		t.Fatalf("%d steps, want 1", len(steps))
	}
	b := steps[0]
	approx := func(got, want float64) bool { d := got - want; return d < 1e-9 && d > -1e-9 }
	if !approx(b.ByLayer[LayerSolver], 4) {
		t.Errorf("solver blamed %.3gs, want 4", b.ByLayer[LayerSolver])
	}
	if !approx(b.ByLayer[LayerStagingExec], 3) {
		t.Errorf("staging-exec blamed %.3gs, want 3", b.ByLayer[LayerStagingExec])
	}
	if !approx(b.ByLayer[LayerAnalysis], 2) {
		t.Errorf("analysis blamed %.3gs, want 2", b.ByLayer[LayerAnalysis])
	}
	if !approx(b.Coverage, 0.9) {
		t.Errorf("coverage %.3g, want 0.9", b.Coverage)
	}
	if b.QueueNs != 100 || b.ExecNs != 200 {
		t.Errorf("wall split %d/%d, want 100/200", b.QueueNs, b.ExecNs)
	}
	// Critical path: solve → ship → staged-analysis → ship.
	wantPath := []string{"solve", "ship", "staged-analysis", "ship"}
	if len(b.Critical) != len(wantPath) {
		t.Fatalf("critical path %v", b.Critical)
	}
	for i, seg := range b.Critical {
		if seg.Name != wantPath[i] {
			t.Errorf("critical segment %d: %s, want %s", i, seg.Name, wantPath[i])
		}
	}

	var buf bytes.Buffer
	WriteBlameText(&buf, steps, true)
	out := buf.String()
	for _, want := range []string{"solver", "staging-exec", "analysis", "step 0", "queue-wait"} {
		if !strings.Contains(out, want) {
			t.Errorf("blame text missing %q:\n%s", want, out)
		}
	}
}

// TestPhaseBreakdown aggregates phase spans into the report table rows.
func TestPhaseBreakdown(t *testing.T) {
	spans := []Span{
		{ID: "s0", Name: "step", Layer: LayerStep, Start: 0, End: 10},
		{ID: "a", Parent: "s0", Name: "solve", Layer: LayerSolver, Start: 0, End: 4},
		{ID: "b", Parent: "s0", Name: "ship", Layer: LayerStagingExec, Start: 4, End: 9},
		{ID: "c", Parent: "s0", Name: "analyze", Layer: LayerAnalysis, Start: 9, End: 10},
		{ID: "d", Parent: "s0", Name: "policy:resource", Layer: LayerPolicy, Start: 4, End: 4},
	}
	rows := PhaseBreakdown(spans)
	if len(rows) != 3 {
		t.Fatalf("%d rows, want 3 (policy excluded): %+v", len(rows), rows)
	}
	if rows[0].Name != "ship" || rows[0].Seconds != 5 {
		t.Errorf("rows not ordered by seconds: %+v", rows)
	}
	if rows[0].Share != 0.5 {
		t.Errorf("ship share %.3g, want 0.5", rows[0].Share)
	}
	var buf bytes.Buffer
	WritePhaseText(&buf, rows)
	if !strings.Contains(buf.String(), "ship") {
		t.Errorf("phase text missing ship:\n%s", buf.String())
	}
}

// TestWriteChromeTrace sanity-checks the trace_event export: valid JSON,
// one complete event per span, microsecond mapping, zero-width widening.
func TestWriteChromeTrace(t *testing.T) {
	spans := []Span{
		{ID: "a", Name: "run", Layer: LayerRun, Start: 0, End: 1},
		{ID: "b", Parent: "a", Name: "policy:resource", Layer: LayerPolicy, Start: 0.5, End: 0.5, Detail: "cores=8"},
	}
	var buf bytes.Buffer
	if err := WriteChromeTrace(&buf, spans); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{`"traceEvents"`, `"ph":"X"`, `"displayTimeUnit":"ms"`, `"detail":"cores=8"`} {
		if !strings.Contains(out, want) {
			t.Errorf("chrome trace missing %s:\n%s", want, out)
		}
	}
	if strings.Contains(out, `"dur":0,`) {
		t.Error("zero-width span exported with zero duration")
	}
}
