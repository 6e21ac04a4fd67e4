package obs

import (
	"bytes"
	"strings"
	"testing"
	"time"
)

func TestEmitterStampsAndSpans(t *testing.T) {
	ring := NewRingSink(16)
	e := NewEmitter(ring)
	clock := 0.0
	e.SetVirtualClock(func() float64 { clock += 0.5; return clock })

	e.RunStarted("test run")
	sc := e.BeginStep(3)
	sc.PolicyDecision("middleware", "in-transit", "staging idle", 0, 0, "bytes=100")
	e.StagingRetry(1, "boom") // span-less: must inherit step 3
	sc.Finished("in-transit", 2, 1, 0.5, 0.1, 1024)
	e.RunFinished(9.75)

	evs := ring.Events()
	if len(evs) != 6 {
		t.Fatalf("got %d events, want 6", len(evs))
	}
	for i, ev := range evs {
		if ev.Seq != uint64(i+1) {
			t.Errorf("event %d seq = %d", i, ev.Seq)
		}
		if ev.T == 0 {
			t.Errorf("event %d missing virtual timestamp", i)
		}
		if ev.Wall != "" {
			t.Errorf("event %d has wall stamp without WithWallClock: %q", i, ev.Wall)
		}
	}
	if evs[0].Kind != KindRunStarted || evs[0].Step != StepUnset {
		t.Errorf("run_started wrong: %+v", evs[0])
	}
	if evs[2].Kind != KindPolicyDecision || evs[2].Step != 3 || evs[2].Layer != "middleware" {
		t.Errorf("policy_decision wrong: %+v", evs[2])
	}
	if evs[3].Kind != KindStagingRetry || evs[3].Step != 3 {
		t.Errorf("span-less retry did not inherit the open step: %+v", evs[3])
	}
	if evs[4].Kind != KindStepFinished || evs[4].Bytes != 1024 || evs[4].Factor != 2 {
		t.Errorf("step_finished wrong: %+v", evs[4])
	}
	if evs[5].Seconds != 9.75 {
		t.Errorf("run_finished seconds = %g", evs[5].Seconds)
	}
}

func TestEmitterWallClockOptIn(t *testing.T) {
	ring := NewRingSink(4)
	now := time.Date(2026, 8, 6, 12, 0, 0, 0, time.UTC)
	e := NewEmitter(ring).WithWallClock(func() time.Time { return now })
	e.RunStarted("")
	if got := ring.Events()[0].Wall; !strings.HasPrefix(got, "2026-08-06T12:00:00") {
		t.Errorf("wall stamp = %q", got)
	}
}

func TestNilEmitterIsSafe(t *testing.T) {
	var e *Emitter
	e.RunStarted("x")
	e.StagingRetry(1, "y")
	e.SetVirtualClock(func() float64 { return 1 })
	sc := e.BeginStep(0)
	if sc.Enabled() {
		t.Fatal("nil emitter span reports enabled")
	}
	sc.PolicyDecision("a", "b", "c", 1, 2, "d")
	sc.PlacementChange("a", "b", "c")
	sc.Record(NewCounts(nil, KindResourceResize), ResourceResize(1, 2))
	sc.Finished("in-situ", 1, 1, 1, 1, 1)
	e.RunFinished(1)
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	if NewEmitter(nil) != nil {
		t.Error("NewEmitter(nil) should be the nil (disabled) emitter")
	}
}

// TestEventEmitDisabledZeroAlloc enforces the disabled-path contract on the
// exact call shapes the workflow hot loop uses: with a nil emitter, step
// emission must not allocate at all — counting included, since the
// workflow's table rows count whether or not a sink is attached — so
// experiment timings are unaffected by the observability wiring.
func TestEventEmitDisabledZeroAlloc(t *testing.T) {
	var e *Emitter
	counts := NewCounts(NewRegistry(), KindStagingDegrade, KindResourceResize)
	allocs := testing.AllocsPerRun(1000, func() {
		sc := e.BeginStep(7)
		if sc.Enabled() {
			sc.PolicyDecision("middleware", "in-transit", "reason", 0, 0, "inputs")
		}
		sc.Record(counts, ResourceResize(8, 16))
		sc.Record(counts, StagingDegrade("staging_failure", 2))
		sc.Finished("in-situ", 1, 0.1, 0.2, 0, 0)
		e.RunFinished(1)
	})
	if allocs != 0 {
		t.Fatalf("disabled emission path allocates %.1f allocs/op, want 0", allocs)
	}
	// AllocsPerRun adds one warm-up call to its 1000.
	if got := counts.Value(KindStagingDegrade); got != 1001 {
		t.Fatalf("disabled path counted %v degrades, want 1001", got)
	}
}

// BenchmarkEventEmitDisabled is the CI guard for the same contract
// (run with -benchmem; allocs/op must stay 0).
func BenchmarkEventEmitDisabled(b *testing.B) {
	var e *Emitter
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sc := e.BeginStep(i)
		if sc.Enabled() {
			sc.PolicyDecision("middleware", "in-transit", "reason", 0, 0, "inputs")
		}
		sc.Finished("in-situ", 1, 0.1, 0.2, 0, 0)
	}
}

func BenchmarkEventEmitRing(b *testing.B) {
	e := NewEmitter(NewRingSink(1024))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sc := e.BeginStep(i)
		sc.Finished("in-situ", 1, 0.1, 0.2, 0, 0)
	}
}

func TestJSONLSinkRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	sink := NewJSONLSink(&buf)
	e := NewEmitter(sink)
	e.RunStarted("round trip")
	sc := e.BeginStep(0)
	sc.Finished("in-situ", 1, 1, 2, 3, 42)
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	evs, err := ReadEvents(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(evs) != 3 {
		t.Fatalf("got %d events, want 3", len(evs))
	}
	if evs[2].Kind != KindStepFinished || evs[2].Bytes != 42 {
		t.Errorf("round-tripped event wrong: %+v", evs[2])
	}
}

func TestReadEventsGarbage(t *testing.T) {
	if _, err := ReadEvents(strings.NewReader("not json\n")); err == nil {
		t.Error("garbage accepted")
	}
}

func TestRingSinkEviction(t *testing.T) {
	s := NewRingSink(3)
	for i := 0; i < 5; i++ {
		s.Emit(Event{Seq: uint64(i)})
	}
	evs := s.Events()
	if len(evs) != 3 || s.Total() != 5 {
		t.Fatalf("len=%d total=%d", len(evs), s.Total())
	}
	for i, ev := range evs {
		if ev.Seq != uint64(i+2) {
			t.Errorf("ring order wrong at %d: seq=%d", i, ev.Seq)
		}
	}
}

func TestSummarizeEvents(t *testing.T) {
	evs := []Event{
		{Kind: KindRunStarted, Step: -1},
		{Kind: KindStepStarted, Step: 0},
		{Kind: KindPolicyDecision, Step: 0, Layer: "application"},
		{Kind: KindPolicyDecision, Step: 0, Layer: "middleware"},
		{Kind: KindStagingRetry, Step: 0},
		{Kind: KindStagingRetry, Step: 0},
		{Kind: KindStagingReconnect, Step: 0},
		{Kind: KindStagingDegrade, Step: 0, Reason: "staging_failure"},
		{Kind: KindPlacementChange, Step: 1, Reason: "staging_suspect"},
		{Kind: KindResourceResize, Step: 1, PrevCores: 8, Cores: 4},
		{Kind: KindEndpointDown, Step: 1},
		{Kind: KindRunFinished, Step: -1, Seconds: 12.5},
	}
	s := SummarizeEvents(evs)
	if s.Events != 12 || s.Steps != 2 {
		t.Errorf("events=%d steps=%d", s.Events, s.Steps)
	}
	if k := s.ByKind; k[KindStagingRetry] != 2 || k[KindStagingReconnect] != 1 ||
		k[KindStagingDegrade] != 1 || k[KindResourceResize] != 1 {
		t.Errorf("transport counts wrong: %v", k)
	}
	if s.Decisions["application"] != 1 || s.Decisions["middleware"] != 1 {
		t.Errorf("decision counts wrong: %v", s.Decisions)
	}
	if s.PlacementChanges["staging_suspect"] != 1 {
		t.Errorf("reason counts wrong: %v", s.PlacementChanges)
	}
	if s.EndToEnd != 12.5 {
		t.Errorf("end-to-end = %g", s.EndToEnd)
	}

	var buf bytes.Buffer
	if err := s.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"12 events", "2 retries", "staging_suspect", "1 endpoint outages"} {
		if !strings.Contains(buf.String(), want) {
			t.Errorf("summary text missing %q:\n%s", want, buf.String())
		}
	}
}
