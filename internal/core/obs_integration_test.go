package core

import (
	"bytes"
	"strings"
	"testing"

	"crosslayer/internal/faultnet"
	"crosslayer/internal/obs"
	"crosslayer/internal/staging"
)

// eventTCPWorkflow builds tcpWorkflow's one-endpoint pool workflow with a
// failure cooldown of one step, streaming its events as JSONL into buf.
func eventTCPWorkflow(t *testing.T, plan faultnet.Plan, buf *bytes.Buffer, reg *obs.Registry) (*Workflow, *staging.Pool) {
	t.Helper()
	return tcpWorkflow(t, plan, 1, obs.NewEmitter(obs.NewJSONLSink(buf)), reg)
}

// TestSeededFaultEventStreamIsByteIdentical is the determinism golden test:
// two runs under the same seeded listener fault plan must emit the exact
// same event bytes, because timestamps are model time, the pool's breaker
// events fire inline in the workflow goroutine, and the plan's faults depend
// only on the accept order and the bytes moved. The plan refuses the first
// six connections — the breaker opens, a probe rejoins the endpoint, steps
// degrade — and then drops each connection after 192 KiB.
func TestSeededFaultEventStreamIsByteIdentical(t *testing.T) {
	run := func() []byte {
		var buf bytes.Buffer
		w, _ := eventTCPWorkflow(t, faultnet.Plan{Seed: 11, RefuseAccepts: 6, DropAfterBytes: 192 << 10}, &buf, nil)
		w.Run(5)
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	a, b := run(), run()
	if !bytes.Equal(a, b) {
		la, lb := strings.Split(string(a), "\n"), strings.Split(string(b), "\n")
		for i := 0; i < len(la) && i < len(lb); i++ {
			if la[i] != lb[i] {
				t.Fatalf("event streams diverge at line %d:\n  run A: %s\n  run B: %s", i+1, la[i], lb[i])
			}
		}
		t.Fatalf("event stream lengths differ: %d vs %d bytes", len(a), len(b))
	}

	// The stream must actually exercise the fault path, or the test proves
	// nothing about fault determinism.
	events, err := obs.ReadEvents(bytes.NewReader(a))
	if err != nil {
		t.Fatal(err)
	}
	sum := obs.SummarizeEvents(events)
	for _, k := range []obs.Kind{obs.KindEndpointDown, obs.KindEndpointUp, obs.KindStagingDegrade} {
		if sum.ByKind[k] == 0 {
			t.Fatalf("seeded plan left no %s in the stream: %+v", k, sum.ByKind)
		}
	}
	if sum.Steps != 5 || sum.ByKind[obs.KindRunFinished] != 1 {
		t.Fatalf("stream incomplete: %+v", sum)
	}
	for _, ev := range events {
		if strings.Contains(ev.Detail, "127.0.0.1") {
			t.Fatalf("event detail leaks an address (breaks cross-process reproducibility): %+v", ev)
		}
	}
}

// TestClientTransportMetricsMatchStats: the staging clients' metrics
// counters must agree with the pool's TransportStats, and the server must
// expose request/byte counters after a run.
func TestClientTransportMetricsMatchStats(t *testing.T) {
	reg := obs.NewRegistry()
	var buf bytes.Buffer
	w, pool := eventTCPWorkflow(t, faultnet.Plan{Seed: 3, DropAfterBytes: 192 << 10}, &buf, reg)
	w.Run(4)
	retries, reconnects := pool.TransportStats()
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if retries == 0 {
		t.Fatal("fault plan produced no retries; the assertion below would be vacuous")
	}
	if got := reg.Counter("xlayer_staging_client_retries_total", "").Value(); got != float64(retries) {
		t.Errorf("retries counter = %g, TransportStats = %d", got, retries)
	}
	if got := reg.Counter("xlayer_staging_client_reconnects_total", "").Value(); got != float64(reconnects) {
		t.Errorf("reconnects counter = %g, TransportStats = %d", got, reconnects)
	}

	var sb strings.Builder
	if err := reg.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	text := sb.String()
	for _, want := range []string{
		`xlayer_staging_server_requests_total{op="put"}`,
		"xlayer_staging_server_bytes_in_total",
		"xlayer_steps_total 4",
		"xlayer_staging_degraded_steps_total",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("exposition missing %q", want)
		}
	}
}
