package core

import (
	"bytes"
	"net"
	"strings"
	"testing"
	"time"

	"crosslayer/internal/faultnet"
	"crosslayer/internal/obs"
	"crosslayer/internal/policy"
	"crosslayer/internal/staging"
)

// eventTCPWorkflow builds a TCP-staged workflow that streams its events as
// JSONL into buf. The fault plan is applied to the client's dialer only:
// dial-side faults fire synchronously under the workflow's op loop, which
// is what makes the emitted stream reproducible (server-side listener
// faults fire on server goroutines and would interleave arbitrarily).
func eventTCPWorkflow(t *testing.T, plan faultnet.Plan, buf *bytes.Buffer, reg *obs.Registry) (*Workflow, *staging.Client) {
	t.Helper()
	em := obs.NewEmitter(obs.NewJSONLSink(buf))

	cfg := baseCfg()
	cfg.StaticPlacement = policy.PlaceInTransit
	cfg.StagingFailureCooldown = 1
	cfg.Obs = em
	cfg.Metrics = reg

	sim := smallGas(1)
	space := staging.NewSpace(2, 0, sim.Hierarchy().Cfg.Domain)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv, err := staging.NewServer(ln, space, staging.ServerOptions{Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}

	dialPlan := plan
	dialPlan.OnFault = em.FaultInjected
	client := staging.NewClient(ln.Addr().String(), staging.ClientOptions{
		OpTimeout:   time.Second,
		MaxRetries:  2,
		BackoffBase: time.Millisecond,
		BackoffMax:  5 * time.Millisecond,
		DialFunc:    dialPlan.Dialer(),
		Events:      em,
		Metrics:     reg,
	})
	cfg.Staging = client

	w, err := NewWorkflow(cfg, sim)
	if err != nil {
		srv.Close()
		client.Close()
		t.Fatal(err)
	}
	w.AddCloser(client)
	w.AddCloser(srv)
	w.AddCloser(em) // closed first: flushes the JSONL stream
	return w, client
}

// TestSeededFaultEventStreamIsByteIdentical is the determinism golden test:
// two runs under the same seeded client-side fault plan must emit the exact
// same event bytes, because timestamps are model time and every fault fires
// synchronously in the workflow goroutine.
func TestSeededFaultEventStreamIsByteIdentical(t *testing.T) {
	run := func() []byte {
		var buf bytes.Buffer
		w, _ := eventTCPWorkflow(t, faultnet.Plan{Seed: 11, DropAfterBytes: 192 << 10}, &buf, nil)
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
	if len(sum.Faults) == 0 || sum.ByKind[obs.KindStagingRetry] == 0 {
		t.Fatalf("seeded plan injected no faults into the stream: %+v", sum)
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

// TestClientTransportMetricsMatchStats: the staging client's metrics
// counters must agree with its TransportStats, and the server must expose
// request/byte counters after a run.
func TestClientTransportMetricsMatchStats(t *testing.T) {
	reg := obs.NewRegistry()
	var buf bytes.Buffer
	w, client := eventTCPWorkflow(t, faultnet.Plan{Seed: 3, DropAfterBytes: 192 << 10}, &buf, reg)
	w.Run(4)
	retries, reconnects := client.TransportStats()
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
