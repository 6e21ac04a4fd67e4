package core

import (
	"net"
	"testing"
	"time"

	"crosslayer/internal/faultnet"
	"crosslayer/internal/policy"
	"crosslayer/internal/staging"
)

// tcpWorkflow builds a workflow whose in-transit path goes through a real
// loopback TCP staging server, wrapped in the given fault plan. The client
// has a tight retry budget so failing steps degrade in milliseconds.
func tcpWorkflow(t *testing.T, plan faultnet.Plan, cooldown int) *Workflow {
	t.Helper()
	cfg := baseCfg()
	cfg.StaticPlacement = policy.PlaceInTransit
	cfg.StagingFailureCooldown = cooldown

	sim := smallGas(1)
	space := staging.NewSpace(2, 0, sim.Hierarchy().Cfg.Domain)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv, err := staging.NewServer(faultnet.Listen(ln, plan), space, staging.ServerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	opts := staging.ClientOptions{
		OpTimeout:   time.Second,
		MaxRetries:  2,
		BackoffBase: time.Millisecond,
		BackoffMax:  5 * time.Millisecond,
	}
	client := staging.NewClient(ln.Addr().String(), opts)
	cfg.Staging = client

	w, err := NewWorkflow(cfg, sim)
	if err != nil {
		srv.Close()
		client.Close()
		t.Fatal(err)
	}
	w.AddCloser(client)
	w.AddCloser(srv)
	t.Cleanup(func() { w.Close() })
	return w
}

// TestDegradeToInSituOnDeadStaging is the end-to-end failure scenario the
// fault harness exists for: every step targets in-transit placement, but
// the staging server refuses every connection. Steps must complete in-situ
// — no hang, no error — with the failure visible in the trace fields.
func TestDegradeToInSituOnDeadStaging(t *testing.T) {
	w := tcpWorkflow(t, faultnet.Plan{Seed: 1, RefuseAccepts: -1}, 2)

	done := make(chan Result, 1)
	go func() { done <- w.Run(4) }()
	var res Result
	select {
	case res = <-done:
	case <-time.After(60 * time.Second):
		t.Fatal("workflow hung against a dead staging server")
	}

	if len(res.Steps) != 4 {
		t.Fatalf("ran %d steps, want 4", len(res.Steps))
	}
	first := res.Steps[0]
	if first.Placement != policy.PlaceInSitu {
		t.Errorf("step 0 placement = %v, want in-situ", first.Placement)
	}
	if first.PlacementReason != policy.ReasonStagingFailure {
		t.Errorf("step 0 reason = %q, want %q", first.PlacementReason, policy.ReasonStagingFailure)
	}
	if first.StagingRetries == 0 {
		t.Error("step 0 recorded zero staging retries")
	}
	if first.BytesMoved != 0 || first.TransferSeconds != 0 {
		t.Errorf("degraded step booked transfer costs: moved=%d transfer=%g",
			first.BytesMoved, first.TransferSeconds)
	}
	if first.AnalysisSeconds <= 0 || first.Triangles == 0 {
		t.Error("degraded step did not actually run its analysis in-situ")
	}

	// Cooldown: the next two steps must be held in-situ as suspect without
	// paying the retry tax again.
	for _, s := range res.Steps[1:3] {
		if s.PlacementReason != policy.ReasonStagingSuspect {
			t.Errorf("step %d reason = %q, want %q", s.Step, s.PlacementReason, policy.ReasonStagingSuspect)
		}
		if s.StagingRetries != 0 {
			t.Errorf("cooldown step %d paid %d retries", s.Step, s.StagingRetries)
		}
	}
	// Past the cooldown the engine probes staging again and re-degrades.
	if got := res.Steps[3].PlacementReason; got != policy.ReasonStagingFailure {
		t.Errorf("step 3 reason = %q, want fresh %q", got, policy.ReasonStagingFailure)
	}
}

// TestDegradedRunIsDeterministic: the identical seeded fault plan must
// reproduce identical step records across two runs — the property that
// makes fault-injection regressions debuggable.
func TestDegradedRunIsDeterministic(t *testing.T) {
	run := func() []StepRecord {
		w := tcpWorkflow(t, faultnet.Plan{Seed: 42, RefuseAccepts: -1}, 1)
		return w.Run(5).Steps
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("run lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Errorf("step %d differs between identical seeded runs:\n  %+v\n  %+v", i, a[i], b[i])
		}
	}
}

// TestHealthyTCPStagingMatchesInProcess: with no faults, the TCP-backed
// workflow must reach the same modeled outcome as the in-process space —
// the transport is an implementation detail of the staging layer.
func TestHealthyTCPStagingMatchesInProcess(t *testing.T) {
	tcp := tcpWorkflow(t, faultnet.Plan{}, 0)
	tcpRes := tcp.Run(3)

	cfg := baseCfg()
	cfg.StaticPlacement = policy.PlaceInTransit
	local, err := NewWorkflow(cfg, smallGas(1))
	if err != nil {
		t.Fatal(err)
	}
	localRes := local.Run(3)

	for i := range tcpRes.Steps {
		ts, ls := tcpRes.Steps[i], localRes.Steps[i]
		if ts.StagingRetries != 0 || ts.PlacementReason == policy.ReasonStagingFailure {
			t.Errorf("healthy TCP step %d shows transport trouble: %+v", i, ts)
		}
		// Zero the transport-only fields; everything else must match.
		ts.StagingRetries, ts.StagingReconnects = 0, 0
		ls.StagingRetries, ls.StagingReconnects = 0, 0
		if ts != ls {
			t.Errorf("step %d diverges between TCP and in-process staging:\n  tcp:   %+v\n  local: %+v", i, ts, ls)
		}
	}
}
