package core

import (
	"testing"
	"time"

	"crosslayer/internal/faultnet"
	"crosslayer/internal/obs"
	"crosslayer/internal/policy"
	"crosslayer/internal/staging"
)

// tcpWorkflow builds a workflow whose in-transit path goes through a
// one-endpoint staging pool over a loopback fleet whose listener carries the
// given fault plan; em and reg (either may be nil) receive the workflow's,
// pool's and server's events and metrics. The client has a tight retry
// budget so failing steps degrade in milliseconds.
func tcpWorkflow(t *testing.T, plan faultnet.Plan, cooldown int, em *obs.Emitter, reg *obs.Registry) (*Workflow, *staging.Pool) {
	t.Helper()
	cfg := baseCfg()
	cfg.StaticPlacement = policy.PlaceInTransit
	cfg.StagingFailureCooldown = cooldown
	cfg.Obs = em
	cfg.Metrics = reg

	sim := smallGas(1)
	domain := sim.Hierarchy().Cfg.Domain
	fleet, err := staging.NewFleet(staging.FleetOptions{
		Domain: domain, Fault: &plan, Server: staging.ServerOptions{Metrics: reg},
	})
	if err != nil {
		t.Fatal(err)
	}
	pool, err := staging.NewPool(fleet.Addrs(), domain, staging.PoolOptions{
		Client: staging.ClientOptions{
			OpTimeout:   time.Second,
			MaxRetries:  2,
			BackoffBase: time.Millisecond,
			BackoffMax:  5 * time.Millisecond,
		},
		Events:  em,
		Metrics: reg,
	})
	if err != nil {
		fleet.Close()
		t.Fatal(err)
	}
	cfg.Staging = pool

	w, err := NewWorkflow(cfg, sim)
	if err != nil {
		pool.Close()
		fleet.Close()
		t.Fatal(err)
	}
	w.AddCloser(pool)
	w.AddCloser(fleet)
	if em != nil {
		w.AddCloser(em) // closed first: flushes the event stream
	}
	t.Cleanup(func() { w.Close() })
	return w, pool
}

// TestDegradeToInSituOnDeadStaging is the end-to-end failure scenario the
// fault harness exists for: every step targets in-transit placement, but
// the staging server refuses every connection. Steps must complete in-situ
// — no hang, no error — with the failure visible in the trace fields.
func TestDegradeToInSituOnDeadStaging(t *testing.T) {
	w, _ := tcpWorkflow(t, faultnet.Plan{Seed: 1, RefuseAccepts: -1}, 2, nil, nil)

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
		w, _ := tcpWorkflow(t, faultnet.Plan{Seed: 42, RefuseAccepts: -1}, 1, nil, nil)
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
	tcp, _ := tcpWorkflow(t, faultnet.Plan{}, 0, nil, nil)
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
