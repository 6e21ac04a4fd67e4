package chaos

import (
	"bytes"
	"fmt"
	"os"
	"time"

	"crosslayer/internal/amr"
	"crosslayer/internal/core"
	"crosslayer/internal/faultnet"
	"crosslayer/internal/field"
	"crosslayer/internal/grid"
	"crosslayer/internal/journal"
	"crosslayer/internal/obs"
	"crosslayer/internal/obs/span"
	"crosslayer/internal/policy"
	"crosslayer/internal/solver"
	"crosslayer/internal/staging"
	"crosslayer/internal/sysmodel"
)

// The fixed workload shape every schedule runs: small enough that a sweep
// of dozens of schedules stays in CI budget, large enough that the AMR
// hierarchy produces multiple blocks per step and the Morton router spreads
// them across every pool shard.
const (
	domainSide   = 16
	simCores     = 1024
	stagingCores = 64 // the paper's 16:1 ratio at simCores=1024
	probeVar     = "chaos_probe"

	// The two-tenant shape (Schedule.Tenants == 2): the workflow's staging
	// traffic runs in wfTenant's namespace, the harness's durability probes
	// in probeTenant's — and only probeTenant carries a quota, so the
	// workflow-side determinism contracts are untouched.
	wfTenant    = "t0"
	probeTenant = "t1"
)

// RunResult is the outcome of driving one schedule through the real
// engine: the violations found (empty on a healthy run), the raw event log
// for replay comparison, and the per-step records.
type RunResult struct {
	Schedule   Schedule
	Violations []Violation
	EventLog   []byte
	Steps      []core.StepRecord

	// SpanLog is the raw causal span log (JSONL), byte-compared across
	// replays alongside the event log where determinism is contractual.
	SpanLog []byte

	// DegradedSteps counts steps that fell back to in-situ with
	// placement_reason=staging_failure.
	DegradedSteps int

	// DurabilityChecked reports whether the durability audit stayed armed
	// for the whole run (it disarms once data loss becomes legitimate:
	// some shard's full replica set was simultaneously dead, or an
	// error-producing network plan can fail the audit's own reads).
	DurabilityChecked bool

	// DataDir is the temp root holding every server's WAL and snapshot
	// files, set only when a restart schedule violated — the offending disk
	// state is part of the bug report. Clean runs remove it before
	// returning. The caller owns the preserved root; DiscardData is the
	// one-call cleanup.
	DataDir string
}

// DiscardData removes the preserved data-dir root of a violating restart
// run. Safe on nil results and runs that kept nothing.
func (r *RunResult) DiscardData() {
	if r == nil || r.DataDir == "" {
		return
	}
	os.RemoveAll(r.DataDir)
	r.DataDir = ""
}

// plan converts the schedule's network fault to a faultnet plan.
func (f *NetFault) plan() faultnet.Plan {
	return faultnet.Plan{
		Seed:           f.Seed,
		RefuseAccepts:  f.RefuseAccepts,
		DropAfterBytes: f.DropAfterBytes,
		Latency:        time.Duration(f.LatencyUS) * time.Microsecond,
		TruncateRate:   f.TruncateRate,
		CorruptRate:    f.CorruptRate,
	}
}

// rejoinSink forwards events to the JSONL log and tells the harness when an
// endpoint finished its rejoin repair (the durability audit's evidence that
// the endpoint holds its data again). All emission paths run on the
// workflow goroutine — inline on the deterministic pool path, at the step
// barrier's DrainEvents on the concurrent path — so no locking is needed.
type rejoinSink struct {
	inner obs.Sink
	onUp  func(endpoint int)
}

func (t *rejoinSink) Emit(ev obs.Event) {
	if ev.Kind == obs.KindEndpointUp {
		t.onUp(ev.Endpoint)
	}
	t.inner.Emit(ev)
}

func (t *rejoinSink) Close() error { return t.inner.Close() }

// Flush forwards to the wrapped JSONL sink so the journal's barrier-flush
// hook can push buffered events to the log before capturing its offset.
func (t *rejoinSink) Flush() error {
	if f, ok := t.inner.(interface{ Flush() error }); ok {
		return f.Flush()
	}
	return nil
}

// harness is the per-run state the invariant checks read. On a crash
// schedule the run spans two driver "processes"; wf, pool and reg always
// point at the current one, and resumeBase is the first step the resumed
// driver executed (0 for uninterrupted runs).
type harness struct {
	s           Schedule
	wf          *core.Workflow
	pool        *staging.Pool
	fleet       *staging.Fleet
	reg         *obs.Registry
	resumeBase  int
	effCooldown int
	objective   policy.Objective
	planHas     map[policy.Mechanism]bool

	// probe is where probePut writes: the pool itself, or the probe
	// tenant's handle on it on two-tenant schedules.
	probe *staging.Pool

	// dataDead marks endpoints whose backing state is known lost (killed)
	// and not yet restored by a rejoin repair. Wipes deliberately do NOT
	// set it: silent state loss must not excuse the durability audit.
	dataDead []bool

	// lossArmed goes false — permanently — once every replica of some
	// shard was dataDead at the same time: from then on missing blocks are
	// legitimate and the durability audit stops.
	lossArmed bool

	// dataRoot is the durable shape's temp root (restart schedules only),
	// the fleet's DataDir. faultErr holds the first restart I/O failure — a
	// harness failure, not a violation.
	dataRoot string
	faultErr error

	lastFailStep  int  // most recent staging_failure step, -1 before any
	durabilityHit bool // durability reported once per run
	violations    []Violation
	probeBoxes    []grid.Box
}

func (h *harness) violate(invariant string, step int, format string, args ...any) {
	h.violations = append(h.violations, Violation{
		Invariant: invariant,
		Step:      step,
		Detail:    fmt.Sprintf(format, args...),
	})
}

// traceSeedOf derives the deterministic trace-ID seed from the schedule
// fields that shape a run. Crash is deliberately excluded: a crashed-and-
// resumed run must share the trace identity of its uninterrupted twin, or
// the resume-determinism byte comparison could never hold.
func traceSeedOf(s Schedule) string {
	seed := fmt.Sprintf("chaos/seed=%d/steps=%d/servers=%d/replicas=%d/conc=%d",
		s.Seed, s.Steps, s.Servers, s.Replicas, s.Concurrency)
	// Appended only on the two-tenant shape so historical schedules keep
	// their trace identities (and their journal fingerprints) byte for byte.
	if s.Tenants == 2 {
		seed += fmt.Sprintf("/tenants=%d", s.Tenants)
	}
	if len(s.Restarts) > 0 {
		seed += fmt.Sprintf("/restarts=%d", len(s.Restarts))
	}
	return seed
}

// Run drives one schedule through the real engine and returns the
// violations its invariant registry found. The run is hermetic: loopback
// TCP servers, in-memory event/span/journal buffers, a private metrics
// registry. Every run write-ahead journals its step barriers; a schedule
// with a Crash drives the workflow to the crash barrier, abandons it the
// way SIGKILL would — workflow, emitter, and tracer dropped with their
// buffers unflushed, only the pool client's sockets dying with the driver
// — then recovers the journal and resumes a second workflow over the same
// staging servers.
func Run(s Schedule) (*RunResult, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	domain := grid.NewBox(grid.IV(0, 0, 0), grid.IV(domainSide-1, domainSide-1, domainSide-1))

	h := &harness{
		s:            s,
		lossArmed:    true,
		lastFailStep: -1,
		dataDead:     make([]bool, s.Servers),
		planHas:      make(map[policy.Mechanism]bool),
		probeBoxes:   probeBoxes(),
	}
	h.objective, _ = policy.ParseObjective(s.Objective) // Validate vouched for it
	for _, m := range policy.Plan(h.objective) {
		h.planHas[m] = true
	}
	h.effCooldown = effectiveCooldown(s.Cooldown)

	// The staging servers outlive a driver crash — in the deployment shape
	// they are separate processes a workflow kill cannot touch — so they
	// are stood up once and shared by both phases. They carry no emitter
	// and no registry: no invariant reads the server side's counts.
	fail := func(err error) (*RunResult, error) {
		if h.fleet != nil {
			h.fleet.Close()
		}
		if h.dataRoot != "" {
			os.RemoveAll(h.dataRoot)
		}
		return nil, err
	}
	// Durable shape: any schedule with a restart runs every server over its
	// own data dir from step 0, so a restart can recover whatever the run
	// accumulated. The dirs live under one temp root, removed on a clean run
	// and preserved (as RunResult.DataDir) when the run violates.
	if len(s.Restarts) > 0 {
		root, err := os.MkdirTemp("", "xlayer-chaos-data-")
		if err != nil {
			return nil, fmt.Errorf("chaos: data root: %w", err)
		}
		h.dataRoot = root
	}
	fo := staging.FleetOptions{
		Servers:  s.Servers,
		Domain:   domain,
		Capacity: s.SqueezeBytes,
		DataDir:  h.dataRoot,
	}
	if s.Tenants == 2 && s.QuotaBytes > 0 {
		fo.Quotas = map[string]staging.TenantQuota{probeTenant: {MaxBytes: s.QuotaBytes}}
	}
	if s.Net != nil {
		plan := s.Net.plan()
		fo.Fault = &plan
	}
	fleet, err := staging.NewFleet(fo)
	if err != nil {
		return fail(fmt.Errorf("chaos: %w", err))
	}
	h.fleet = fleet
	addrs := fleet.Addrs()

	var logBuf, spanBuf, jbuf bytes.Buffer
	crashAt := -1
	if s.Crash != nil {
		crashAt = s.Crash.At
	}
	res, err := h.drive(&logBuf, &spanBuf, &jbuf, domain, addrs, nil, crashAt)
	if err != nil {
		return fail(err)
	}
	if s.Crash != nil {
		rec, err := journal.Scan(bytes.NewReader(jbuf.Bytes()))
		if err != nil {
			return fail(fmt.Errorf("chaos: journal recovery: %w", err))
		}
		cp := rec.Last()
		if cp == nil || cp.Step != s.Crash.At {
			return fail(fmt.Errorf("chaos: journal holds no checkpoint for crash step %d", s.Crash.At))
		}
		// The spec layer's openLog, in memory: amputate whatever the dying
		// driver had buffered past what the last barrier flushed.
		logBuf.Truncate(int(cp.EventsOffset))
		spanBuf.Truncate(int(cp.SpansOffset))
		res, err = h.drive(&logBuf, &spanBuf, &jbuf, domain, addrs, rec, -1)
		if err != nil {
			return fail(err)
		}
	}
	if h.faultErr != nil {
		return fail(h.faultErr)
	}

	// Final audit: per-step audits run before that step's faults apply, so
	// a fault scheduled at the last step (a wipe, in particular) is only
	// visible here.
	h.checkDurability(s.Steps - 1)
	durabilityChecked := h.durabilityArmed()

	if err := h.wf.Close(); err != nil {
		return nil, fmt.Errorf("chaos: close: %w", err)
	}
	if err := fleet.Shutdown(); err != nil {
		return nil, fmt.Errorf("chaos: shutdown: %w", err)
	}
	events, err := obs.ReadEvents(bytes.NewReader(logBuf.Bytes()))
	if err != nil {
		return nil, fmt.Errorf("chaos: event log: %w", err)
	}
	sum := obs.SummarizeEvents(events)
	h.checkEndOfRun(res, sum)
	h.checkSpanTree(spanBuf.Bytes(), sum)

	dataDir := ""
	if h.dataRoot != "" {
		if len(h.violations) > 0 {
			dataDir = h.dataRoot
		} else {
			os.RemoveAll(h.dataRoot)
		}
	}
	return &RunResult{
		Schedule:          s,
		Violations:        h.violations,
		EventLog:          append([]byte(nil), logBuf.Bytes()...),
		SpanLog:           append([]byte(nil), spanBuf.Bytes()...),
		Steps:             res.Steps,
		DegradedSteps:     countDegraded(res.Steps),
		DurabilityChecked: durabilityChecked,
		DataDir:           dataDir,
	}, nil
}

// drive stands up one workflow "process" over the shared logs, journal,
// and staging servers, and runs it: a fresh workflow from step 0 when rec
// is nil, a resumed one from rec's last checkpoint otherwise. crashAt >= 0
// abandons the phase right after that step's barrier — nothing flushed or
// closed except the pool client — and returns a zero Result; the resumed
// phase reports the whole run.
func (h *harness) drive(logBuf, spanBuf, jbuf *bytes.Buffer, domain grid.Box, addrs []string, rec *journal.Recovered, crashAt int) (core.Result, error) {
	s := h.s
	amrCfg := amr.Config{Domain: domain, MaxLevel: 1, NRanks: 8}
	var sim solver.Simulation
	if s.App == "polytropic-gas" {
		sim = solver.NewPolytropicGas(solver.GasConfig{AMR: amrCfg})
	} else {
		sim = solver.NewAdvectionDiffusion(solver.AdvDiffConfig{AMR: amrCfg})
	}

	// Every phase gets a fresh emitter, tracer and registry — a resumed
	// driver is a new process whose counters start at zero; the sinks append
	// to the shared in-memory logs. The span-tree invariant reconstructs the
	// causal tree from the span log and cross-checks it against the event
	// log, and Verify byte-compares both logs across replays.
	em := obs.NewEmitter(&rejoinSink{inner: obs.NewJSONLSink(logBuf), onUp: func(ep int) {
		if ep >= 0 && ep < len(h.dataDead) {
			h.dataDead[ep] = false
		}
	}})
	reg := obs.NewRegistry()
	tracer := span.NewTracer(span.NewJSONLSink(spanBuf), traceSeedOf(s))
	h.reg = reg

	copts := staging.LoopbackClient()
	copts.MaxRetries = 1 // the pool's circuit breaker is the resilience layer
	pool, err := staging.NewPool(addrs, domain, staging.PoolOptions{
		Replicas:    s.Replicas,
		Concurrency: s.Concurrency,
		Client:      copts,
		Events:      em,
		Metrics:     reg,
	})
	if err != nil {
		return core.Result{}, err
	}
	// On the two-tenant shape the workflow and the probes each get a
	// tenant handle on the pool; the workflow's step barrier drains the
	// shared pool through its handle.
	h.pool, h.probe = pool, pool
	store, wfTen := pool, ""
	if s.Tenants == 2 {
		wfTen = wfTenant
		if store, err = pool.Tenant(wfTenant); err == nil {
			h.probe, err = pool.Tenant(probeTenant)
		}
		if err != nil {
			pool.Close()
			return core.Result{}, fmt.Errorf("chaos: tenant handle: %w", err)
		}
	}

	// The write-ahead journal rides every run, crash or not, so the
	// checkpoint_write events are a uniform part of the deterministic
	// stream the replay and resume comparisons hold against.
	jw := journal.NewWriter(jbuf)
	if rec == nil {
		if err := jw.WriteHeader(journal.Header{Fingerprint: traceSeedOf(s), TraceSeed: traceSeedOf(s)}); err != nil {
			pool.Close()
			return core.Result{}, fmt.Errorf("chaos: journal: %w", err)
		}
	}
	jw.SetBarrierFlush(func() (int64, int64, error) {
		if err := em.Flush(); err != nil {
			return 0, 0, err
		}
		if err := tracer.Flush(); err != nil {
			return 0, 0, err
		}
		return int64(logBuf.Len()), int64(spanBuf.Len()), nil
	})

	cfg := core.Config{
		Machine:                sysmodel.Intrepid(),
		SimCores:               simCores,
		StagingCores:           stagingCores,
		Objective:              h.objective,
		StaticPlacement:        policy.PlaceInTransit,
		EnableHybrid:           s.Hybrid,
		Staging:                store,
		Tenant:                 wfTen,
		StagingFailureCooldown: s.Cooldown,
		StagingConcurrency:     s.Concurrency,
		AfterStep:              h.afterStep,
		Obs:                    em,
		Trace:                  tracer,
		Metrics:                reg,
		Journal:                jw,
	}
	mechs, _ := policy.ParseMechanisms(s.Adapt)
	cfg.Enable = core.AdaptationsOf(mechs)
	if len(s.Factors) > 0 {
		cfg.Hints.Mode = policy.AppRangeBased
		cfg.Hints.FactorPhases = []policy.FactorPhase{{FromStep: 0, Factors: s.Factors}}
	}

	var wf *core.Workflow
	if rec != nil {
		wf, err = core.ResumeWorkflow(cfg, sim, rec)
	} else {
		wf, err = core.NewWorkflow(cfg, sim)
	}
	if err != nil {
		pool.Close()
		return core.Result{}, err
	}
	// Close order (last-attached first): pool drains its buffered events
	// and spans, then the tracer and the emitter flush their JSONL logs.
	wf.AddCloser(em)
	wf.AddCloser(tracer)
	wf.AddCloser(pool)
	h.wf = wf
	if rec != nil {
		h.resumeBase = wf.NextStep()
		// The resume re-armed the pool's content manifest and audited it;
		// while the audit is armed the crash window must not have lost a
		// single journaled block.
		if missing := wf.ResumeAuditMissing(); missing > 0 && h.durabilityArmed() && !h.durabilityHit {
			h.durabilityHit = true
			h.violate(InvDurability, h.resumeBase-1,
				"resume audit: %d journaled blocks missing from every replica after the crash", missing)
		}
	}

	if crashAt >= 0 {
		for wf.NextStep() <= crashAt {
			wf.Step()
		}
		if err := wf.JournalErr(); err != nil {
			return core.Result{}, fmt.Errorf("chaos: journal: %w", err)
		}
		// The driver is now "killed": the pool client's sockets die with
		// it, everything else is deliberately leaked unflushed.
		pool.Close()
		return core.Result{}, nil
	}
	res := wf.Run(s.Steps - wf.NextStep())
	if err := wf.JournalErr(); err != nil {
		return core.Result{}, fmt.Errorf("chaos: journal: %w", err)
	}
	return res, nil
}

// effectiveCooldown mirrors the cooldown core applies: unset is 2, and a
// negative one disables it.
func effectiveCooldown(c int) int {
	if c == 0 {
		return 2
	}
	if c < 0 {
		return 0
	}
	return c
}

func countDegraded(steps []core.StepRecord) int {
	n := 0
	for _, rec := range steps {
		if rec.PlacementReason == policy.ReasonStagingFailure {
			n++
		}
	}
	return n
}

// probeBoxes are the durability tracer blocks: tiny 2³ boxes at spread-out
// corners of the domain so the Morton router lands them on different
// shards. One copy of each is put per step under probeVar and never
// dropped, giving the audit state that outlives the workflow's
// produce-consume-drop cycle.
func probeBoxes() []grid.Box {
	at := func(x, y, z int) grid.Box {
		return grid.NewBox(grid.IV(x, y, z), grid.IV(x+1, y+1, z+1))
	}
	m := domainSide - 2
	return []grid.Box{at(0, 0, 0), at(m, 0, 0), at(0, m, 0), at(m, m, m)}
}

// afterStep is the harness's hook on the workflow's step barrier. Order
// matters: first the just-finished step is judged against the invariant
// registry under the fault state it actually ran under, then this step's
// scheduled faults fire, then the probe blocks are put so the next audit
// has fresh state to track.
func (h *harness) afterStep(step int) {
	rec := h.record(step)
	h.checkDegradationSoundness(step, rec)
	h.checkPolicyConformance(step, rec)
	h.checkDurability(step)
	h.applyFaults(step)
	h.updateLossArmed()
	h.probePut(step)
	// The probe puts' op spans and endpoint events (a probe can trip a
	// breaker or run a rejoin repair) buffer on the concurrent path; drain
	// them at this barrier — while the virtual clock is quiescent, and
	// before the checkpoint a driver crash resumes from — instead of
	// letting them leak into the next step's drain with a later stamp.
	h.pool.DrainSpans()
	h.pool.DrainEvents()
}

func (h *harness) record(step int) core.StepRecord {
	steps := h.wf.Result().Steps
	return steps[step]
}

func (h *harness) applyFaults(step int) {
	for _, k := range h.s.Kills {
		if k.At == step {
			h.fleet.Kill(k.Server)
			h.dataDead[k.Server] = true
		}
		if k.Revive != 0 && k.Revive == step {
			h.fleet.Revive(k.Server)
		}
	}
	for _, r := range h.s.Restarts {
		if r.At == step {
			h.restart(r)
		}
	}
	if w := h.s.Wipe; w != nil && w.At == step {
		// Silent state loss: the space empties but the gate stays up and
		// dataDead is deliberately NOT set — the audit must catch this.
		h.fleet.Wipe(w.Server)
	}
}

// restart hard-kills one durable server at a step barrier and brings it
// back over its data dir (Fleet.Restart). Recovery restores the acked
// pre-restart state exactly, so dataDead is left untouched on the Recover
// path: whatever the endpoint already owed to rejoin repair it still owes,
// and the restart itself lost nothing — the durability audit stays armed
// straight through. A discarded dir is real data loss and marks it.
func (h *harness) restart(r Restart) {
	if _, err := h.fleet.Restart(r.Server, r.Recover); err != nil {
		if h.faultErr == nil {
			h.faultErr = fmt.Errorf("chaos: %w", err)
		}
		return // gate stays down: the server never came back
	}
	if !r.Recover {
		h.dataDead[r.Server] = true
	}
}

// updateLossArmed disarms the durability audit permanently once any
// shard's full replica set is dataDead at the same time: from that moment
// the pool is allowed to have lost blocks.
func (h *harness) updateLossArmed() {
	if !h.lossArmed {
		return
	}
	n := h.s.Servers
	for shard := 0; shard < n; shard++ {
		allDead := true
		for j := 0; j < h.s.Replicas; j++ {
			if !h.dataDead[(shard+j)%n] {
				allDead = false
				break
			}
		}
		if allDead {
			h.lossArmed = false
			return
		}
	}
}

// probePut stores this step's tracer blocks — through the probe tenant's
// handle on two-tenant schedules. Failures are tolerated: a full outage, a
// memory squeeze, or the probe tenant's quota legitimately rejects puts,
// and the pool records only successful puts in the manifest the audit
// checks.
func (h *harness) probePut(step int) {
	for i, box := range h.probeBoxes {
		d := field.New(box, 1)
		comp := d.Comp(0)
		for j := range comp {
			comp[j] = float64(step*31 + i)
		}
		_ = h.probe.Put(probeVar, step, d)
	}
}
