package core

import (
	"fmt"
	"io"
	"math"
	"sync"

	"crosslayer/internal/amr"
	"crosslayer/internal/analysis"
	"crosslayer/internal/field"
	"crosslayer/internal/journal"
	"crosslayer/internal/monitor"
	"crosslayer/internal/obs"
	"crosslayer/internal/obs/span"
	"crosslayer/internal/policy"
	"crosslayer/internal/solver"
	"crosslayer/internal/staging"
	"crosslayer/internal/sysmodel"
)

// Adaptations selects which mechanisms the Engine may execute; disabling
// all three yields the static baselines the paper compares against.
type Adaptations struct {
	Application bool
	Middleware  bool
	Resource    bool
}

// AdaptationsOf enables the mechanisms in a set (see policy.ParseMechanisms).
func AdaptationsOf(on map[policy.Mechanism]bool) Adaptations {
	return Adaptations{
		Application: on[policy.MechApplication],
		Middleware:  on[policy.MechMiddleware],
		Resource:    on[policy.MechResource],
	}
}

// MemOverhead multiplies raw field bytes into resident simulation memory
// (solver scratch, ghost copies, metadata). The figure harnesses calibrate
// their model scale against the same factor.
const MemOverhead = 3.0

// Config assembles a workflow.
type Config struct {
	Machine      sysmodel.Machine
	SimCores     int // N: simulation cores in the cost model
	StagingCores int // pre-allocated in-transit pool ceiling

	Objective policy.Objective
	Hints     policy.Hints
	Enable    Adaptations

	// StaticPlacement is used for every step when Enable.Middleware is
	// false (the paper's static in-situ / static in-transit baselines).
	StaticPlacement policy.Placement

	// Isovalues configure the default visualization service.
	Isovalues []float64

	// Analysis is the analysis service placed by the middleware layer.
	// Nil selects the paper's isosurface service over Isovalues; the
	// statistics and subsetting services of internal/analysis plug in the
	// same way (§5.2.4's extensibility claim).
	Analysis analysis.Service

	// CellScale maps the real (laptop-size) hierarchy onto the paper-size
	// problem: every cell and byte count is multiplied by it before
	// entering the cost model, so the dynamics (refinement bursts,
	// imbalance) are real while the magnitudes match the target machine.
	// Default 1.
	CellScale float64

	// EnableHybrid allows the middleware layer to split one step's
	// analysis between in-situ and in-transit (§3's third placement
	// option): staging gets exactly what it can absorb before the next
	// step's data, the rest runs in-situ. Requires Enable.Middleware.
	EnableHybrid bool

	// Staging optionally routes in-transit data through an external
	// staging transport — a staging.Pool over TCP servers, or a store
	// wrapping one, driven as a replicated store (see replicated) — instead
	// of the workflow's in-process Space. A remote transport can fail; when
	// an operation returns staging.ErrStagingUnavailable the step degrades
	// gracefully to in-situ execution (placement_reason=staging_failure)
	// and the engine holds placement in-situ for StagingFailureCooldown
	// steps. Nil keeps the in-process space.
	Staging StagingStore

	// StagingFailureCooldown is how many extra steps placement stays
	// in-situ after a staging transport failure (default 2; negative
	// disables the cooldown, so only the failing step itself degrades).
	StagingFailureCooldown int

	// StagingConcurrency bounds how many block transfers the workflow keeps
	// in flight against the staging store at once. The default 1 is the
	// Deterministic mode: every put runs inline on the workflow goroutine in
	// today's serialized order, so seeded runs reproduce their event logs
	// byte for byte. Values > 1 enable the concurrent data path: each
	// analyzed step's blocks are dispatched asynchronously (overlapping the
	// in-situ share of a hybrid step with the in-transit drain) and joined
	// at the step barrier before any modeled cost is booked. The store must
	// be safe for concurrent use — staging.Pool, staging.Client, and the
	// in-process Space all are. Pair with a pool built with the same
	// PoolOptions.Concurrency so the fan-out reaches the endpoint pipelines.
	StagingConcurrency int

	// AfterStep, when set, runs synchronously on the workflow goroutine
	// after each completed step with that step's index. The crash/rejoin
	// harness uses it to kill and revive staging servers at scheduled
	// steps, keeping seeded failure runs deterministic.
	AfterStep func(step int)

	// Obs receives the structured runtime event stream (nil disables
	// emission; the disabled path is allocation-free on the step hot
	// loop). The workflow installs its virtual clock into the emitter so
	// event timestamps are model time — seeded runs stay byte-identical.
	Obs *obs.Emitter

	// Trace receives the causal span tree (nil disables tracing with the
	// same allocation-free contract as Obs). The workflow installs its
	// virtual clock into the tracer, opens the run span, and threads phase
	// spans (solve / analyze / ship / barrier), policy-decision spans, and
	// the staging pool's per-op spans under it. Span timestamps are model
	// time and span IDs derive from (seed, step, op-seq), so seeded runs
	// produce byte-identical span logs at any StagingConcurrency.
	Trace *span.Tracer

	// Metrics, when set, registers the workflow's run metrics: step
	// counters, sim/analysis/transfer-seconds histograms, placement and
	// adaptation counters, and staging-pool gauges.
	Metrics *obs.Registry

	// Tenant names the namespace this workflow's staging traffic runs in
	// when its store is a tenant handle on a pool (PoolOptions.Tenant or
	// Pool.Tenant). The engine stamps it into every emitted event so
	// shared-pool runs attribute their streams by tenant; the handle, not
	// the engine, qualifies variable names. A handle's drains and span scope
	// act on the whole pool, so workflows sharing one pool concurrently
	// should run it inline and untraced. Empty = single-tenant (the
	// historical behavior, with byte-identical logs).
	Tenant string

	// Journal, when set, receives one write-ahead checkpoint per step
	// barrier — the crash-consistency contract: after Step(k) returns, a
	// killed driver can resume from step k+1 (see ResumeWorkflow). The
	// checkpoint is written at the same quiescent point where buffered
	// events and spans drain, so its cursors and log offsets are exact.
	Journal CheckpointSink
}

func (c *Config) withDefaults() Config {
	out := *c
	if out.SimCores == 0 {
		out.SimCores = 1024
	}
	if out.StagingCores == 0 {
		out.StagingCores = out.SimCores / 16 // the paper's 16:1 ratio
	}
	if out.CellScale == 0 {
		out.CellScale = 1
	}
	if len(out.Isovalues) == 0 {
		out.Isovalues = []float64{1.23, 4.18} // the paper's Fig. 6 isovalues
	}
	if out.Analysis == nil {
		out.Analysis = analysis.NewIsosurface(out.Isovalues...)
	}
	if out.StagingFailureCooldown == 0 {
		out.StagingFailureCooldown = 2
	}
	if out.StagingConcurrency == 0 {
		out.StagingConcurrency = 1
	}
	return out
}

// Workflow couples a simulation with the visualization service through the
// staging space and drives the autonomic adaptation loop.
type Workflow struct {
	cfg    Config
	sim    solver.Simulation
	svc    analysis.Service
	store  StagingStore // where in-transit data goes (space or pool)
	pooled replicated   // store as a replicated pool; nil for any other store
	mon    *monitor.Monitor
	engine *Engine

	closers []io.Closer // transport resources shut down by Close

	simTL *sysmodel.Timeline
	pool  *sysmodel.StagingPool

	// model-scale staging occupancy (the real Space stores laptop-scale
	// blocks; capacity checks happen at model scale).
	stagingMemUsed int64
	stagingMemCap  int64

	events *obs.Emitter
	met    *coreMetrics
	counts *obs.Counts // staging_degrade, resource_resize
	span   obs.StepCtx // the in-flight step's event context

	tracer  *span.Tracer
	runCtx  span.Ctx // the whole run's root span
	stepCtx span.Ctx // the in-flight step's span
	shipCtx span.Ctx // the in-flight step's ship phase, open until the barrier

	// last analyzed-step placement, for placement_change events.
	lastPlacement  policy.Placement
	placementKnown bool

	journal    CheckpointSink
	journalErr error  // sticky: first failed checkpoint write
	runSpanSeq uint64 // op-seq of the run root span, journaled for re-adoption

	// resumeAuditMissing is the post-resume durability audit's shortfall
	// (blocks the journaled manifest promises that no replica still holds).
	resumeAuditMissing int

	step   int
	result Result
}

// NewWorkflow validates cfg and builds the runtime around sim.
func NewWorkflow(cfg Config, sim solver.Simulation) (*Workflow, error) {
	return buildWorkflow(cfg, sim, nil)
}

// buildWorkflow is the shared constructor behind NewWorkflow and
// ResumeWorkflow: a non-nil rec switches the observability bring-up from
// "open a fresh run" (run_started banner, new run root span) to "rejoin the
// journaled one" (continue cursors, re-adopt the open root span).
func buildWorkflow(cfg Config, sim solver.Simulation, rec *journal.Recovered) (*Workflow, error) {
	c := cfg.withDefaults()
	if sim == nil {
		return nil, fmt.Errorf("core: nil simulation")
	}
	if c.SimCores < 1 || c.StagingCores < 1 {
		return nil, fmt.Errorf("core: need at least one core on each side (N=%d, M=%d)", c.SimCores, c.StagingCores)
	}
	if c.StagingConcurrency < 1 {
		return nil, fmt.Errorf("core: staging concurrency must be >= 1, got %d", c.StagingConcurrency)
	}
	if c.Tenant != "" && !staging.ValidTenant(c.Tenant) {
		return nil, fmt.Errorf("core: %w: %q", staging.ErrBadTenant, c.Tenant)
	}
	w := &Workflow{
		cfg:           c,
		sim:           sim,
		svc:           c.Analysis,
		mon:           monitor.New(0),
		simTL:         &sysmodel.Timeline{},
		pool:          sysmodel.NewStagingPool(c.StagingCores),
		stagingMemCap: c.Machine.MemPerCore() * int64(c.StagingCores),
	}
	w.store = c.Staging
	if w.store == nil {
		// The in-process space exists only when it is the store.
		w.store = staging.NewSpace(1, 0, sim.Hierarchy().Cfg.Domain)
	}
	w.pooled, _ = w.store.(replicated)
	w.engine = NewEngine(c)
	if !c.Enable.Resource {
		w.pool.Resize(c.StagingCores) // static allocation keeps the full pool
	}
	w.events = c.Obs
	w.met = newCoreMetrics(c.Metrics)
	w.counts = obs.NewCounts(c.Metrics, obs.KindStagingDegrade, obs.KindResourceResize)
	w.journal = c.Journal
	if w.events != nil {
		w.events.SetTenant(c.Tenant)
		// Event timestamps are the workflow's model time: the later of the
		// two timelines' frontiers. Deterministic across seeded runs.
		w.events.SetVirtualClock(func() float64 {
			return math.Max(w.simTL.FreeAt(), w.pool.FreeAt())
		})
	}
	w.tracer = c.Trace
	if w.tracer != nil {
		// Span stamps share the emitter's model clock, and the pool parents
		// its op spans under the run span until a step's ship phase takes
		// over — so probe puts and rejoin repairs outside any ship phase
		// stay well-parented.
		w.tracer.SetVirtualClock(func() float64 {
			return math.Max(w.simTL.FreeAt(), w.pool.FreeAt())
		})
	}
	if rec != nil {
		if err := w.resume(rec); err != nil {
			return nil, err
		}
		return w, nil
	}
	w.events.RunStarted(fmt.Sprintf(
		"objective=%s sim_cores=%d staging_cores=%d app=%t mw=%t res=%t",
		c.Objective, c.SimCores, c.StagingCores,
		c.Enable.Application, c.Enable.Middleware, c.Enable.Resource))
	if w.tracer != nil {
		w.runCtx = w.tracer.Begin(span.Ctx{}, "run", span.LayerRun, span.StepUnset)
		w.runSpanSeq = w.tracer.Seq()
		w.setSpanScope(w.runCtx)
	}
	return w, nil
}

// AddCloser registers a transport resource (staging client, server, …) to
// shut down with the workflow.
func (w *Workflow) AddCloser(c io.Closer) { w.closers = append(w.closers, c) }

// Close releases registered transport resources, last-attached first. A
// workflow with none is trivially closable; running a workflow after Close
// is invalid.
func (w *Workflow) Close() error {
	// A run span left open (the workflow was stepped without Run, or Run
	// never finished) would orphan every span beneath it — end it before
	// the closers release the tracer's sink, so the log always holds a
	// complete tree.
	if w.runCtx.Enabled() {
		if w.pooled != nil {
			w.pooled.DrainSpans()
		}
		w.runCtx.End()
		w.runCtx = span.Ctx{}
	}
	var first error
	for i := len(w.closers) - 1; i >= 0; i-- {
		if err := w.closers[i].Close(); err != nil && first == nil {
			first = err
		}
	}
	w.closers = nil
	return first
}

// Monitor exposes the workflow's monitor (read-only use).
func (w *Workflow) Monitor() *monitor.Monitor { return w.mon }

// Simulation exposes the coupled simulation (e.g. for snapshotting its
// hierarchy after a run).
func (w *Workflow) Simulation() solver.Simulation { return w.sim }

// Result returns the accumulated run result. EndToEnd and derived fields
// are finalized on every call, so it is safe to inspect mid-run.
func (w *Workflow) Result() Result {
	r := w.result
	r.EndToEnd = math.Max(w.simTL.FreeAt(), w.pool.FreeAt())
	r.OverheadSeconds = r.EndToEnd - r.SimSecondsTotal
	r.StagingUtilization = w.pool.Utilization()
	r.EnergyJoules = w.cfg.Machine.Energy(w.cfg.SimCores, r.EndToEnd) +
		w.cfg.Machine.Energy(1, w.pool.CoreSecondsTotal())
	return r
}

// scale maps a real count onto the model scale.
func (w *Workflow) scale(v int64) int64 {
	return int64(float64(v) * w.cfg.CellScale)
}

// effectiveStagingCap is the staging memory capacity the policies should
// plan against: the configured capacity scaled to the healthy fraction of a
// replicated pool's endpoints. A crashed server's memory is capacity the
// run no longer has — the resource layer must see it gone (Eq. 10). With
// every endpoint down the capacity is one byte, not zero: zero means
// "unlimited" to the policies, the exact opposite of a dead pool.
func (w *Workflow) effectiveStagingCap(healthy, total int) int64 {
	cap := w.stagingMemCap
	if total <= 0 || healthy >= total || cap == 0 {
		return cap
	}
	cap = cap * int64(healthy) / int64(total)
	if cap <= 0 {
		cap = 1
	}
	return cap
}

// analysisBlocks extracts the analysis component of every patch of every
// level as standalone single-component blocks.
func (w *Workflow) analysisBlocks() []*field.BoxData {
	h := w.sim.Hierarchy()
	comp := w.sim.AnalysisComp()
	var out []*field.BoxData
	for _, l := range h.Levels {
		for _, p := range l.Patches {
			b := field.New(p.Box, 1)
			copy(b.Comp(0), p.Data.Comp(comp))
			out = append(out, b)
		}
	}
	return out
}

// memSample computes the per-rank memory state at model scale.
func (w *Workflow) memSample(h *amr.Hierarchy) (used, avail []int64) {
	perRank := h.BytesPerRank()
	used = make([]int64, len(perRank))
	avail = make([]int64, len(perRank))
	memPerCore := w.cfg.Machine.MemPerCore()
	// Ranks in the cost model outnumber real ranks; each real rank stands
	// for SimCores/NRanks model cores, so its per-core share divides out.
	coresPerRank := float64(w.cfg.SimCores) / float64(len(perRank))
	for i, b := range perRank {
		u := int64(float64(w.scale(b)) * MemOverhead / coresPerRank)
		used[i] = u
		a := memPerCore - u
		if a < 0 {
			a = 0
		}
		avail[i] = a
	}
	return used, avail
}

// Step advances the workflow one time step: simulate, monitor, adapt,
// execute. It returns the step's record.
func (w *Workflow) Step() StepRecord {
	c := &w.cfg
	h := w.sim.Hierarchy()
	w.span = w.events.BeginStep(w.step)
	w.stepCtx = w.tracer.Begin(w.runCtx, "step", span.LayerStep, w.step)

	// --- 1. simulation advances (real compute), cost modeled ---
	solve := w.tracer.Begin(w.stepCtx, "solve", span.LayerSolver, w.step)
	stats := w.sim.Step()
	imbalance := sysmodel.ImbalanceFactor(h.CellsPerRank())
	simSecs := c.Machine.SimTime(w.scale(stats.CellsUpdated), c.SimCores) * imbalance
	simStart := w.simTL.FreeAt()
	_, simEnd := w.simTL.Schedule(simStart, simSecs)
	solve.End()

	rec := StepRecord{
		Step:        w.step,
		Factor:      1,
		SimSeconds:  simSecs,
		FinestLevel: stats.FinestLevel,
	}

	// --- 2. monitor samples the operational state ---
	blocks := w.analysisBlocks()
	var rawCells int64
	for _, b := range blocks {
		rawCells += b.NumCells()
	}
	rawBytes := w.scale(rawCells * 8)
	rec.BytesProduced = rawBytes

	memUsed, memAvail := w.memSample(h)
	var maxRankCells int64
	for _, cells := range h.CellsPerRank() {
		if cells > maxRankCells {
			maxRankCells = cells
		}
	}
	coresPerRank := float64(w.cfg.SimCores) / float64(h.Cfg.NRanks)
	maxRankData := int64(float64(w.scale(maxRankCells*8)) / coresPerRank)
	var healthy, totalEps int // 0 of 0: the store tracks no endpoints
	if w.pooled != nil {
		healthy, totalEps = w.pooled.HealthyEndpoints()
	}
	sample := monitor.Sample{
		Step:                    w.step,
		SimSeconds:              simSecs,
		DataBytes:               rawBytes,
		DataCells:               w.scale(rawCells),
		Imbalance:               imbalance,
		MemUsedPerRank:          memUsed,
		MemAvailPerRank:         memAvail,
		StagingMemCap:           w.effectiveStagingCap(healthy, totalEps),
		MaxRankDataBytes:        maxRankData,
		StagingHealthyEndpoints: healthy,
		StagingTotalEndpoints:   totalEps,
	}
	w.mon.Record(sample)
	rec.PeakMemBytes = sample.MaxMemUsed()
	rec.MinMemAvail = sample.MinMemAvail()
	rec.MaxRankDataBytes = sample.MaxRankDataBytes

	// --- 3. adaptation engine decides; 4. decisions execute ---
	w.runAnalysis(&rec, blocks, sample, simEnd)

	// Step barrier: every transfer has joined, so flush endpoint events and
	// pool-op spans a concurrent staging pool buffered during the step.
	// Deterministic stores emit inline and both drains are no-ops. The ship
	// phase span closes only after the span drain, so drained pool spans
	// land inside their parent's interval; the pool then re-parents under
	// the run span for any out-of-step work (probe puts, rejoin repair).
	barrier := w.tracer.Begin(w.stepCtx, "barrier", span.LayerBarrier, w.step)
	if w.pooled != nil {
		w.pooled.DrainEvents()
		w.pooled.DrainSpans()
	}
	if w.shipCtx.Enabled() {
		w.shipCtx.End()
		w.shipCtx = span.Ctx{}
		w.setSpanScope(w.runCtx)
	}
	barrier.End()

	// account the staging pool through this step's span for Eq. 12
	spanSecs := math.Max(w.simTL.FreeAt(), w.pool.FreeAt()) - math.Max(simStart, 0)
	if prev := len(w.result.Steps); prev > 0 {
		spanSecs = math.Max(w.simTL.FreeAt(), w.pool.FreeAt()) -
			math.Max(w.result.Steps[prev-1].SimClock, w.result.Steps[prev-1].StagingClock)
	}
	w.pool.AccountSpan(spanSecs)

	rec.SimClock = w.simTL.FreeAt()
	rec.StagingClock = w.pool.FreeAt()
	rec.StagingCores = w.pool.Cores()
	rec.StagingMemUsed = w.stagingMemUsed

	w.result.Steps = append(w.result.Steps, rec)
	w.result.SimSecondsTotal += simSecs
	w.result.BytesMovedTotal += rec.BytesMoved
	if rec.Placement == policy.PlaceInSitu {
		w.result.InSituSteps++
	} else {
		w.result.InTransitSteps++
	}
	if w.span.Enabled() && w.placementKnown && rec.Placement != w.lastPlacement {
		w.span.PlacementChange(w.lastPlacement.String(), rec.Placement.String(), rec.PlacementReason)
	}
	w.lastPlacement, w.placementKnown = rec.Placement, true
	if m := w.met; m != nil {
		m.steps.Inc()
		m.simSeconds.Observe(simSecs)
		m.stepSeconds.Observe(spanSecs)
		m.bytesProduced.Add(float64(rec.BytesProduced))
		m.stagingCores.Set(float64(rec.StagingCores))
		m.stagingMemUsed.Set(float64(rec.StagingMemUsed))
		m.stagingMemCap.Set(float64(sample.StagingMemCap))
		if totalEps > 0 {
			m.stagingHealthy.Set(float64(healthy))
		}
		m.analysisSeconds.Observe(rec.AnalysisSeconds)
		m.bytesAnalyzed.Add(float64(rec.BytesAnalyzed))
		if rec.Placement == policy.PlaceInSitu {
			m.placeInSitu.Inc()
		} else {
			m.placeInTransit.Inc()
		}
		if rec.Factor > 1 {
			m.reductions.Inc()
		}
		if rec.BytesMoved > 0 {
			m.transferSeconds.Observe(rec.TransferSeconds)
			m.bytesMovedStep.Observe(float64(rec.BytesMoved))
			m.bytesMoved.Add(float64(rec.BytesMoved))
		}
	}
	if w.span.Enabled() {
		w.span.Finished(rec.Placement.String(), rec.Factor, simSecs,
			rec.AnalysisSeconds, rec.TransferSeconds, rec.BytesMoved)
	}
	if w.stepCtx.Enabled() {
		w.stepCtx.End()
		w.stepCtx = span.Ctx{}
	}
	w.step++
	if w.cfg.AfterStep != nil {
		w.cfg.AfterStep(rec.Step)
	}
	// The checkpoint is the last act of the step, after AfterStep: fault
	// hooks and probe traffic emit inside the captured cursors, so a crash
	// anywhere after Step returns is resumable at exactly this barrier.
	w.writeCheckpoint(rec)
	return rec
}

// Run advances the workflow `steps` steps and returns the final result.
func (w *Workflow) Run(steps int) Result {
	for i := 0; i < steps; i++ {
		w.Step()
	}
	res := w.Result()
	if w.events != nil {
		w.events.RunFinished(res.EndToEnd)
	}
	if w.runCtx.Enabled() {
		w.runCtx.End()
		w.runCtx = span.Ctx{}
	}
	return res
}

// runAnalysis performs the adaptation decisions and executes the analysis
// for one step's data.
func (w *Workflow) runAnalysis(rec *StepRecord, blocks []*field.BoxData, sample monitor.Sample, dataReady float64) {
	c := &w.cfg

	// Application layer: choose and apply the reduction.
	reduced, dec := w.engine.AdaptApplication(blocks, sample, w.step)
	rec.Factor = dec.Factor
	rec.Entropy = dec.MeanEntropy
	var redCells int64
	for _, b := range reduced {
		redCells += b.NumCells()
	}
	redBytes := w.scale(redCells * 8)
	rec.BytesAnalyzed = redBytes
	if dec.Applied {
		rec.ReduceSeconds = c.Machine.ReduceTime(sample.DataCells, c.SimCores)
		_, dataReady = w.simTL.Schedule(dataReady, rec.ReduceSeconds)
	}
	if w.span.Enabled() && c.Enable.Application {
		w.span.PolicyDecision("application", "", appDecisionReason(dec), dec.Factor, 0,
			fmt.Sprintf("raw_bytes=%d max_rank_bytes=%d min_mem_avail=%d entropy=%.4g",
				rec.BytesProduced, sample.MaxRankDataBytes, sample.MinMemAvail(), dec.MeanEntropy))
	}
	if w.stepCtx.Enabled() && c.Enable.Application {
		w.stepCtx.Record(span.Op{Name: "policy:application", Layer: span.LayerPolicy,
			Detail: fmt.Sprintf("%s factor=%d", appDecisionReason(dec), dec.Factor)})
	}

	// Resource layer: size the staging pool for this data volume.
	if c.Enable.Resource {
		prev := w.pool.Cores()
		m := w.engine.AdaptResource(redBytes, w.scale(redCells), sample, w.mon)
		if w.span.Enabled() {
			w.span.PolicyDecision("resource", "", "", 0, m,
				fmt.Sprintf("reduced_bytes=%d prev_cores=%d", redBytes, prev))
		}
		if w.stepCtx.Enabled() {
			w.stepCtx.Record(span.Op{Name: "policy:resource", Layer: span.LayerPolicy,
				Detail: fmt.Sprintf("cores=%d prev=%d", m, prev)})
		}
		w.pool.Resize(m)
		if m != prev {
			w.span.Record(w.counts, obs.ResourceResize(prev, m))
		}
	}

	// Middleware layer: place the analysis.
	transfer := c.Machine.TransferTime(redBytes, min(c.SimCores, w.pool.Cores()))
	st := PlacementState{
		ReducedBytes:     redBytes,
		ReducedCells:     w.scale(redCells),
		Sample:           sample,
		StagingCores:     w.pool.Cores(),
		StagingRemaining: w.pool.RemainingAt(dataReady),
		TransferSeconds:  transfer,
		StagingMemUsed:   w.stagingMemUsed,
		StagingMemCap:    sample.StagingMemCap,
	}
	placement, reason := w.engine.AdaptMiddleware(st)
	rec.Placement = placement
	rec.PlacementReason = reason
	if w.span.Enabled() && c.Enable.Middleware {
		w.span.PolicyDecision("middleware", placement.String(), reason, 0, 0,
			fmt.Sprintf("reduced_bytes=%d transfer_s=%.4g staging_remaining_s=%.4g staging_mem=%d/%d",
				redBytes, transfer, st.StagingRemaining, w.stagingMemUsed, sample.StagingMemCap))
	}
	if w.stepCtx.Enabled() && c.Enable.Middleware {
		w.stepCtx.Record(span.Op{Name: "policy:middleware", Layer: span.LayerPolicy,
			Detail: fmt.Sprintf("placement=%s reason=%s", placement, reason)})
	}

	// Hybrid placement: when enabled and both sides could host the work,
	// split the blocks so staging gets exactly what it can absorb before
	// the next step's data and the rest runs in-situ.
	if c.EnableHybrid && c.Enable.Middleware {
		phi := w.engine.HybridFraction(st, w.mon.PredictSimSeconds(sample.SimSeconds))
		if phi > 0 && phi < 1 {
			inSituBlocks, shipBlocks := splitBlocks(reduced, phi)
			rec.HybridFrac = phi
			rec.Placement = placement
			rec.PlacementReason = fmt.Sprintf("hybrid: %.0f%% in-situ, %.0f%% shipped", 100*phi, 100*(1-phi))
			// Concurrent mode overlaps step i's in-transit drain with its
			// in-situ analysis: the shipment fans out through the async
			// pool while runInSitu does real compute on this goroutine,
			// and runInTransit joins it at the step barrier. Deterministic
			// mode passes nil so the puts run in today's serialized order.
			var ship *shipment
			w.beginShipPhase()
			if w.cfg.StagingConcurrency > 1 {
				ship = w.beginShip(w.step, shipBlocks)
			}
			w.runInSitu(rec, inSituBlocks, sample, dataReady)
			if !w.runInTransit(rec, shipBlocks, dataReady, ship) {
				w.degradeToInSitu(rec, shipBlocks, sample, dataReady)
			}
			return
		}
	}

	switch placement {
	case policy.PlaceInSitu:
		rec.HybridFrac = 1
		w.runInSitu(rec, reduced, sample, dataReady)
	case policy.PlaceInTransit:
		rec.HybridFrac = 0
		if !w.runInTransit(rec, reduced, dataReady, nil) {
			w.degradeToInSitu(rec, reduced, sample, dataReady)
		}
	}
}

// appDecisionReason names what the application layer did for the event
// stream. Only called on the enabled (allocating) emission path.
func appDecisionReason(dec AppDecision) string {
	switch {
	case dec.Degraded:
		return "degraded: no hinted factor fit"
	case dec.Applied:
		return "reduction applied"
	default:
		return "no reduction"
	}
}

// degradeToInSitu is the graceful fallback when the staging transport
// exhausts its retry budget mid-step: the blocks are still resident on the
// simulation side, so the analysis runs there instead of hanging or
// failing, the engine is told (placement cools down in-situ for the next
// steps), and the step record carries the reason for the trace.
func (w *Workflow) degradeToInSitu(rec *StepRecord, blocks []*field.BoxData, sample monitor.Sample, dataReady float64) {
	w.engine.ReportStagingFailure(w.step)
	rec.Placement = policy.PlaceInSitu
	rec.PlacementReason = policy.ReasonStagingFailure
	rec.HybridFrac = 1
	w.span.Record(w.counts, obs.StagingDegrade(policy.ReasonStagingFailure, rec.StagingRetries))
	if w.stepCtx.Enabled() {
		w.stepCtx.Record(span.Op{Name: "staging-degrade", Layer: span.LayerNetworkFault,
			Detail: fmt.Sprintf("%s retries=%d", policy.ReasonStagingFailure, rec.StagingRetries)})
	}
	w.runInSitu(rec, blocks, sample, dataReady)
}

// splitBlocks partitions blocks so the first part holds roughly the given
// fraction of the total cells.
func splitBlocks(blocks []*field.BoxData, frac float64) (first, second []*field.BoxData) {
	var total int64
	for _, b := range blocks {
		total += b.NumCells()
	}
	target := int64(frac * float64(total))
	var acc int64
	for _, b := range blocks {
		if acc < target {
			first = append(first, b)
			acc += b.NumCells()
		} else {
			second = append(second, b)
		}
	}
	return first, second
}

// runInSitu executes analysis on the simulation cores, serialized after
// the step (and after reduction): the D_i term of Eq. 4. Data-local
// analysis inherits the simulation's data imbalance — the slowest rank
// gates the step.
func (w *Workflow) runInSitu(rec *StepRecord, blocks []*field.BoxData, sample monitor.Sample, dataReady float64) {
	if len(blocks) == 0 {
		return
	}
	c := &w.cfg
	an := w.tracer.Begin(w.stepCtx, "analyze", span.LayerAnalysis, w.step)
	dx0 := 1.0 / float64(w.sim.Hierarchy().Cfg.Domain.Size().MaxComp())
	rep := w.svc.Analyze(blocks, 0, dx0)
	secs := c.Machine.AnalysisTime(w.scale(rep.CellsSwept), c.SimCores) * sample.Imbalance
	w.simTL.Schedule(dataReady, secs)
	rec.AnalysisSeconds += secs
	rec.Triangles += int(rep.Metrics["triangles"])
	an.End()
}

// shipment is one step's in-flight transfer of blocks into the staging
// store. In Deterministic mode (StagingConcurrency == 1) the puts run
// inline on the caller's goroutine in serialized order; in concurrent mode
// they fan out across a bounded set of sender goroutines so the drain
// overlaps whatever the workflow does before joining. Either way the
// workflow joins at the step barrier: wait returns the first transport
// error once every put has finished.
type shipment struct {
	version               int
	retries0, reconnects0 int64 // transport counters before the first put
	settled               bool
	err                   error
	done                  chan error
}

// beginShipPhase opens the step's ship phase span — covering the shipment
// fan-out, the join, the staged analysis, and the eviction — and points the
// staging pool at it so pool-op spans parent under the phase. Idempotent
// within a step; the barrier closes it and re-points the pool at the run
// span.
func (w *Workflow) beginShipPhase() {
	if w.tracer == nil || w.shipCtx.Enabled() {
		return
	}
	w.shipCtx = w.tracer.Begin(w.stepCtx, "ship", span.LayerStagingExec, w.step)
	w.setSpanScope(w.shipCtx)
}

// beginShip starts shipping one version's blocks into the staging store.
func (w *Workflow) beginShip(version int, blocks []*field.BoxData) *shipment {
	s := &shipment{version: version}
	if w.pooled != nil {
		s.retries0, s.reconnects0 = w.pooled.TransportStats()
	}
	conc := w.cfg.StagingConcurrency
	if conc <= 1 || len(blocks) < 2 {
		s.settled = true
		for _, b := range blocks {
			if err := w.store.Put("analysis", version, b); err != nil {
				s.err = err
				break
			}
		}
		return s
	}
	s.done = make(chan error, 1)
	store := w.store
	go func() {
		sem := make(chan struct{}, conc)
		var mu sync.Mutex
		var firstErr error
		var wg sync.WaitGroup
		for _, b := range blocks {
			mu.Lock()
			stop := firstErr != nil
			mu.Unlock()
			if stop {
				break
			}
			sem <- struct{}{}
			wg.Add(1)
			go func(b *field.BoxData) {
				defer wg.Done()
				defer func() { <-sem }()
				if err := store.Put("analysis", version, b); err != nil {
					mu.Lock()
					if firstErr == nil {
						firstErr = err
					}
					mu.Unlock()
				}
			}(b)
		}
		wg.Wait()
		s.done <- firstErr
	}()
	return s
}

// wait joins the shipment, returning the first transport error. Idempotent.
func (s *shipment) wait() error {
	if !s.settled {
		s.err = <-s.done
		s.settled = true
	}
	return s.err
}

// runInTransit ships blocks into the staging store (real put — over TCP
// when Config.Staging is a pool), pays the asynchronous send on
// the simulation side, then runs analysis on the staging pool. A non-nil
// ship is a transfer already started by the caller (the hybrid overlap
// path); nil starts one here. It reports false when the transport failed:
// all remote I/O happens (and the shipment joins) before any cost is
// booked, so a failed attempt leaves the modeled clocks and counters
// untouched apart from the retry/reconnect counts, and the caller degrades
// the step to in-situ execution.
func (w *Workflow) runInTransit(rec *StepRecord, blocks []*field.BoxData, dataReady float64, ship *shipment) bool {
	if ship == nil {
		w.beginShipPhase()
		ship = w.beginShip(w.step, blocks)
	}
	if len(blocks) == 0 {
		ship.wait()
		return true
	}
	c := &w.cfg
	dx0 := 1.0 / float64(w.sim.Hierarchy().Cfg.Domain.Size().MaxComp())
	var cells int64
	for _, b := range blocks {
		cells += b.NumCells()
	}
	bytes := w.scale(cells * 8)
	transfer := c.Machine.TransferTime(bytes, min(c.SimCores, w.pool.Cores()))

	// --- remote I/O joins here; nothing is booked until it all succeeded ---
	version := ship.version
	err := ship.wait()
	var got []*field.BoxData
	if err == nil {
		got, err = w.fetchStaged(version)
	}
	if w.pooled != nil {
		retries1, reconnects1 := w.pooled.TransportStats()
		rec.StagingRetries += int(retries1 - ship.retries0)
		rec.StagingReconnects += int(reconnects1 - ship.reconnects0)
	}
	if err != nil {
		// Best-effort cleanup of a partially written version; if the
		// service is down this fails too, and eviction happens on the next
		// successful DropBefore.
		w.store.DropBefore("analysis", version+1)
		return false
	}

	// --- transport succeeded: book the modeled costs and analyze ---
	w.stagingMemUsed += bytes
	rec.BytesMoved += bytes
	rec.TransferSeconds += transfer
	// The asynchronous send costs the simulation a fraction of the
	// transfer (paper: "the time send/receive data is much smaller than
	// the time to process data").
	w.simTL.Schedule(dataReady, transfer*0.1)

	an := w.tracer.Begin(w.shipCtx, "staged-analysis", span.LayerAnalysis, w.step)
	rep := w.svc.Analyze(got, 0, dx0)
	// The staging side first receives and indexes the data (its servers —
	// one per staging node — do that work), then analyzes.
	stagingNodes := max(1, w.pool.Cores()/c.Machine.CoresPerNode)
	recv := c.Machine.TransferTime(bytes, stagingNodes)
	coreSecs := c.Machine.AnalysisTime(w.scale(rep.CellsSwept), 1) +
		recv*float64(w.pool.Cores())
	_, done := w.pool.RunJob(dataReady+transfer, coreSecs)
	rec.AnalysisSeconds += done - (dataReady + transfer)
	rec.Triangles += int(rep.Metrics["triangles"])
	an.End()

	// The staged version is consumed; free its memory.
	w.store.DropBefore("analysis", version+1)
	w.stagingMemUsed -= bytes
	if w.stagingMemUsed < 0 {
		w.stagingMemUsed = 0
	}
	return true
}

// fetchStaged reads one shipped version's blocks back for in-transit
// analysis. Blocks carry their own level's index coordinates; a region
// covering the finest level's index space contains every level's boxes.
func (w *Workflow) fetchStaged(version int) ([]*field.BoxData, error) {
	h := w.sim.Hierarchy()
	queryRegion := h.Cfg.Domain
	for li := 0; li < h.FinestLevel(); li++ {
		queryRegion = queryRegion.Refine(h.Cfg.RefRatio)
	}
	return w.store.GetBlocks("analysis", version, queryRegion)
}
