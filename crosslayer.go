// Package crosslayer is the public API of the cross-layer adaptive runtime
// for coupled simulation + analysis workflows — a reproduction of Jin et
// al., "Using Cross-Layer Adaptations for Dynamic Data Management in Large
// Scale Coupled Scientific Workflows" (SC '13).
//
// A Workflow couples an AMR simulation (the Chombo-style Polytropic Gas or
// Advection-Diffusion solvers) with a marching-cubes visualization service
// over a DataSpaces-like staging space. After every simulation step the
// autonomic loop — Monitor → Adaptation Engine → policies — may:
//
//   - adapt the spatial resolution of the analysis data (application
//     layer: user-hinted factor ranges or per-block entropy thresholds),
//   - adapt the placement of the analysis, in-situ on the simulation cores
//     or in-transit on the staging pool (middleware layer),
//   - adapt the number of staging cores (resource layer),
//
// coordinated root–leaf by the configured Objective.
//
// Quick start:
//
//	sim := crosslayer.NewPolytropicGas(crosslayer.GasConfig{
//		AMR: crosslayer.AMRConfig{
//			Domain:   crosslayer.NewBox(crosslayer.IV(0, 0, 0), crosslayer.IV(31, 31, 31)),
//			MaxLevel: 1, NRanks: 8,
//		},
//	})
//	w, err := crosslayer.NewWorkflow(crosslayer.Config{
//		Machine:   crosslayer.Titan(),
//		SimCores:  2048,
//		Objective: crosslayer.MinTimeToSolution,
//		Enable:    crosslayer.Adaptations{Application: true, Middleware: true, Resource: true},
//	}, sim)
//	if err != nil { ... }
//	result := w.Run(40)
//
// The result carries per-step records (placement, data volumes, staging
// allocation, virtual clocks) and run aggregates (end-to-end time,
// overhead, data moved, staging utilization).
package crosslayer

import (
	"io"
	"net"

	"crosslayer/internal/amr"
	"crosslayer/internal/analysis"
	"crosslayer/internal/bench"
	"crosslayer/internal/chaos"
	"crosslayer/internal/core"
	"crosslayer/internal/entropy"
	"crosslayer/internal/experiments"
	"crosslayer/internal/faultnet"
	"crosslayer/internal/field"
	"crosslayer/internal/grid"
	"crosslayer/internal/journal"
	"crosslayer/internal/loadgen"
	"crosslayer/internal/obs"
	"crosslayer/internal/obs/span"
	"crosslayer/internal/plotfile"
	"crosslayer/internal/policy"
	"crosslayer/internal/reduce"
	"crosslayer/internal/solver"
	"crosslayer/internal/spec"
	"crosslayer/internal/staging"
	"crosslayer/internal/sysmodel"
	"crosslayer/internal/trace"
	"crosslayer/internal/viz"
)

// Geometry.
type (
	// IntVect is a point on the 3-D integer lattice.
	IntVect = grid.IntVect
	// Box is a closed axis-aligned integer box in cell-index space.
	Box = grid.Box
)

// IV constructs an IntVect.
func IV(x, y, z int) IntVect { return grid.IV(x, y, z) }

// NewBox builds the box [lo, hi].
func NewBox(lo, hi IntVect) Box { return grid.NewBox(lo, hi) }

// Simulations.
type (
	// Simulation is the contract between an AMR application and the
	// workflow runtime.
	Simulation = solver.Simulation
	// AMRConfig fixes the shape of an AMR hierarchy.
	AMRConfig = amr.Config
	// GasConfig configures the Polytropic Gas (3-D Euler) simulation.
	GasConfig = solver.GasConfig
	// AdvDiffConfig configures the Advection-Diffusion simulation.
	AdvDiffConfig = solver.AdvDiffConfig
)

// NewPolytropicGas builds the 3-D Euler blast-wave simulation.
func NewPolytropicGas(cfg GasConfig) Simulation { return solver.NewPolytropicGas(cfg) }

// NewAdvectionDiffusion builds the advected-pulse simulation.
func NewAdvectionDiffusion(cfg AdvDiffConfig) Simulation {
	return solver.NewAdvectionDiffusion(cfg)
}

// Platform models.
type (
	// Machine describes a target platform for the cost model.
	Machine = sysmodel.Machine
)

// Intrepid returns the IBM BlueGene/P platform model.
func Intrepid() Machine { return sysmodel.Intrepid() }

// Titan returns the Cray XK7 platform model.
func Titan() Machine { return sysmodel.Titan() }

// Policies and preferences.
type (
	// Objective is the user preference the cross-layer policy optimizes.
	Objective = policy.Objective
	// Hints carries the user hints (factor ranges, entropy bands).
	Hints = policy.Hints
	// FactorPhase is one hinted phase of acceptable down-sampling factors.
	FactorPhase = policy.FactorPhase
	// AppMode selects the application-layer down-sampling mode.
	AppMode = policy.AppMode
	// Placement is the middleware-layer decision (in-situ or in-transit).
	Placement = policy.Placement
	// Band maps a block-entropy range to a down-sampling factor.
	Band = reduce.Band
)

// Objective values.
const (
	MinTimeToSolution     = policy.MinTimeToSolution
	MaxStagingUtilization = policy.MaxStagingUtilization
	MinDataMovement       = policy.MinDataMovement
)

// Application-layer modes.
const (
	AppOff          = policy.AppOff
	AppRangeBased   = policy.AppRangeBased
	AppEntropyBased = policy.AppEntropyBased
)

// Placements.
const (
	PlaceInSitu    = policy.PlaceInSitu
	PlaceInTransit = policy.PlaceInTransit
)

// Placement-reason markers for degraded steps (StepRecord.PlacementReason).
const (
	// ReasonStagingFailure marks a step that fell back to in-situ because
	// the staging transport exhausted its retry budget mid-step.
	ReasonStagingFailure = policy.ReasonStagingFailure
	// ReasonStagingSuspect marks a step held in-situ by the failure
	// cooldown window that follows a staging failure.
	ReasonStagingSuspect = policy.ReasonStagingSuspect
)

// Workflow runtime.
type (
	// Config assembles a workflow.
	Config = core.Config
	// Adaptations selects which mechanisms may execute.
	Adaptations = core.Adaptations
	// Workflow couples a simulation with the visualization service and
	// drives the autonomic adaptation loop.
	Workflow = core.Workflow
	// Result aggregates a workflow run.
	Result = core.Result
	// StepRecord captures one workflow step.
	StepRecord = core.StepRecord
)

// NewWorkflow validates cfg and builds the runtime around sim.
func NewWorkflow(cfg Config, sim Simulation) (*Workflow, error) {
	return core.NewWorkflow(cfg, sim)
}

// Crash-consistent checkpoint/restart (DESIGN.md §13): a workflow with
// Config.Journal set writes one write-ahead checkpoint per step barrier;
// RecoverJournal + ResumeWorkflow rebuild a killed run from the last
// complete checkpoint.
type (
	// JournalWriter appends the write-ahead step journal (Config.Journal).
	JournalWriter = journal.Writer
	// JournalHeader identifies the run a journal belongs to.
	JournalHeader = journal.Header
	// JournalCheckpoint is one step barrier's worth of resumable state.
	JournalCheckpoint = journal.Checkpoint
	// RecoveredJournal is the torn-tail-tolerant scan of a journal file.
	RecoveredJournal = journal.Recovered
	// ResumeOptions controls how a resumed workflow re-enters its run.
	ResumeOptions = core.ResumeOptions
)

// Journal resume failure modes (fail closed rather than continue a
// mismatched or unresumable run).
var (
	// ErrJournalSpecMismatch: the journal belongs to a different run shape.
	ErrJournalSpecMismatch = journal.ErrJournalSpecMismatch
	// ErrJournalTornBeyondBarrier: no complete checkpoint survives.
	ErrJournalTornBeyondBarrier = journal.ErrJournalTornBeyondBarrier
	// ErrResumeRequiresJournal: resume requested without a journal file.
	ErrResumeRequiresJournal = journal.ErrResumeRequiresJournal
)

// NewJournalWriter wraps w in a write-ahead journal writer; hand it to
// Config.Journal after WriteHeader.
func NewJournalWriter(w io.Writer) *JournalWriter { return journal.NewWriter(w) }

// RecoverJournal scans a journal file, tolerating a torn tail: every
// record before the first incomplete or corrupt frame is kept.
func RecoverJournal(path string) (*RecoveredJournal, error) { return journal.Recover(path) }

// ResumeWorkflow rebuilds a killed workflow from its recovered journal and
// the same configuration and (fresh) simulation the original run was built
// with; the next Step() continues after the last checkpointed step.
func ResumeWorkflow(cfg Config, sim Simulation, rec *RecoveredJournal, opts ResumeOptions) (*Workflow, error) {
	return core.ResumeWorkflow(cfg, sim, rec, opts)
}

// Data containers and analysis services.
type (
	// BoxData holds multi-component float64 data over a Box.
	BoxData = field.BoxData
	// Hierarchy is a block-structured AMR level stack.
	Hierarchy = amr.Hierarchy
	// VizService is the marching-cubes isosurface extraction service.
	VizService = viz.Service
	// Mesh is an extracted isosurface (triangle soup).
	Mesh = viz.Mesh
	// Triangle is one oriented surface triangle.
	Triangle = viz.Triangle
	// Vec3 is a point in physical space.
	Vec3 = viz.Vec3
	// VizStats summarizes one extraction run.
	VizStats = viz.Stats
	// EntropyPlan assigns per-block down-sampling factors from entropy
	// thresholds.
	EntropyPlan = reduce.EntropyPlan
	// BlockDecision records the plan's choice for one block.
	BlockDecision = reduce.BlockDecision
)

// NewBoxData allocates zero-initialized data over box.
func NewBoxData(box Box, ncomp int) *BoxData { return field.New(box, ncomp) }

// NewVizService builds a visualization service for the given isovalues.
func NewVizService(isovalues ...float64) *VizService { return viz.NewService(isovalues...) }

// NewEntropyPlan validates entropy bands into a reduction plan.
func NewEntropyPlan(bands []Band, nbins int) (*EntropyPlan, error) {
	return reduce.NewEntropyPlan(bands, nbins)
}

// BlockEntropy returns the Shannon entropy (bits) of component c of a data
// block, measured on the caller-supplied global value range with nbins
// histogram bins.
func BlockEntropy(d *BoxData, c, nbins int, lo, hi float64) float64 {
	return entropy.BlockGlobal(d, c, nbins, lo, hi)
}

// Downsample reduces data by keeping every x-th sample along each axis.
func Downsample(d *BoxData, x int) *BoxData { return field.Downsample(d, x) }

// Analysis services. The workflow's Config.Analysis accepts any of these
// (nil selects the isosurface service over Config.Isovalues).
type (
	// AnalysisService is a communication-free analysis kernel the
	// middleware layer can place in-situ or in-transit.
	AnalysisService = analysis.Service
	// AnalysisReport is the outcome of one analysis execution.
	AnalysisReport = analysis.Report
)

// NewIsosurfaceService builds the marching-cubes analysis service.
func NewIsosurfaceService(isovalues ...float64) *analysis.Isosurface {
	return analysis.NewIsosurface(isovalues...)
}

// NewStatisticsService builds the descriptive-statistics analysis service.
func NewStatisticsService(bins int) *analysis.Statistics {
	return analysis.NewStatistics(bins)
}

// NewSubsetService builds the data-subsetting analysis service for a
// region of interest.
func NewSubsetService(region Box) *analysis.Subset { return analysis.NewSubset(region) }

// Staging substrate (direct use; the Workflow manages its own space).
type (
	// StagingSpace is the DataSpaces-like versioned object store.
	StagingSpace = staging.Space
	// StagingServer serves a StagingSpace over TCP.
	StagingServer = staging.Server
	// StagingClient talks to a StagingServer.
	StagingClient = staging.Client
)

// NewStagingSpace creates a staging space with nservers shards, each with
// capacityPerServer bytes (0 = unlimited), indexing blocks within domain.
func NewStagingSpace(nservers int, capacityPerServer int64, domain Box) *StagingSpace {
	return staging.NewSpace(nservers, capacityPerServer, domain)
}

// DialStaging connects to a TCP staging server.
func DialStaging(addr string) (*StagingClient, error) { return staging.Dial(addr) }

// Staging resilience and fault injection.
type (
	// StagingClientOptions tunes the client's deadlines, retry budget and
	// backoff; the zero value selects the defaults.
	StagingClientOptions = staging.ClientOptions
	// StagingStore is the workflow's in-transit data interface — the
	// in-process space and the TCP client both satisfy it, as can any
	// user-provided transport (Config.Staging).
	StagingStore = core.StagingStore
	// FaultPlan declaratively describes deterministic transport faults for
	// a faultnet-wrapped listener or dialer.
	FaultPlan = faultnet.Plan
)

// ErrStagingUnavailable reports an exhausted retry budget; the workflow
// treats it as a placement signal and degrades the step to in-situ.
var ErrStagingUnavailable = staging.ErrStagingUnavailable

// DialStagingOptions connects to a TCP staging server with explicit
// resilience options.
func DialStagingOptions(addr string, opts StagingClientOptions) (*StagingClient, error) {
	return staging.DialOptions(addr, opts)
}

// NewStagingClient builds a staging client that connects lazily on first
// use — for servers that may legitimately be down at construction time.
func NewStagingClient(addr string, opts StagingClientOptions) *StagingClient {
	return staging.NewClient(addr, opts)
}

// ParseFaultPlan parses the comma-separated key=value fault-plan syntax
// (e.g. "seed=42,refuse=2,drop-after=4096,latency=2ms,corrupt=0.01").
func ParseFaultPlan(s string) (FaultPlan, error) { return faultnet.ParsePlan(s) }

// FaultListen wraps a listener so every accepted connection misbehaves
// according to the plan.
func FaultListen(ln net.Listener, plan FaultPlan) net.Listener {
	return faultnet.Listen(ln, plan)
}

// Replicated staging pool: multi-server sharding, crash failover and rejoin
// repair (see DESIGN.md §9).
type (
	// StagingPool shards blocks across N TCP staging servers by Morton
	// code, replicates each to K endpoints, and fails reads over to
	// replicas behind per-endpoint circuit breakers. It satisfies
	// StagingStore (Config.Staging).
	StagingPool = staging.Pool
	// StagingPoolOptions tunes the pool's replication factor, breaker
	// thresholds, probe cadence, and endpoint clients.
	StagingPoolOptions = staging.PoolOptions
	// FaultGate is a listener wrapper with a kill switch — the transport
	// half of a modeled staging-server crash (wipe the backing
	// StagingSpace for the state half).
	FaultGate = faultnet.Gate
	// StagingKillSpec schedules a deterministic crash (and optional
	// rejoin) of one pool server in a workflow spec.
	StagingKillSpec = spec.KillSpec
)

// NewStagingPool builds a replicated, sharded pool client over the given
// staging server addresses. Endpoint clients connect lazily.
func NewStagingPool(addrs []string, domain Box, opts StagingPoolOptions) (*StagingPool, error) {
	return staging.NewPool(addrs, domain, opts)
}

// NewFaultGate wraps a listener with a kill switch; see FaultGate.
func NewFaultGate(ln net.Listener) *FaultGate { return faultnet.NewGate(ln) }

// Pool content manifests: canonical snapshots of what a pool believes it
// holds, with a stable binary codec for audits across process boundaries.
type (
	// StagingManifest lists every (variable, version) a pool holds and how
	// many distinct blocks each carries, sorted canonically.
	StagingManifest = staging.Manifest
	// StagingManifestEntry is one manifest row.
	StagingManifestEntry = staging.ManifestEntry
)

// EncodeStagingManifest writes a manifest in its canonical binary form.
func EncodeStagingManifest(w io.Writer, m StagingManifest) error {
	return staging.EncodeManifest(w, m)
}

// DecodeStagingManifest parses the canonical binary form back into a
// manifest, rejecting malformed or non-canonical input.
func DecodeStagingManifest(r io.Reader) (StagingManifest, error) {
	return staging.DecodeManifest(r)
}

// ParseStagingKill parses the crash-schedule shorthand
// "server=1,at=3,revive=6" (revive optional; empty string yields nil).
func ParseStagingKill(s string) (*StagingKillSpec, error) { return spec.ParseKill(s) }

// Multi-tenant staging (DESIGN.md §14): per-tenant namespaces in the wire
// key space, server-side byte/block quotas, bounded-admission servers, and
// the closed-loop concurrent-workflow load harness behind `xlayer loadgen`.
type (
	// StagingTenantView is one tenant's handle on a shared StagingPool:
	// every operation is qualified into the tenant's namespace. It
	// satisfies StagingStore (Config.Staging), so N workflows can share one
	// pool without colliding.
	StagingTenantView = staging.TenantView
	// StagingTenantQuota caps one tenant's bytes and blocks in a
	// StagingSpace; the zero value is unlimited.
	StagingTenantQuota = staging.TenantQuota
	// StagingServerOptions sets a server's admission caps (MaxConns,
	// bounded accept Backlog), its structured event emitter, and — via
	// DataDir/ServerID — the durable WAL+snapshot store behind
	// NewStagingServer.
	StagingServerOptions = staging.ServerOptions
	// StagingRecoverStats summarizes one disk-recovery pass: blocks and
	// bytes restored, snapshot vs WAL provenance, and whether a torn WAL
	// tail was truncated.
	StagingRecoverStats = staging.RecoverStats
	// StagingWALStats reports a durable space's WAL activity: records and
	// bytes appended, fsyncs, compaction snapshots, and the current epoch.
	StagingWALStats = staging.WALStats
	// LoadgenOptions tunes the multi-tenant load harness.
	LoadgenOptions = loadgen.Options
	// LoadgenRecord is one line of a tenant's deterministic step log.
	LoadgenRecord = loadgen.Record
)

// Tenant-namespace failure modes.
var (
	// ErrBadTenant reports a tenant id outside [A-Za-z0-9._-]{1,64}.
	ErrBadTenant = staging.ErrBadTenant
	// ErrStagingQuotaExceeded reports a put rejected server-side by the
	// tenant's byte or block quota. Clients do not retry it and pool
	// breakers do not trip on it.
	ErrStagingQuotaExceeded = staging.ErrQuotaExceeded
)

// ValidStagingTenant reports whether id is an acceptable tenant id.
func ValidStagingTenant(id string) bool { return staging.ValidTenant(id) }

// StagingTenantVar qualifies varName into tenant's wire-key namespace;
// SplitStagingTenantVar inverts it exactly.
func StagingTenantVar(tenant, varName string) (string, error) {
	return staging.TenantVar(tenant, varName)
}

// SplitStagingTenantVar splits a qualified wire key into tenant and
// variable; ok is false for untenanted or malformed keys.
func SplitStagingTenantVar(key string) (tenant, varName string, ok bool) {
	return staging.SplitTenantVar(key)
}

// StagingTenantOf extracts the tenant a wire key belongs to, "" for
// untenanted keys.
func StagingTenantOf(key string) string { return staging.TenantOf(key) }

// ServeStagingOptions starts a TCP staging server on addr with explicit
// admission options.
func ServeStagingOptions(addr string, space *StagingSpace, opts StagingServerOptions) (*StagingServer, error) {
	return staging.ServeOptions(addr, space, opts)
}

// NewStagingServer starts a staging server on an existing listener and,
// when opts.DataDir is set, makes its space durable first: the space is
// recovered from the directory's snapshot + WAL before the listener serves
// a single request, every subsequent acked put is fsynced to the WAL, and
// Shutdown flushes and closes the log. The recovery outcome is readable
// via the server's RecoverStats method.
func NewStagingServer(ln net.Listener, space *StagingSpace, opts StagingServerOptions) (*StagingServer, error) {
	return staging.NewServer(ln, space, opts)
}

// RunLoadgen drives K seeded tenant workflows closed-loop against a shared
// staging pool and reports per-tenant throughput, latency percentiles, and
// shed/quota counts in the xlayer-bench/v1 schema.
func RunLoadgen(opts LoadgenOptions) (*BenchReport, error) { return loadgen.Run(opts) }

// Declarative workflow specifications (the paper's future-work
// programming model).
type (
	// WorkflowSpec is the JSON shape of one workflow specification.
	WorkflowSpec = spec.Workflow
)

// ParseSpec reads and validates a JSON workflow specification; Build on
// the result constructs the ready-to-run workflow.
func ParseSpec(r io.Reader) (*WorkflowSpec, error) { return spec.Parse(r) }

// Observability: structured event streams, run metrics, and offline run
// reports (see DESIGN.md §8).
type (
	// EventEmitter stamps and serializes structured runtime events
	// (Config.Obs). A nil *EventEmitter is valid and emits nothing at
	// zero cost, so instrumented code needs no branches.
	EventEmitter = obs.Emitter
	// Event is one structured runtime event.
	Event = obs.Event
	// EventSink receives emitted events (JSONL file, in-memory ring, …).
	EventSink = obs.Sink
	// EventSummary aggregates an event stream offline.
	EventSummary = obs.EventSummary
	// MetricsRegistry collects counters, gauges and histograms
	// (Config.Metrics) and renders them as Prometheus text.
	MetricsRegistry = obs.Registry
	// MetricsServer serves a registry's /metrics endpoint over HTTP.
	MetricsServer = obs.MetricsServer
	// RunReport is the offline summary of a step trace.
	RunReport = trace.RunReport
)

// NewEventEmitter wraps a sink; a nil sink yields a nil (disabled) emitter.
func NewEventEmitter(sink EventSink) *EventEmitter { return obs.NewEmitter(sink) }

// NewJSONLEventSink streams events as JSON Lines to w.
func NewJSONLEventSink(w io.Writer) EventSink { return obs.NewJSONLSink(w) }

// NewRingEventSink keeps the most recent capacity events in memory.
func NewRingEventSink(capacity int) *obs.RingSink { return obs.NewRingSink(capacity) }

// ReadEvents parses an event stream written by a JSONL sink.
func ReadEvents(r io.Reader) ([]Event, error) { return obs.ReadEvents(r) }

// SummarizeEvents aggregates an event stream.
func SummarizeEvents(events []Event) EventSummary { return obs.SummarizeEvents(events) }

// NewMetricsRegistry creates an empty metrics registry.
func NewMetricsRegistry() *MetricsRegistry { return obs.NewRegistry() }

// ServeMetricsHTTP serves reg's Prometheus text on addr (":0" picks a free
// port) until the returned server is closed.
func ServeMetricsHTTP(addr string, reg *MetricsRegistry) (*MetricsServer, error) {
	return obs.ServeMetrics(addr, reg)
}

// SummarizeTrace aggregates a step trace into a run report.
func SummarizeTrace(steps []StepRecord) RunReport { return trace.Summarize(steps) }

// Causal tracing: deterministic span trees, wire-propagated trace context,
// and critical-path attribution (see DESIGN.md §12).
type (
	// SpanTracer stamps and sinks causal spans (Config.Trace). A nil
	// *SpanTracer is valid and disables tracing at zero cost.
	SpanTracer = span.Tracer
	// SpanCtx is a begun span; the zero value is the disabled state.
	SpanCtx = span.Ctx
	// Span is one completed node of the causal tree.
	Span = span.Span
	// SpanSink receives completed spans.
	SpanSink = span.Sink
	// SpanTree is a reconstructed span forest.
	SpanTree = span.Tree
	// SpanStepBlame is one step's per-layer wall-time attribution.
	SpanStepBlame = span.StepBlame
	// SpanPhaseRow is one line of the per-phase breakdown table.
	SpanPhaseRow = span.PhaseRow
)

// NewSpanTracer derives a trace identity from seed and writes spans to
// sink; a nil sink yields a nil (disabled) tracer.
func NewSpanTracer(sink SpanSink, seed string) *SpanTracer { return span.NewTracer(sink, seed) }

// NewJSONLSpanSink streams spans as JSON Lines to w (closing w on Close
// when it is an io.Closer).
func NewJSONLSpanSink(w io.Writer) *span.JSONLSink { return span.NewJSONLSink(w) }

// NewMemSpanSink retains spans in memory.
func NewMemSpanSink() *span.MemSink { return &span.MemSink{} }

// ReadSpans parses a JSONL span log.
func ReadSpans(r io.Reader) ([]Span, error) { return span.ReadSpans(r) }

// BuildSpanTree reconstructs the causal tree, rejecting ill-formed logs
// (missing parents, duplicate IDs).
func BuildSpanTree(spans []Span) (*SpanTree, error) { return span.BuildTree(spans) }

// WriteSpanBlameText renders the per-layer blame table (and, when critical
// is set, each step's critical path).
func WriteSpanBlameText(w io.Writer, steps []SpanStepBlame, critical bool) {
	span.WriteBlameText(w, steps, critical)
}

// SpanPhaseBreakdown aggregates step-phase spans into per-phase totals.
func SpanPhaseBreakdown(spans []Span) []SpanPhaseRow { return span.PhaseBreakdown(spans) }

// WriteSpanPhaseText renders the per-phase breakdown table.
func WriteSpanPhaseText(w io.Writer, rows []SpanPhaseRow) { span.WritePhaseText(w, rows) }

// WriteChromeTrace exports a span log as Chrome trace_event JSON loadable
// in Perfetto (ui.perfetto.dev) or chrome://tracing.
func WriteChromeTrace(w io.Writer, spans []Span) error { return span.WriteChromeTrace(w, spans) }

// ParsePlacement inverts Placement.String; unknown or empty strings return
// a *policy.UnknownPlacementError.
func ParsePlacement(s string) (Placement, error) { return policy.ParsePlacement(s) }

// Run artifacts.

// WriteTraceCSV emits one CSV row per step record.
func WriteTraceCSV(w io.Writer, steps []StepRecord) error { return trace.WriteCSV(w, steps) }

// WriteTraceJSONL emits one JSON object per line per step record.
func WriteTraceJSONL(w io.Writer, steps []StepRecord) error { return trace.WriteJSONL(w, steps) }

// ReadTraceJSONL parses records written by WriteTraceJSONL.
func ReadTraceJSONL(r io.Reader) ([]StepRecord, error) { return trace.ReadJSONL(r) }

// ReadTraceCSV parses records written by WriteTraceCSV.
func ReadTraceCSV(r io.Reader) ([]StepRecord, error) { return trace.ReadCSV(r) }

// WritePlotfile serializes an AMR hierarchy snapshot.
func WritePlotfile(w io.Writer, h *Hierarchy) error { return plotfile.Write(w, h) }

// ReadPlotfile reconstructs a hierarchy snapshot.
func ReadPlotfile(r io.Reader) (*Hierarchy, error) { return plotfile.Read(r) }

// Experiment harnesses (the paper's evaluation, §5). Each function
// regenerates one figure or table; see EXPERIMENTS.md for the mapping.
type (
	// Fig1Result is the peak-memory profile (Fig. 1).
	Fig1Result = experiments.Fig1Result
	// Fig5Result is the application-layer adaptation series (Fig. 5).
	Fig5Result = experiments.Fig5Result
	// Fig6Result is the entropy-based reduction study (Fig. 6).
	Fig6Result = experiments.Fig6Result
	// Fig7Result is the placement scaling study (Figs. 7–8).
	Fig7Result = experiments.Fig7Result
	// Fig9Result is the resource-layer allocation series (Fig. 9).
	Fig9Result = experiments.Fig9Result
	// Fig10Result is the cross-layer study (Figs. 10–11, Table 2).
	Fig10Result = experiments.Fig10Result
)

// Fig1PeakMemory regenerates Fig. 1.
func Fig1PeakMemory(steps, ranks int, targetPeakMB float64) *Fig1Result {
	return experiments.Fig1PeakMemory(steps, ranks, targetPeakMB)
}

// Fig5AppAdaptation regenerates Fig. 5.
func Fig5AppAdaptation(steps int) *Fig5Result { return experiments.Fig5AppAdaptation(steps) }

// Fig6EntropyReduction regenerates Fig. 6.
func Fig6EntropyReduction(steps int) *Fig6Result { return experiments.Fig6EntropyReduction(steps) }

// Fig7Placement regenerates Figs. 7 and 8.
func Fig7Placement(steps int) *Fig7Result { return experiments.Fig7Placement(steps) }

// Fig9ResourceAdaptation regenerates Fig. 9.
func Fig9ResourceAdaptation(steps int) *Fig9Result {
	return experiments.Fig9ResourceAdaptation(steps)
}

// Fig10CrossLayer regenerates Figs. 10, 11 and Table 2.
func Fig10CrossLayer(steps int) *Fig10Result { return experiments.Fig10CrossLayer(steps) }

// Reproducible benchmark harness (`xlayer bench`): fixed-seed figure
// workloads plus the staging pool's serialized-vs-concurrent data paths,
// reported in a stable JSON schema for PR-over-PR regression gating.
type (
	// BenchReport is one harness run (schema xlayer-bench/v1).
	BenchReport = bench.Report
	// BenchEntry is one benchmark result inside a report.
	BenchEntry = bench.Entry
	// BenchOptions tunes a harness run.
	BenchOptions = bench.Options
)

// BenchSchema identifies the benchmark report format.
const BenchSchema = bench.Schema

// RunBench executes the full benchmark harness.
func RunBench(opts BenchOptions) (*BenchReport, error) { return bench.Run(opts) }

// ReadBenchReport decodes the benchmark report at path.
func ReadBenchReport(path string) (*BenchReport, error) { return bench.ReadFile(path) }

// CompareBench gates a fresh report against a baseline: dimensionless
// speedup metrics regress hard (beyond tol, default 0.20), wall-clock
// drifts only warn.
func CompareBench(base, cur *BenchReport, tol float64) (failures, warnings []string) {
	return bench.Compare(base, cur, tol)
}

// Deterministic chaos explorer (`xlayer chaos`): seeded fault-schedule
// search over the replicated staging pool and the cross-layer engine, with
// invariant checking after every step and automatic shrinking of violating
// schedules to minimal repro files.
type (
	// ChaosSchedule is one seeded fault schedule.
	ChaosSchedule = chaos.Schedule
	// ChaosOptions tunes an exploration sweep.
	ChaosOptions = chaos.Options
	// ChaosReport summarizes a sweep.
	ChaosReport = chaos.Report
	// ChaosRunResult is one verified schedule's outcome.
	ChaosRunResult = chaos.RunResult
	// ChaosViolation is one invariant breach.
	ChaosViolation = chaos.Violation
	// ChaosRestart schedules one durable-server restart: the server is
	// hard-killed at a step barrier and brought back over its own data dir
	// (Recover) or a wiped one (rejoin-repair only).
	ChaosRestart = chaos.Restart
)

// GenerateChaosSchedule derives a fault schedule from a seed (a pure
// function of the seed).
func GenerateChaosSchedule(seed int64) ChaosSchedule { return chaos.Generate(seed) }

// ExploreChaos sweeps seeded schedules, verifying every cross-layer
// invariant and shrinking violations to repro files.
func ExploreChaos(opts ChaosOptions) (*ChaosReport, error) { return chaos.Explore(opts) }

// VerifyChaosSchedule runs one schedule (twice, where determinism is
// contractual) and returns its violations.
func VerifyChaosSchedule(s ChaosSchedule) (*ChaosRunResult, error) { return chaos.Verify(s) }

// ReplayChaosRepro reloads and verifies a shrunk repro file.
func ReplayChaosRepro(path string) (*ChaosRunResult, error) { return chaos.Replay(path) }
