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

	"crosslayer/internal/amr"
	"crosslayer/internal/analysis"
	"crosslayer/internal/chaos"
	"crosslayer/internal/core"
	"crosslayer/internal/entropy"
	"crosslayer/internal/experiments"
	"crosslayer/internal/faultnet"
	"crosslayer/internal/field"
	"crosslayer/internal/grid"
	"crosslayer/internal/obs"
	"crosslayer/internal/obs/span"
	"crosslayer/internal/plotfile"
	"crosslayer/internal/policy"
	"crosslayer/internal/reduce"
	"crosslayer/internal/solver"
	"crosslayer/internal/staging"
	"crosslayer/internal/sysmodel"
	"crosslayer/internal/trace"
	"crosslayer/internal/viz"
)

// This file re-exports exactly the names that cmd/, examples/ or the root
// tests use (TestFacadeExportsAreReferenced enforces it); a wrapper whose
// result type nobody spells returns the internal type directly.

// Geometry.

// IV constructs a point on the 3-D integer lattice.
func IV(x, y, z int) grid.IntVect { return grid.IV(x, y, z) }

// NewBox builds the closed axis-aligned cell-index box [lo, hi].
func NewBox(lo, hi grid.IntVect) grid.Box { return grid.NewBox(lo, hi) }

// Simulations.
type (
	// AMRConfig fixes the shape of an AMR hierarchy.
	AMRConfig = amr.Config
	// GasConfig configures the Polytropic Gas (3-D Euler) simulation.
	GasConfig = solver.GasConfig
	// AdvDiffConfig configures the Advection-Diffusion simulation.
	AdvDiffConfig = solver.AdvDiffConfig
)

// NewPolytropicGas builds the 3-D Euler blast-wave simulation.
func NewPolytropicGas(cfg GasConfig) solver.Simulation { return solver.NewPolytropicGas(cfg) }

// NewAdvectionDiffusion builds the advected-pulse simulation.
func NewAdvectionDiffusion(cfg AdvDiffConfig) solver.Simulation {
	return solver.NewAdvectionDiffusion(cfg)
}

// Platform models.

// Machine describes a target platform for the cost model.
type Machine = sysmodel.Machine

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
	// Band maps a block-entropy range to a down-sampling factor.
	Band = reduce.Band
)

// Objective values.
const (
	MinTimeToSolution     = policy.MinTimeToSolution
	MaxStagingUtilization = policy.MaxStagingUtilization
)

// AppRangeBased is the application-layer mode that picks the down-sampling
// factor from the hinted factor phases (Hints.Mode).
const AppRangeBased = policy.AppRangeBased

// PlaceInTransit is the middleware-layer placement on the staging pool
// (StepRecord.Placement).
const PlaceInTransit = policy.PlaceInTransit

// ReasonStagingFailure marks a step that fell back to in-situ because the
// staging transport exhausted its retry budget mid-step
// (StepRecord.PlacementReason).
const ReasonStagingFailure = policy.ReasonStagingFailure

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
func NewWorkflow(cfg Config, sim solver.Simulation) (*Workflow, error) {
	return core.NewWorkflow(cfg, sim)
}

// Data containers and analysis services.
type (
	// BoxData holds multi-component float64 data over a box.
	BoxData = field.BoxData
	// Mesh is an extracted isosurface (triangle soup).
	Mesh = viz.Mesh
	// Vec3 is a point in physical space.
	Vec3 = viz.Vec3
)

// NewBoxData allocates zero-initialized data over box.
func NewBoxData(box grid.Box, ncomp int) *BoxData { return field.New(box, ncomp) }

// NewVizService builds the marching-cubes isosurface extraction service
// for the given isovalues.
func NewVizService(isovalues ...float64) *viz.Service { return viz.NewService(isovalues...) }

// NewEntropyPlan validates entropy bands into a reduction plan that assigns
// per-block down-sampling factors from entropy thresholds.
func NewEntropyPlan(bands []Band, nbins int) (*reduce.EntropyPlan, error) {
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

// NewStatisticsService builds the descriptive-statistics analysis service,
// a communication-free kernel Config.Analysis accepts (nil selects the
// isosurface service over Config.Isovalues).
func NewStatisticsService(bins int) *analysis.Statistics {
	return analysis.NewStatistics(bins)
}

// Staging substrate (direct use; the Workflow manages its own space).

// StagingServerOptions sets a server's admission caps (MaxConns, bounded
// accept Backlog), its structured event emitter, and — via DataDir/ServerID
// — the durable WAL+snapshot store.
type StagingServerOptions = staging.ServerOptions

// NewStagingSpace creates a DataSpaces-like versioned object store indexing
// blocks within domain, holding up to nservers × capacityPerServer bytes
// (0 = unlimited).
func NewStagingSpace(nservers int, capacityPerServer int64, domain grid.Box) *staging.Space {
	return staging.NewSpace(nservers, capacityPerServer, domain)
}

// ServeStagingOptions starts a TCP staging server on addr with explicit
// admission options.
func ServeStagingOptions(addr string, space *staging.Space, opts StagingServerOptions) (*staging.Server, error) {
	return staging.ServeOptions(addr, space, opts)
}

// DialStaging connects to a TCP staging server.
func DialStaging(addr string) (*staging.Client, error) { return staging.Dial(addr) }

// ParseFaultPlan parses the comma-separated key=value fault-plan syntax
// (e.g. "seed=42,refuse=2,drop-after=4096,latency=2ms,corrupt=0.01") into
// the deterministic transport faults of a faultnet-wrapped listener.
func ParseFaultPlan(s string) (faultnet.Plan, error) { return faultnet.ParsePlan(s) }

// Observability: offline summaries of the structured event stream and the
// step trace (see DESIGN.md §8).

// ReadEvents parses an event stream written by a JSONL sink.
func ReadEvents(r io.Reader) ([]obs.Event, error) { return obs.ReadEvents(r) }

// SummarizeEvents aggregates an event stream.
func SummarizeEvents(events []obs.Event) obs.EventSummary { return obs.SummarizeEvents(events) }

// SummarizeTrace aggregates a step trace into a run report.
func SummarizeTrace(steps []StepRecord) trace.RunReport { return trace.Summarize(steps) }

// Causal tracing: deterministic span trees and critical-path attribution
// (see DESIGN.md §12).

// ReadSpans parses a JSONL span log.
func ReadSpans(r io.Reader) ([]span.Span, error) { return span.ReadSpans(r) }

// BuildSpanTree reconstructs the causal tree, rejecting ill-formed logs
// (missing parents, duplicate IDs).
func BuildSpanTree(spans []span.Span) (*span.Tree, error) { return span.BuildTree(spans) }

// WriteSpanBlameText renders the per-layer blame table (and, when critical
// is set, each step's critical path).
func WriteSpanBlameText(w io.Writer, steps []span.StepBlame, critical bool) {
	span.WriteBlameText(w, steps, critical)
}

// SpanPhaseBreakdown aggregates step-phase spans into per-phase totals.
func SpanPhaseBreakdown(spans []span.Span) []span.PhaseRow { return span.PhaseBreakdown(spans) }

// WriteSpanPhaseText renders the per-phase breakdown table.
func WriteSpanPhaseText(w io.Writer, rows []span.PhaseRow) { span.WritePhaseText(w, rows) }

// WriteChromeTrace exports a span log as Chrome trace_event JSON loadable
// in Perfetto (ui.perfetto.dev) or chrome://tracing.
func WriteChromeTrace(w io.Writer, spans []span.Span) error {
	return span.WriteChromeTrace(w, spans)
}

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
func WritePlotfile(w io.Writer, h *amr.Hierarchy) error { return plotfile.Write(w, h) }

// Experiment harnesses (the paper's evaluation, §5). Each function
// regenerates one figure or table; see EXPERIMENTS.md for the mapping.

// Fig1PeakMemory regenerates Fig. 1, the peak-memory profile.
func Fig1PeakMemory(steps, ranks int, targetPeakMB float64) *experiments.Fig1Result {
	return experiments.Fig1PeakMemory(steps, ranks, targetPeakMB)
}

// Fig5AppAdaptation regenerates Fig. 5, the application-layer adaptation
// series.
func Fig5AppAdaptation(steps int) *experiments.Fig5Result {
	return experiments.Fig5AppAdaptation(steps)
}

// Fig6EntropyReduction regenerates Fig. 6, the entropy-based reduction
// study.
func Fig6EntropyReduction(steps int) *experiments.Fig6Result {
	return experiments.Fig6EntropyReduction(steps)
}

// Fig7Placement regenerates Figs. 7 and 8, the placement scaling study.
func Fig7Placement(steps int) *experiments.Fig7Result { return experiments.Fig7Placement(steps) }

// Fig9ResourceAdaptation regenerates Fig. 9, the resource-layer allocation
// series.
func Fig9ResourceAdaptation(steps int) *experiments.Fig9Result {
	return experiments.Fig9ResourceAdaptation(steps)
}

// Fig10CrossLayer regenerates Figs. 10, 11 and Table 2, the cross-layer
// study.
func Fig10CrossLayer(steps int) *experiments.Fig10Result {
	return experiments.Fig10CrossLayer(steps)
}

// Deterministic chaos explorer (`xlayer chaos`): seeded fault-schedule
// search over the replicated staging pool and the cross-layer engine, with
// invariant checking after every step and automatic shrinking of violating
// schedules to minimal repro files.

// ChaosOptions tunes an exploration sweep.
type ChaosOptions = chaos.Options

// ExploreChaos sweeps seeded schedules, verifying every cross-layer
// invariant and shrinking violations to repro files.
func ExploreChaos(opts ChaosOptions) (*chaos.Report, error) { return chaos.Explore(opts) }

// ReplayChaosRepro reloads and verifies a shrunk repro file.
func ReplayChaosRepro(path string) (*chaos.RunResult, error) { return chaos.Replay(path) }
