package core

import (
	"crosslayer/internal/obs"
)

// coreMetrics is the workflow's instrument set, bound once at construction
// (Config.Metrics) so the step loop only touches atomics. A nil
// *coreMetrics disables recording; call sites nil-check, which costs one
// predictable branch on the hot path.
type coreMetrics struct {
	steps *obs.Counter

	simSeconds      *obs.Histogram
	analysisSeconds *obs.Histogram
	transferSeconds *obs.Histogram
	stepSeconds     *obs.Histogram // end-to-end span of one step across both timelines
	bytesMovedStep  *obs.Histogram

	bytesProduced *obs.Counter
	bytesAnalyzed *obs.Counter
	bytesMoved    *obs.Counter

	placeInSitu    *obs.Counter
	placeInTransit *obs.Counter
	reductions     *obs.Counter

	stagingCores   *obs.Gauge
	stagingMemUsed *obs.Gauge
	stagingMemCap  *obs.Gauge
	stagingHealthy *obs.Gauge

	journalCheckpoints *obs.Counter
	journalBytes       *obs.Counter
	journalResumes     *obs.Counter
	journalLastStep    *obs.Gauge
}

func newCoreMetrics(reg *obs.Registry) *coreMetrics {
	if reg == nil {
		return nil
	}
	const placeName = "xlayer_placement_total"
	const placeHelp = "Analysis placements executed, by placement."
	return &coreMetrics{
		steps: reg.Counter("xlayer_steps_total", "Workflow steps completed."),

		simSeconds: reg.Histogram("xlayer_sim_seconds",
			"Modeled simulation seconds per step.", obs.DefBuckets),
		analysisSeconds: reg.Histogram("xlayer_analysis_seconds",
			"Modeled analysis seconds per analyzed step.", obs.DefBuckets),
		transferSeconds: reg.Histogram("xlayer_transfer_seconds",
			"Modeled transfer seconds per in-transit step.", obs.DefBuckets),
		stepSeconds: reg.Histogram("xlayer_step_seconds",
			"End-to-end virtual seconds per step across both timelines.", obs.DefBuckets),
		bytesMovedStep: reg.Histogram("xlayer_step_bytes_moved",
			"Bytes shipped to staging per in-transit step.", obs.BytesBuckets),

		bytesProduced: reg.Counter("xlayer_bytes_produced_total",
			"Raw analysis bytes produced by the simulation (model scale)."),
		bytesAnalyzed: reg.Counter("xlayer_bytes_analyzed_total",
			"Analysis bytes after application-layer reduction (model scale)."),
		bytesMoved: reg.Counter("xlayer_bytes_moved_total",
			"Bytes shipped into staging (model scale)."),

		placeInSitu:    reg.Counter(placeName, placeHelp, "placement", "in-situ"),
		placeInTransit: reg.Counter(placeName, placeHelp, "placement", "in-transit"),
		reductions: reg.Counter("xlayer_reductions_total",
			"Steps on which the application layer applied a down-sampling."),

		stagingCores: reg.Gauge("xlayer_staging_cores",
			"Staging-pool allocation in effect."),
		stagingMemUsed: reg.Gauge("xlayer_staging_mem_used_bytes",
			"Staging memory occupancy at model scale."),
		stagingMemCap: reg.Gauge("xlayer_staging_mem_cap_bytes",
			"Effective staging memory capacity (scaled to healthy endpoints)."),
		stagingHealthy: reg.Gauge("xlayer_staging_healthy_endpoints",
			"Staging-pool endpoints currently in rotation."),

		journalCheckpoints: reg.Counter("xlayer_journal_checkpoints_total",
			"Write-ahead journal checkpoints written at step barriers."),
		journalBytes: reg.Counter("xlayer_journal_bytes_total",
			"Bytes appended to the write-ahead journal, framing included."),
		journalResumes: reg.Counter("xlayer_journal_resumes_total",
			"Workflow resumes performed from a recovered journal."),
		journalLastStep: reg.Gauge("xlayer_journal_last_step",
			"Step index of the most recent journal checkpoint."),
	}
}
