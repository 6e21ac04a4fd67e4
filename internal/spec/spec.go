// Package spec implements a small declarative programming model for
// coupled workflows — the paper's stated future work ("designing and
// formalizing corresponding programming model for such cross-layer
// approach to release users' programming complexity"). A JSON document
// names the application, platform, scale, objective, hints and enabled
// mechanisms; Build turns it into a ready-to-run workflow without the user
// touching the Go API.
package spec

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
	"time"

	"crosslayer/internal/amr"
	"crosslayer/internal/core"
	"crosslayer/internal/faultnet"
	"crosslayer/internal/grid"
	"crosslayer/internal/journal"
	"crosslayer/internal/obs"
	"crosslayer/internal/obs/span"
	"crosslayer/internal/policy"
	"crosslayer/internal/reduce"
	"crosslayer/internal/solver"
	"crosslayer/internal/staging"
	"crosslayer/internal/sysmodel"
)

// Workflow is the JSON shape of one workflow specification.
type Workflow struct {
	// Application: "polytropic-gas" or "advection-diffusion".
	Application string `json:"application"`
	// Machine: "titan" or "intrepid".
	Machine string `json:"machine"`

	// Domain is the base-level grid extent, e.g. [32,32,32].
	Domain [3]int `json:"domain"`
	// MaxLevel is the finest refinement level (default 1).
	MaxLevel int `json:"max_level"`
	// MaxBoxSize caps patch extent in cells per side (0 = solver default).
	MaxBoxSize int `json:"max_box_size"`
	// Ranks is the number of virtual ranks the kernels run on (default 8).
	Ranks int `json:"ranks"`
	// Periodic selects periodic domain boundaries.
	Periodic bool `json:"periodic"`
	// Subcycle enables Berger–Oliger time stepping (advection-diffusion).
	Subcycle bool `json:"subcycle"`
	// Reflux enables conservative refluxing (polytropic gas).
	Reflux bool `json:"reflux"`

	SimCores     int     `json:"sim_cores"`
	StagingCores int     `json:"staging_cores"`
	CellScale    float64 `json:"cell_scale"`
	Steps        int     `json:"steps"`

	// Objective: "min-time-to-solution" (default),
	// "max-staging-utilization" or "min-data-movement" (or the CLI's short
	// aliases, see policy.ParseObjective).
	Objective string `json:"objective"`
	// Adapt lists enabled mechanisms: "application", "middleware",
	// "resource" (empty = static run).
	Adapt []string `json:"adapt"`
	// Placement for static runs: "insitu" or "intransit" (default insitu).
	Placement string `json:"placement"`
	// Hybrid enables split placement.
	Hybrid bool `json:"hybrid"`

	// Factors is the hinted down-sampling set for the range-based mode;
	// EntropyBands selects the entropy mode instead (factor applied below
	// each threshold).
	Factors      []int      `json:"factors"`
	EntropyBands []BandSpec `json:"entropy_bands"`

	Isovalues []float64 `json:"isovalues"`

	// StagingTCP routes in-transit data through a real loopback TCP
	// staging server (the deployment shape) instead of the in-process
	// space. Transport failures then degrade steps to in-situ execution.
	StagingTCP bool `json:"staging_tcp"`
	// StagingServers shards the TCP staging path across this many loopback
	// servers behind a replicated pool (default 1 = the single-server
	// client; > 1 requires staging_tcp).
	StagingServers int `json:"staging_servers"`
	// StagingReplicas is how many pool servers hold each block, primary
	// included (default 1 = no replication; must not exceed
	// staging_servers).
	StagingReplicas int `json:"staging_replicas"`
	// StagingConcurrency bounds how many staging operations the workflow
	// and pool keep in flight at once. Default 0/1 selects the
	// Deterministic serialized path (byte-identical seeded event logs);
	// values > 1 enable the concurrent per-endpoint pipelines and require
	// staging_tcp (the concurrency exists to overlap real transport I/O).
	StagingConcurrency int `json:"staging_concurrency"`
	// StagingKill schedules a deterministic crash (and optional rejoin) of
	// one pool server — the crash-failover harness. Requires
	// staging_servers > 1.
	StagingKill *KillSpec `json:"staging_kill"`
	// Fault injects deterministic transport faults into the TCP staging
	// path (requires staging_tcp) — the controlled-failure harness.
	Fault *FaultSpec `json:"fault"`
	// StagingFailureCooldown is how many extra steps placement stays
	// in-situ after a staging failure (default 2, -1 disables).
	StagingFailureCooldown int `json:"staging_failure_cooldown"`
	// Tenant scopes the workflow's staging traffic to one tenant namespace
	// on the pooled TCP staging path: every variable name is qualified with
	// the tenant prefix before it reaches the wire, and every emitted event
	// is attributed to the tenant. Requires staging_servers > 1. The field
	// is omitted from the JSON encoding when empty, so fingerprints and
	// journals of single-tenant specs are unchanged.
	Tenant string `json:"tenant,omitempty"`
	// StagingMaxConns caps the connections each staging server serves
	// concurrently (admission control; 0 = unlimited, the historical
	// behavior). Requires staging_tcp.
	StagingMaxConns int `json:"staging_max_conns,omitempty"`
	// StagingAcceptBacklog bounds each server's accept backlog: up to this
	// many connections arriving with all MaxConns slots busy wait for a
	// slot, and further arrivals are shed deterministically. Only
	// meaningful with staging_max_conns.
	StagingAcceptBacklog int `json:"staging_accept_backlog,omitempty"`
	// StagingDataDir makes every staging server durable: server i keeps a
	// write-ahead log and periodic snapshots under <dir>/server-<i>, every
	// acked put is fsynced before the ack, and a server restarted over the
	// same dir recovers its space from disk. Requires staging_tcp. The field
	// is an artifact destination like journal — it is excluded from the
	// fingerprint, and omitted from JSON when empty so historical
	// fingerprints are unchanged.
	StagingDataDir string `json:"staging_data_dir,omitempty"`

	// Events, when set, streams structured runtime events (policy
	// decisions, placement changes, staging retries, injected faults, …)
	// as JSON Lines to this file. Timestamps are model time, so a seeded
	// run reproduces the stream byte for byte.
	Events string `json:"events"`
	// Spans, when set, streams the causal span tree (run → step → phase →
	// policy decision → pool op → per-endpoint RPC) as JSON Lines to this
	// file. Span stamps are model time and span/trace IDs derive from the
	// spec's deterministic seed, so a seeded run reproduces the log byte
	// for byte at any staging_concurrency.
	Spans string `json:"spans"`
	// MetricsAddr, when set, serves Prometheus text metrics on this
	// address (host:port; ":0" picks a free port — see BoundMetricsAddr)
	// for the duration of the run.
	MetricsAddr string `json:"metrics_addr"`

	// Journal, when set, write-ahead journals every step barrier to this
	// file: adaptation state, virtual clocks, observability cursors, and
	// the staging pool's content manifest. A run killed at any point can
	// then be resumed (Resume) from its last completed step instead of
	// restarting from step 0.
	Journal string `json:"journal"`
	// Resume continues a previous run from Journal: the journal's valid
	// prefix is recovered (a torn tail from the kill is discarded), the
	// event/span logs are truncated to what the last checkpoint had
	// flushed, and the workflow restarts at the checkpointed step + 1. The
	// spec must be identical to the journaled run's — a fingerprint
	// mismatch fails closed with journal.ErrJournalSpecMismatch.
	Resume bool `json:"resume"`

	metricsBound string // actual listen address once Build has bound it
	resumedStep  int    // first step a resumed Build continues from; 0 = fresh
}

// BandSpec is one entropy band in JSON form.
type BandSpec struct {
	Below  float64 `json:"below"`
	Factor int     `json:"factor"`
}

// FaultSpec is the JSON shape of a faultnet.Plan (see that package for
// fault semantics). The seed makes every run of the spec reproduce the
// same failure sequence.
type FaultSpec struct {
	Seed           int64   `json:"seed"`
	RefuseAccepts  int     `json:"refuse_accepts"`
	DropAfterBytes int64   `json:"drop_after_bytes"`
	LatencyMS      float64 `json:"latency_ms"`
	TruncateRate   float64 `json:"truncate_rate"`
	CorruptRate    float64 `json:"corrupt_rate"`
}

// Typed validation errors for the replicated-pool knobs, so callers (and
// table tests) can match the failure class with errors.Is instead of
// scraping message text.
var (
	// ErrReplicasExceedServers: staging_replicas asks for more copies than
	// there are servers to hold them.
	ErrReplicasExceedServers = errors.New("spec: staging_replicas exceeds staging_servers")
	// ErrServersRequireTCP: a multi-server pool only exists on the TCP
	// staging path.
	ErrServersRequireTCP = errors.New("spec: staging_servers > 1 requires staging_tcp")
	// ErrKillRequiresPool: killing a server needs a pool with survivors.
	ErrKillRequiresPool = errors.New("spec: staging_kill requires staging_servers > 1")
	// ErrKillOutsideRun: a kill scheduled at or past the last step barrier
	// never fires; a request that cannot happen is rejected, not ignored.
	ErrKillOutsideRun = errors.New("spec: staging_kill at_step outside the run")
	// ErrConcurrencyRequiresTCP: the concurrent data path overlaps real
	// transport I/O, which only exists on the TCP staging path.
	ErrConcurrencyRequiresTCP = errors.New("spec: staging_concurrency > 1 requires staging_tcp")
	// ErrTenantRequiresPool: tenant namespaces are qualified by the
	// replicated pool client, which only exists on the TCP staging path.
	ErrTenantRequiresPool = errors.New("spec: tenant requires staging_tcp")
	// ErrMaxConnsRequireTCP: admission control guards real listeners, which
	// only exist on the TCP staging path.
	ErrMaxConnsRequireTCP = errors.New("spec: staging_max_conns requires staging_tcp")
	// ErrDataDirRequiresTCP: durable staging persists real servers' spaces,
	// which only exist on the TCP staging path.
	ErrDataDirRequiresTCP = errors.New("spec: staging_data_dir requires staging_tcp")
)

// Resume failure classes. ErrResumeRequiresJournal is aliased from the
// journal package so spec callers match it without importing it.
var (
	// ErrResumeRequiresJournal: resume was requested without a journal file.
	ErrResumeRequiresJournal = journal.ErrResumeRequiresJournal
	// ErrLogShorterThanCheckpoint: an event or span log lost a tail its
	// checkpoint counted (flushed, never synced), so no resume can match it.
	ErrLogShorterThanCheckpoint = errors.New("spec: log shorter than its checkpointed offset")
)

// KillSpec schedules a deterministic crash of one pool server: after step
// AtStep completes the server's listener is killed (in-flight connections
// severed, new ones refused) and its backing space wiped; after step
// ReviveStep the listener is revived and the pool's rejoin repair
// re-replicates what the server should hold. ReviveStep 0 means the server
// never comes back.
type KillSpec struct {
	Server     int `json:"server"`
	AtStep     int `json:"at_step"`
	ReviveStep int `json:"revive_step"`
}

// ParseKill parses the CLI shorthand "server=1,at=3,revive=6" (revive
// optional) into a KillSpec. An empty string yields nil (no kill).
func ParseKill(s string) (*KillSpec, error) {
	if s == "" {
		return nil, nil
	}
	k := &KillSpec{}
	for _, part := range strings.Split(s, ",") {
		kv := strings.SplitN(part, "=", 2)
		if len(kv) != 2 {
			return nil, fmt.Errorf("spec: staging kill: want key=value, got %q", part)
		}
		v, err := strconv.Atoi(strings.TrimSpace(kv[1]))
		if err != nil {
			return nil, fmt.Errorf("spec: staging kill: %q: %w", part, err)
		}
		switch strings.TrimSpace(kv[0]) {
		case "server":
			k.Server = v
		case "at":
			k.AtStep = v
		case "revive":
			k.ReviveStep = v
		default:
			return nil, fmt.Errorf("spec: staging kill: unknown key %q", kv[0])
		}
	}
	return k, nil
}

// Plan converts the JSON fault shape into a faultnet plan.
func (f *FaultSpec) Plan() faultnet.Plan {
	return faultnet.Plan{
		Seed:           f.Seed,
		RefuseAccepts:  f.RefuseAccepts,
		DropAfterBytes: f.DropAfterBytes,
		Latency:        time.Duration(f.LatencyMS * float64(time.Millisecond)),
		TruncateRate:   f.TruncateRate,
		CorruptRate:    f.CorruptRate,
	}
}

// Parse reads and validates a JSON workflow specification.
func Parse(r io.Reader) (*Workflow, error) {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	var w Workflow
	if err := dec.Decode(&w); err != nil {
		return nil, fmt.Errorf("spec: %w", err)
	}
	if err := w.validate(); err != nil {
		return nil, err
	}
	return &w, nil
}

func (w *Workflow) validate() error {
	switch w.Application {
	case "polytropic-gas", "advection-diffusion":
	case "":
		return fmt.Errorf("spec: application is required")
	default:
		return fmt.Errorf("spec: unknown application %q", w.Application)
	}
	switch w.Machine {
	case "", "titan", "intrepid":
	default:
		return fmt.Errorf("spec: unknown machine %q", w.Machine)
	}
	for _, d := range w.Domain {
		if d < 8 {
			return fmt.Errorf("spec: domain extents must be >= 8, got %v", w.Domain)
		}
	}
	if _, err := policy.ParseObjective(w.Objective); err != nil {
		return fmt.Errorf("spec: %w", err)
	}
	if _, err := policy.ParseMechanisms(w.Adapt); err != nil {
		return fmt.Errorf("spec: %w", err)
	}
	switch w.Placement {
	case "", "insitu", "intransit":
	default:
		return fmt.Errorf("spec: unknown placement %q", w.Placement)
	}
	for _, f := range w.Factors {
		if f < 1 {
			return fmt.Errorf("spec: invalid factor %d", f)
		}
	}
	if w.Steps < 0 {
		return fmt.Errorf("spec: negative steps")
	}
	if w.MaxBoxSize < 0 {
		return fmt.Errorf("spec: negative max_box_size")
	}
	if w.Fault != nil {
		if !w.StagingTCP {
			return fmt.Errorf("spec: fault injection requires staging_tcp")
		}
		if err := w.Fault.Plan().Validate(); err != nil {
			return fmt.Errorf("spec: %w", err)
		}
	}
	if w.StagingServers < 0 || w.StagingReplicas < 0 {
		return fmt.Errorf("spec: negative staging_servers/staging_replicas")
	}
	if w.StagingServers > 1 && !w.StagingTCP {
		return fmt.Errorf("%w (got staging_servers=%d)", ErrServersRequireTCP, w.StagingServers)
	}
	if w.StagingConcurrency < 0 {
		return fmt.Errorf("spec: negative staging_concurrency")
	}
	if w.StagingConcurrency > 1 && !w.StagingTCP {
		return fmt.Errorf("%w (got staging_concurrency=%d)", ErrConcurrencyRequiresTCP, w.StagingConcurrency)
	}
	if w.StagingReplicas > max(w.StagingServers, 1) {
		return fmt.Errorf("%w (%d > %d)", ErrReplicasExceedServers,
			w.StagingReplicas, max(w.StagingServers, 1))
	}
	if w.Tenant != "" {
		if !w.StagingTCP {
			return ErrTenantRequiresPool
		}
		if !staging.ValidTenant(w.Tenant) {
			return fmt.Errorf("spec: %w: %q", staging.ErrBadTenant, w.Tenant)
		}
	}
	if w.StagingMaxConns < 0 || w.StagingAcceptBacklog < 0 {
		return fmt.Errorf("spec: negative staging_max_conns/staging_accept_backlog")
	}
	if (w.StagingMaxConns > 0 || w.StagingAcceptBacklog > 0) && !w.StagingTCP {
		return fmt.Errorf("%w (got staging_max_conns=%d, staging_accept_backlog=%d)",
			ErrMaxConnsRequireTCP, w.StagingMaxConns, w.StagingAcceptBacklog)
	}
	if w.StagingDataDir != "" && !w.StagingTCP {
		return ErrDataDirRequiresTCP
	}
	if w.Resume && w.Journal == "" {
		return fmt.Errorf("%w (set journal)", ErrResumeRequiresJournal)
	}
	if k := w.StagingKill; k != nil {
		if w.StagingServers < 2 {
			return fmt.Errorf("%w (got staging_servers=%d)", ErrKillRequiresPool, w.StagingServers)
		}
		if k.Server < 0 || k.Server >= w.StagingServers {
			return fmt.Errorf("spec: staging_kill server %d out of range [0,%d)", k.Server, w.StagingServers)
		}
		if k.AtStep < 0 || k.AtStep >= w.StepsOrDefault() {
			return fmt.Errorf("%w (at_step=%d, steps=%d)", ErrKillOutsideRun, k.AtStep, w.StepsOrDefault())
		}
		if k.ReviveStep != 0 && k.ReviveStep <= k.AtStep {
			return fmt.Errorf("spec: staging_kill revive_step %d must be after at_step %d (0 = never)",
				k.ReviveStep, k.AtStep)
		}
	}
	return nil
}

// Build constructs the simulation and workflow the spec describes.
func (w *Workflow) Build() (_ *core.Workflow, _ solver.Simulation, err error) {
	amrCfg := amr.Config{
		Domain: grid.NewBox(grid.IV(0, 0, 0),
			grid.IV(w.Domain[0]-1, w.Domain[1]-1, w.Domain[2]-1)),
		MaxLevel:   w.MaxLevel,
		MaxBoxSize: w.MaxBoxSize,
		NRanks:     w.Ranks,
		Periodic:   w.Periodic,
	}
	if amrCfg.MaxLevel == 0 {
		amrCfg.MaxLevel = 1
	}
	if amrCfg.NRanks == 0 {
		amrCfg.NRanks = 8
	}

	var sim solver.Simulation
	switch w.Application {
	case "polytropic-gas":
		sim = solver.NewPolytropicGas(solver.GasConfig{AMR: amrCfg, Reflux: w.Reflux})
	case "advection-diffusion":
		sim = solver.NewAdvectionDiffusion(solver.AdvDiffConfig{AMR: amrCfg, Subcycle: w.Subcycle})
	}

	cfg := core.Config{
		SimCores:     w.SimCores,
		StagingCores: w.StagingCores,
		CellScale:    w.CellScale,
		Isovalues:    w.Isovalues,
		EnableHybrid: w.Hybrid,
	}
	switch w.Machine {
	case "intrepid":
		cfg.Machine = sysmodel.Intrepid()
	default:
		cfg.Machine = sysmodel.Titan()
	}
	// Parse validated both; a hand-built spec with a bad name runs the defaults.
	cfg.Objective, _ = policy.ParseObjective(w.Objective)
	mechs, _ := policy.ParseMechanisms(w.Adapt)
	cfg.Enable = core.AdaptationsOf(mechs)
	if w.Placement == "intransit" {
		cfg.StaticPlacement = policy.PlaceInTransit
	}
	if len(w.EntropyBands) > 0 {
		cfg.Hints.Mode = policy.AppEntropyBased
		for _, b := range w.EntropyBands {
			cfg.Hints.EntropyBands = append(cfg.Hints.EntropyBands,
				reduce.Band{Below: b.Below, Factor: b.Factor})
		}
	} else if len(w.Factors) > 0 {
		cfg.Hints.Mode = policy.AppRangeBased
		cfg.Hints.FactorPhases = []policy.FactorPhase{{FromStep: 0, Factors: w.Factors}}
	}

	cfg.StagingFailureCooldown = w.StagingFailureCooldown
	cfg.StagingConcurrency = w.StagingConcurrency
	cfg.Tenant = w.Tenant

	// Recover the journal first: a resume needs the last checkpoint's log
	// offsets before the event/span files are opened, so their torn tails
	// can be amputated back to exactly what that barrier had flushed.
	recovered, err := w.recoverJournal()
	if err != nil {
		return nil, nil, err
	}

	// Everything Build opens is closed again if it returns an error.
	var closers []io.Closer
	defer func() {
		if err != nil {
			for _, c := range closers {
				c.Close()
			}
		}
	}()
	var emitter *obs.Emitter
	var eventsFile, spansFile *os.File
	if w.Events != "" {
		off := int64(-1)
		if recovered != nil {
			off = recovered.Last().EventsOffset
		}
		f, err := openLog(w.Events, recovered != nil, off)
		if err != nil {
			return nil, nil, fmt.Errorf("spec: events: %w", err)
		}
		eventsFile = f
		emitter = obs.NewEmitter(obs.NewJSONLSink(f))
		cfg.Obs = emitter
		closers = append(closers, emitter)
	}
	var tracer *span.Tracer
	if w.Spans != "" {
		off := int64(-1)
		if recovered != nil {
			off = recovered.Last().SpansOffset
		}
		f, err := openLog(w.Spans, recovered != nil, off)
		if err != nil {
			return nil, nil, fmt.Errorf("spec: spans: %w", err)
		}
		spansFile = f
		// Appended here — before the transports — so the reverse-order Close
		// drains the staging pool's buffered spans into a still-open sink.
		tracer = span.NewTracer(span.NewJSONLSink(f), w.traceSeed())
		cfg.Trace = tracer
		closers = append(closers, tracer)
	}
	if w.Journal != "" {
		jw, jc, err := w.openJournal(recovered, emitter, tracer, eventsFile, spansFile)
		if err != nil {
			return nil, nil, err
		}
		cfg.Journal = jw
		closers = append(closers, jc)
	}
	var reg *obs.Registry
	if w.MetricsAddr != "" {
		reg = obs.NewRegistry()
		cfg.Metrics = reg
		ms, err := obs.ServeMetrics(w.MetricsAddr, reg)
		if err != nil {
			return nil, nil, fmt.Errorf("spec: metrics: %w", err)
		}
		w.metricsBound = ms.Addr()
		closers = append(closers, ms)
	}
	if w.StagingTCP {
		store, cs, after, err := w.buildStaging(amrCfg.Domain, emitter, reg)
		if err != nil {
			return nil, nil, err
		}
		cfg.Staging, cfg.AfterStep = store, after
		closers = append(closers, cs...)
	}

	var wf *core.Workflow
	if recovered != nil {
		// The resumed run appends to the original logs, so no resume event
		// is announced: the combined stream must stay byte-identical to an
		// uninterrupted run's.
		wf, err = core.ResumeWorkflow(cfg, sim, recovered)
		if err == nil {
			w.resumedStep = wf.NextStep()
		}
	} else {
		wf, err = core.NewWorkflow(cfg, sim)
	}
	if err != nil {
		return nil, nil, err
	}
	for _, c := range closers {
		wf.AddCloser(c)
	}
	return wf, sim, nil
}

// recoverJournal scans the journal for a resume, enforcing the resume
// preconditions: the journal must hold at least one complete checkpoint and
// must have been written under this exact spec fingerprint. The torn tail a
// killed driver left is discarded by truncating the file to the valid
// prefix. A fresh (non-resume) build returns (nil, nil).
func (w *Workflow) recoverJournal() (*journal.Recovered, error) {
	if !w.Resume {
		return nil, nil
	}
	rec, err := journal.Recover(w.Journal)
	if err != nil {
		return nil, fmt.Errorf("spec: resume %s: %w", w.Journal, err)
	}
	if rec.Last() == nil {
		return nil, fmt.Errorf("spec: resume %s: %w", w.Journal, journal.ErrJournalTornBeyondBarrier)
	}
	if fp := w.Fingerprint(); rec.Header.Fingerprint != fp {
		return nil, fmt.Errorf("spec: resume %s: %w:\n  journal: %s\n  spec:    %s",
			w.Journal, journal.ErrJournalSpecMismatch, rec.Header.Fingerprint, fp)
	}
	if rec.Torn {
		if err := os.Truncate(w.Journal, rec.Good); err != nil {
			return nil, fmt.Errorf("spec: resume %s: truncate torn tail: %w", w.Journal, err)
		}
	}
	return rec, nil
}

// openLog opens an event/span JSONL log for a journaled run. Fresh runs
// truncate; resumes cut the file back to the journaled barrier offset —
// amputating whatever a dying driver half-wrote — and append; a log already
// shorter is left alone and refused, as truncating would pad it with zeros.
// A resume against a checkpoint that tracked no offset for this log (off <
// 0, the log was not configured on the original run) starts it fresh.
func openLog(path string, resume bool, off int64) (*os.File, error) {
	if resume && off >= 0 {
		if st, err := os.Stat(path); err == nil && st.Size() < off {
			return nil, fmt.Errorf("%w: %s has %d bytes, checkpoint recorded %d",
				ErrLogShorterThanCheckpoint, path, st.Size(), off)
		}
		if err := os.Truncate(path, off); err != nil {
			return nil, err
		}
		return os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	}
	return os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_TRUNC|os.O_APPEND, 0o644)
}

// openJournal builds the checkpoint sink: a journal.Writer over the journal
// file (created fresh, or appended after recovery truncated the torn tail)
// whose barrier-flush hook pushes the event/span sinks to disk and reports
// their byte offsets for the checkpoint.
func (w *Workflow) openJournal(rec *journal.Recovered, em *obs.Emitter, tr *span.Tracer, eventsFile, spansFile *os.File) (*journal.Writer, io.Closer, error) {
	var f *os.File
	var err error
	if rec != nil {
		f, err = os.OpenFile(w.Journal, os.O_WRONLY|os.O_APPEND, 0o644)
	} else {
		f, err = os.OpenFile(w.Journal, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	}
	if err != nil {
		return nil, nil, fmt.Errorf("spec: journal: %w", err)
	}
	jw := journal.NewWriter(f)
	if rec == nil {
		if err := jw.WriteHeader(journal.Header{Fingerprint: w.Fingerprint(), TraceSeed: w.traceSeed()}); err != nil {
			f.Close()
			return nil, nil, fmt.Errorf("spec: journal: %w", err)
		}
	}
	jw.SetBarrierFlush(func() (ev, sp int64, err error) {
		if ev, err = flushedSize(em.Flush, eventsFile); err != nil {
			return 0, 0, err
		}
		sp, err = flushedSize(tr.Flush, spansFile)
		return ev, sp, err
	})
	return jw, f, nil
}

// flushedSize flushes a JSONL log and reports the byte offset its file has
// reached, -1 when the log has no file.
func flushedSize(flush func() error, f *os.File) (int64, error) {
	if err := flush(); err != nil || f == nil {
		return -1, err
	}
	st, err := f.Stat()
	if err != nil {
		return -1, err
	}
	return st.Size(), nil
}

// Fingerprint canonically encodes every run-shaping field of the spec — the
// identity a journal is bound to. Artifact destinations (events, spans,
// metrics_addr, journal) and the resume flag are excluded: moving the logs
// or resuming does not change which run this is.
func (w *Workflow) Fingerprint() string {
	shape := *w
	shape.Events, shape.Spans, shape.MetricsAddr = "", "", ""
	shape.Journal, shape.Resume = "", false
	shape.StagingDataDir = ""
	b, err := json.Marshal(&shape)
	if err != nil {
		panic(fmt.Sprintf("spec: fingerprint: %v", err)) // struct of plain fields; cannot fail
	}
	return string(b)
}

// ResumedStep returns the step index a resumed Build continued from (the
// checkpointed step + 1), or 0 for a fresh build.
func (w *Workflow) ResumedStep() int { return w.resumedStep }

// buildStaging stands up the spec's loopback staging fleet and a replicated
// Pool over it — one endpoint per server, so a one-server spec is a pool of
// one. It returns the pool, what to close (fleet first, so it closes last),
// and the after-step hook that executes a scheduled staging_kill.
//
// The servers carry no event emitter and the listener-side fault plan
// reports nothing: both act on server goroutines, and interleaving them
// into the event stream would break its run-to-run byte stability. Faults
// surface as the pool's endpoint_down and the workflow's staging_degrade;
// sheds through metrics and Server.AdmissionStats.
func (w *Workflow) buildStaging(domain grid.Box, em *obs.Emitter, reg *obs.Registry) (*staging.Pool, []io.Closer, func(step int), error) {
	fo := staging.FleetOptions{
		Servers: w.StagingServers,
		Domain:  domain,
		DataDir: w.StagingDataDir,
		Server: staging.ServerOptions{
			MaxConns: w.StagingMaxConns, Backlog: w.StagingAcceptBacklog, Metrics: reg,
		},
	}
	if w.Fault != nil {
		plan := w.Fault.Plan()
		fo.Fault = &plan
	}
	fleet, err := staging.NewFleet(fo)
	if err != nil {
		return nil, nil, nil, fmt.Errorf("spec: %w", err)
	}
	// One retry per op: the pool's circuit breaker is the resilience layer,
	// so a dead endpoint should trip it quickly instead of burning a deep
	// per-op retry budget.
	copts := staging.LoopbackClient()
	copts.MaxRetries = 1
	pool, err := staging.NewPool(fleet.Addrs(), domain, staging.PoolOptions{
		Replicas:    max(w.StagingReplicas, 1),
		Concurrency: w.StagingConcurrency,
		Tenant:      w.Tenant,
		Client:      copts,
		Events:      em,
		Metrics:     reg,
	})
	if err != nil {
		fleet.Close()
		return nil, nil, nil, err
	}
	var after func(step int)
	if k := w.StagingKill; k != nil {
		// Kill empties the server's space, so the revived server comes back
		// with nothing and rejoin repair has real work.
		after = func(step int) {
			if step == k.AtStep {
				fleet.Kill(k.Server)
			}
			if k.ReviveStep > 0 && step == k.ReviveStep {
				fleet.Revive(k.Server)
			}
		}
	}
	return pool, []io.Closer{fleet, pool}, after, nil
}

// traceSeed derives the deterministic trace-ID seed from the spec fields
// that shape a run, so equal specs trace equal IDs and distinct
// configurations get distinct traces.
func (w *Workflow) traceSeed() string {
	s := fmt.Sprintf("%s/%s/%v/steps=%d/servers=%d/replicas=%d/conc=%d",
		w.Application, w.Objective, w.Adapt, w.StepsOrDefault(),
		w.StagingServers, w.StagingReplicas, w.StagingConcurrency)
	// Appended only when tenanted, so single-tenant specs keep their
	// historical trace IDs (and golden span logs) bit for bit.
	if w.Tenant != "" {
		s += "/tenant=" + w.Tenant
	}
	return s
}

// BoundMetricsAddr returns the actual metrics listen address after Build
// (useful when metrics_addr was ":0"), or "" when metrics are off.
func (w *Workflow) BoundMetricsAddr() string { return w.metricsBound }

// StepsOrDefault returns the configured step count (default 20).
func (w *Workflow) StepsOrDefault() int {
	if w.Steps <= 0 {
		return 20
	}
	return w.Steps
}
