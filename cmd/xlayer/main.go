// Command xlayer regenerates the paper's tables and figures, runs
// standalone coupled workflows, and drives the staging service and its
// chaos and load harnesses.
//
// Usage:
//
//	xlayer <experiment> [-steps N]
//	xlayer run [-app gas|advdiff] [-placement adaptive|insitu|intransit]
//	           [-objective tts|util|movement] [-steps N] [-cores N] [-staging M]
//	xlayer runspec <spec.json>
//	xlayer report -jsonl FILE | -csv FILE | -events FILE | -spans FILE
//	xlayer spans [-blame] [-critical-path] [-chrome FILE] <spans.jsonl>
//	xlayer chaos [-seeds N] [-out REPRO_DIR] | -replay FILE
//	xlayer loadgen [-tenants K] [-out report.json] [-short]
//	xlayer serve [-servers N] [-max-conns N] [-data-dir DIR]
//
// Experiments: fig1, fig5, fig6, fig7, fig8, fig9, fig10, fig11, table2,
// all. fig8 is printed as part of fig7, and fig11/table2 as part of fig10
// (they share runs, exactly as in the paper). Run `xlayer` with no
// arguments for every flag.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"time"

	"crosslayer"
	"crosslayer/internal/policy"
	"crosslayer/internal/spec"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	cmd := os.Args[1]
	fs := flag.NewFlagSet(cmd, flag.ExitOnError)
	steps := fs.Int("steps", 0, "time steps (0 = experiment default)")
	app := fs.String("app", "gas", "application: gas or advdiff (run mode)")
	placement := fs.String("placement", "adaptive", "adaptive, insitu or intransit (run mode)")
	objective := fs.String("objective", "tts", "tts, util or movement (run mode)")
	cores := fs.Int("cores", 2048, "simulation cores in the cost model (run mode)")
	staging := fs.Int("staging", 128, "staging pool ceiling (run mode)")
	csvPath := fs.String("csv", "", "write per-step records as CSV to this file (run mode)")
	jsonlPath := fs.String("jsonl", "", "write per-step records as JSON Lines to this file (run mode)")
	plotPath := fs.String("plotfile", "", "write the final AMR hierarchy snapshot to this file (run mode)")
	stagingTCP := fs.Bool("staging-tcp", false, "route in-transit data through a loopback TCP staging server (run mode)")
	stagingServers := fs.Int("staging-servers", 1, "shard the TCP staging path across N loopback servers (run mode; >1 implies -staging-tcp)")
	stagingReplicas := fs.Int("staging-replicas", 1, "replicate each block to K pool servers (run mode; needs -staging-servers >= K)")
	stagingKill := fs.String("staging-kill", "", "crash one pool server mid-run, e.g. server=1,at=3,revive=6 (run mode; needs -staging-servers > 1)")
	stagingConc := fs.Int("staging-concurrency", 0, "in-flight staging ops per step; >1 starts the pool's per-endpoint workers (run mode; needs the TCP staging path: -staging-tcp or -staging-servers > 1)")
	stagingDataDir := fs.String("staging-data-dir", "", "persist each staging server's space under this directory (WAL + snapshots); a rerun recovers from it (run mode; implies -staging-tcp)")
	fault := fs.String("fault", "", "fault plan for the TCP staging path, e.g. seed=42,refuse=-1 (run mode; implies -staging-tcp)")
	journalPath := fs.String("journal", "", "write-ahead journal every step barrier to this file; the run becomes resumable after a kill (run mode)")
	resumeRun := fs.Bool("resume", false, "resume the journaled run in -journal from its last completed step instead of starting fresh (run mode)")
	haltAfter := fs.Int("halt-after", -1, "execute N steps this process, then exit without flushing or closing anything — a deterministic driver kill for resume testing (run/runspec mode; needs a journal)")
	eventsPath := fs.String("events", "", "stream structured runtime events as JSON Lines to this file (run mode); event log to summarize (report mode)")
	spansPath := fs.String("spans", "", "stream the causal span log as JSON Lines to this file (run mode); span log for the per-phase table (report mode)")
	spansBlame := fs.Bool("blame", false, "print the per-layer wall-time blame table (spans mode)")
	spansCritical := fs.Bool("critical-path", false, "print each step's critical path through the overlapped pipeline (spans mode; implies -blame)")
	chromePath := fs.String("chrome", "", "write a Chrome trace_event JSON for Perfetto to this file (spans mode)")
	metricsAddr := fs.String("metrics-addr", "", "serve Prometheus metrics on this address during the run, e.g. :9090 or :0 (run mode)")
	outPath := fs.String("out", "", "write the xlayer-bench/v1 report to this file (loadgen mode); write shrunk repros into this directory (chaos mode)")
	short := fs.Bool("short", false, "trim the domain and step count — the CI smoke shape (loadgen mode)")
	lgTenants := fs.Int("tenants", 8, "concurrent tenant workflows (loadgen mode)")
	lgServers := fs.Int("servers", 3, "shared staging servers (loadgen mode; serve mode default 1)")
	lgReplicas := fs.Int("replicas", 2, "pool replication factor (loadgen mode)")
	lgMaxConns := fs.Int("max-conns", 4, "per-server admission cap; <0 = unlimited (loadgen/serve mode)")
	lgBacklog := fs.Int("backlog", 2, "per-server bounded accept backlog (loadgen/serve mode)")
	lgQuotaBytes := fs.Int64("quota-bytes", 0, "per-tenant per-server byte quota; 0 = unlimited (loadgen/serve mode)")
	lgQuotaBlocks := fs.Int("quota-blocks", 0, "per-tenant per-server block quota; 0 = unlimited (loadgen/serve mode)")
	lgSeed := fs.Int64("seed", 1, "arrival-jitter and backoff seed (loadgen mode)")
	lgLogDir := fs.String("log-dir", "", "write one deterministic JSONL log per tenant into this directory (loadgen mode)")
	serveAddr := fs.String("addr", "127.0.0.1:0", "listen address; port 0 picks free ports (serve mode)")
	serveQuotaTenants := fs.String("quota-tenants", "", "comma-separated tenant ids the quota flags apply to (serve mode)")
	serveDomainEdge := fs.Int("domain-edge", 32, "cubic domain edge anchoring the space's shard routing (serve mode)")
	serveDataDir := fs.String("data-dir", "", "durable data directory: each server recovers its space from <dir>/server-<i> on start and fsyncs acked puts (serve mode)")
	chaosSeeds := fs.Int("seeds", 25, "seeded fault schedules to explore (chaos mode)")
	chaosStartSeed := fs.Int64("start-seed", 0, "first seed of the sweep (chaos mode)")
	chaosReplay := fs.String("replay", "", "replay this shrunk repro file instead of sweeping (chaos mode)")
	chaosJSON := fs.Bool("json", false, "print the sweep report as JSON (chaos mode)")
	if err := fs.Parse(os.Args[2:]); err != nil {
		os.Exit(2)
	}

	switch cmd {
	case "fig1":
		crosslayer.Fig1PeakMemory(*steps, 0, 0).Print(os.Stdout)
	case "fig5":
		crosslayer.Fig5AppAdaptation(*steps).Print(os.Stdout)
	case "fig6":
		crosslayer.Fig6EntropyReduction(*steps).Print(os.Stdout)
	case "fig7", "fig8":
		crosslayer.Fig7Placement(*steps).Print(os.Stdout)
	case "fig9":
		crosslayer.Fig9ResourceAdaptation(*steps).Print(os.Stdout)
	case "fig10", "fig11", "table2":
		crosslayer.Fig10CrossLayer(*steps).Print(os.Stdout)
	case "all":
		fmt.Println("=== Fig 1 ===")
		crosslayer.Fig1PeakMemory(*steps, 0, 0).Print(os.Stdout)
		fmt.Println("\n=== Fig 5 ===")
		crosslayer.Fig5AppAdaptation(*steps).Print(os.Stdout)
		fmt.Println("\n=== Fig 6 ===")
		crosslayer.Fig6EntropyReduction(*steps).Print(os.Stdout)
		fmt.Println("\n=== Figs 7 & 8 ===")
		crosslayer.Fig7Placement(*steps).Print(os.Stdout)
		fmt.Println("\n=== Fig 9 ===")
		crosslayer.Fig9ResourceAdaptation(*steps).Print(os.Stdout)
		fmt.Println("\n=== Figs 10 & 11, Table 2 ===")
		crosslayer.Fig10CrossLayer(*steps).Print(os.Stdout)
	case "runspec":
		if fs.NArg() != 1 {
			fmt.Fprintln(os.Stderr, "usage: xlayer runspec [flags] <spec.json>")
			os.Exit(2)
		}
		if err := runSpec(fs.Arg(0), *haltAfter); err != nil {
			fmt.Fprintln(os.Stderr, "xlayer:", err)
			os.Exit(1)
		}
	case "run":
		o := runOpts{
			app: *app, placement: *placement, objective: *objective,
			steps: *steps, cores: *cores, staging: *staging,
			csvPath: *csvPath, jsonlPath: *jsonlPath, plotPath: *plotPath,
			stagingTCP: *stagingTCP, fault: *fault,
			stagingServers: *stagingServers, stagingReplicas: *stagingReplicas,
			stagingKill: *stagingKill, stagingConcurrency: *stagingConc,
			stagingDataDir: *stagingDataDir,
			eventsPath:     *eventsPath, metricsAddr: *metricsAddr,
			spansPath:   *spansPath,
			journalPath: *journalPath, resume: *resumeRun, haltAfter: *haltAfter,
		}
		if err := runFromFlags(o); err != nil {
			fmt.Fprintln(os.Stderr, "xlayer:", err)
			os.Exit(1)
		}
	case "report":
		if err := runReport(*jsonlPath, *csvPath, *eventsPath, *spansPath); err != nil {
			fmt.Fprintln(os.Stderr, "xlayer:", err)
			os.Exit(1)
		}
	case "spans":
		if fs.NArg() != 1 {
			fmt.Fprintln(os.Stderr, "usage: xlayer spans [-blame] [-critical-path] [-chrome FILE] <spans.jsonl>")
			os.Exit(2)
		}
		if err := runSpans(spansOpts{
			path: fs.Arg(0), blame: *spansBlame, critical: *spansCritical, chrome: *chromePath,
		}); err != nil {
			fmt.Fprintln(os.Stderr, "xlayer:", err)
			os.Exit(1)
		}
	case "loadgen":
		if err := runLoadgen(loadgenOpts{
			tenants: *lgTenants, steps: *steps,
			servers: *lgServers, replicas: *lgReplicas,
			maxConns: *lgMaxConns, backlog: *lgBacklog,
			quotaBytes: *lgQuotaBytes, quotaBlocks: *lgQuotaBlocks,
			seed: *lgSeed, logDir: *lgLogDir, outPath: *outPath,
			short: *short,
		}); err != nil {
			fmt.Fprintln(os.Stderr, "xlayer:", err)
			os.Exit(1)
		}
	case "serve":
		// serve defaults to one server unless -servers was given explicitly.
		nServers := 1
		fs.Visit(func(f *flag.Flag) {
			if f.Name == "servers" {
				nServers = *lgServers
			}
		})
		if err := runServe(serveOpts{
			addr: *serveAddr, servers: nServers,
			maxConns: *lgMaxConns, backlog: *lgBacklog,
			domainEdge: *serveDomainEdge,
			quotaBytes: *lgQuotaBytes, quotaBlocks: *lgQuotaBlocks,
			quotaTenants: *serveQuotaTenants,
			dataDir:      *serveDataDir,
		}); err != nil {
			fmt.Fprintln(os.Stderr, "xlayer:", err)
			os.Exit(1)
		}
	case "chaos":
		if err := runChaos(chaosOpts{
			seeds: *chaosSeeds, startSeed: *chaosStartSeed, maxSteps: *steps,
			outDir: *outPath, replay: *chaosReplay, jsonOut: *chaosJSON,
		}); err != nil {
			fmt.Fprintln(os.Stderr, "xlayer:", err)
			os.Exit(1)
		}
	default:
		usage()
		os.Exit(2)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage: xlayer <fig1|fig5|fig6|fig7|fig8|fig9|fig10|fig11|table2|all|run|runspec|report|spans|chaos|loadgen|serve> [flags]
run flags: -app gas|advdiff  -placement adaptive|insitu|intransit
           -objective tts|util|movement  -steps N  -cores N  -staging M
           -csv FILE  -jsonl FILE  -plotfile FILE
           -staging-tcp  -fault PLAN (e.g. seed=42,refuse=-1,corrupt=0.01)
           -staging-servers N  -staging-replicas K  -staging-kill server=1,at=3,revive=6
           -staging-concurrency C (parallel staging data path; needs -staging-tcp or -staging-servers > 1)
           -staging-data-dir DIR (durable staging: per-server WAL + snapshots; reruns recover)
           -events FILE (structured event stream)  -spans FILE (causal span log)
           -metrics-addr ADDR (Prometheus)
           -journal FILE (write-ahead step journal; makes the run resumable)
           -resume (continue the journaled run from its last completed step)
           -halt-after N (run N steps then exit without flushing — a driver kill)
runspec:   xlayer runspec [-halt-after N] <spec.json>  (see docs/example_spec.json)
report:    xlayer report -jsonl trace.jsonl | -csv trace.csv | -events events.jsonl | -spans spans.jsonl
spans:     xlayer spans [-blame] [-critical-path] [-chrome trace.json] spans.jsonl
chaos:     xlayer chaos [-seeds N] [-start-seed S] [-steps MAX] [-out REPRO_DIR] [-json]
           xlayer chaos -replay repro.json  (re-run a shrunk repro; violations exit nonzero)
loadgen:   xlayer loadgen [-tenants K] [-steps N] [-servers N] [-replicas K] [-seed S]
           [-max-conns N] [-backlog N] [-quota-bytes B] [-quota-blocks N]
           [-log-dir DIR] [-out report.json] [-short]
serve:     xlayer serve [-addr HOST:PORT] [-servers N] [-max-conns N] [-backlog N]
           [-quota-tenants t0,t1 -quota-bytes B] [-domain-edge N]
           [-data-dir DIR]  (durable spaces; SIGTERM drains, fsyncs and exits 0)`)
}

// runSpec executes a declarative workflow specification. A spec with
// "journal" set checkpoints every step barrier; one with "resume" continues
// a previous run from its journal. haltAfter >= 0 executes that many steps
// and then exits the process without flushing anything — a deterministic
// driver kill for resume testing.
func runSpec(path string, haltAfter int) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	w, err := spec.Parse(f)
	if err != nil {
		return err
	}
	wf, res, err := driveSpec(w, haltAfter, "resuming from journal at", false)
	if err != nil {
		return err
	}
	defer wf.Close()
	fmt.Printf("%s (%s) | %d steps\n", wf.Simulation().Name(), path, w.StepsOrDefault())
	fmt.Printf("simulation time: %.2fs   end-to-end: %.2fs   overhead: %.2fs\n",
		res.SimSecondsTotal, res.EndToEnd, res.OverheadSeconds)
	fmt.Printf("placements: %d in-situ, %d in-transit   data moved: %.2f GB   energy: %.0f J\n",
		res.InSituSteps, res.InTransitSteps, float64(res.BytesMovedTotal)/(1<<30), res.EnergyJoules)
	fmt.Printf("staging utilization (Eq. 12): %.1f%%\n", 100*res.StagingUtilization)
	return nil
}

// driveSpec builds w and runs the steps it still owes — all of them for a
// fresh run, the tail beyond the last checkpoint for a resume — honoring
// -halt-after (haltAfter >= 0) as a deterministic driver kill. resumeNote is
// the mode's wording of the resume notice; announceMetrics prints the bound
// metrics URL first. The caller closes the returned workflow.
func driveSpec(w *spec.Workflow, haltAfter int, resumeNote string, announceMetrics bool) (*crosslayer.Workflow, crosslayer.Result, error) {
	if haltAfter >= 0 && w.Journal == "" {
		return nil, crosslayer.Result{}, fmt.Errorf("-halt-after needs a journal (the halted run is only recoverable from one)")
	}
	wf, _, err := w.Build()
	if err != nil {
		return nil, crosslayer.Result{}, err
	}
	if addr := w.BoundMetricsAddr(); announceMetrics && addr != "" {
		fmt.Printf("metrics: http://%s/metrics\n", addr)
	}
	remaining := max(w.StepsOrDefault()-wf.NextStep(), 0)
	if w.ResumedStep() > 0 {
		fmt.Printf("%s step %d\n", resumeNote, w.ResumedStep())
	}
	if haltAfter >= 0 && haltAfter < remaining {
		if err := haltRun(wf, haltAfter); err != nil {
			wf.Close()
			return nil, crosslayer.Result{}, err
		}
	}
	res := wf.Run(remaining)
	if err := wf.JournalErr(); err != nil {
		fmt.Fprintln(os.Stderr, "xlayer: journal degraded:", err)
	}
	return wf, res, nil
}

// haltRun executes n steps and then exits the process immediately — defers
// skipped, sinks unflushed, listeners leaked — which is exactly the state a
// SIGKILLed driver leaves behind. Only what the journal's barrier flushes
// already landed on disk survives for the resume.
func haltRun(wf *crosslayer.Workflow, n int) error {
	for i := 0; i < n; i++ {
		wf.Step()
	}
	if err := wf.JournalErr(); err != nil {
		return fmt.Errorf("halt-after: journal: %w", err)
	}
	fmt.Printf("halted before step %d; resume from the journal to continue\n", wf.NextStep())
	os.Exit(0)
	return nil
}

// specFromRunOpts maps the run-mode flags onto the declarative spec: a 24³
// domain, max level 1, box size 12, 8 ranks, cell scale 1000, hinted factors
// {2,4}. Every `xlayer run` builds through spec.Build, so staging wiring,
// flag validation, trace identity and checkpoint/resume — journal recovery,
// spec fingerprinting, log-tail amputation — have one implementation; the
// JSON round-trip applies the same validation a spec file gets and pins the
// fingerprint to the canonical form.
func specFromRunOpts(o runOpts) (*spec.Workflow, error) {
	steps := o.steps
	if steps <= 0 {
		steps = 20
	}
	w := &spec.Workflow{
		Domain:     [3]int{24, 24, 24},
		MaxLevel:   1,
		MaxBoxSize: 12,
		Ranks:      8,
		SimCores:   o.cores, StagingCores: o.staging,
		CellScale: 1000,
		Steps:     steps,
		Factors:   []int{2, 4},

		StagingTCP:         o.stagingTCP || o.stagingServers > 1 || o.fault != "" || o.stagingDataDir != "",
		StagingServers:     o.stagingServers,
		StagingReplicas:    o.stagingReplicas,
		StagingConcurrency: o.stagingConcurrency,
		StagingDataDir:     o.stagingDataDir,

		Events: o.eventsPath, Spans: o.spansPath, MetricsAddr: o.metricsAddr,
		Journal: o.journalPath, Resume: o.resume,
	}
	switch o.app {
	case "gas":
		w.Application = "polytropic-gas"
	case "advdiff":
		w.Application = "advection-diffusion"
		w.Periodic = true
	default:
		return nil, fmt.Errorf("unknown app %q", o.app)
	}
	obj, err := policy.ParseObjective(o.objective)
	if err != nil {
		return nil, err
	}
	// The default stays unspelled, as journal fingerprints and trace seeds
	// have always recorded it.
	if obj != policy.MinTimeToSolution {
		w.Objective = obj.String()
	}
	switch o.placement {
	case "adaptive":
		w.Adapt = []string{"application", "middleware", "resource"}
	case "insitu": // spec default for static runs
	case "intransit":
		w.Placement = "intransit"
	default:
		return nil, fmt.Errorf("unknown placement %q", o.placement)
	}
	kill, err := spec.ParseKill(o.stagingKill)
	if err != nil {
		return nil, err
	}
	w.StagingKill = kill
	if o.fault != "" {
		plan, err := crosslayer.ParseFaultPlan(o.fault)
		if err != nil {
			return nil, err
		}
		w.Fault = &spec.FaultSpec{
			Seed:           plan.Seed,
			RefuseAccepts:  plan.RefuseAccepts,
			DropAfterBytes: plan.DropAfterBytes,
			LatencyMS:      float64(plan.Latency) / float64(time.Millisecond),
			TruncateRate:   plan.TruncateRate,
			CorruptRate:    plan.CorruptRate,
		}
	}
	b, err := json.Marshal(w)
	if err != nil {
		return nil, err
	}
	return spec.Parse(bytes.NewReader(b))
}

// runFromFlags is run mode. It builds the workflow through the spec layer
// (see specFromRunOpts), drives the remaining steps — all of them for a
// fresh run, the tail beyond the last checkpoint for a resume — and honors
// -halt-after as a deterministic driver kill.
func runFromFlags(o runOpts) error {
	w, err := specFromRunOpts(o)
	if err != nil {
		return err
	}
	wf, res, err := driveSpec(w, o.haltAfter, "resuming "+o.journalPath+" from", true)
	if err != nil {
		return err
	}
	defer wf.Close()
	if missing := wf.ResumeAuditMissing(); missing > 0 {
		fmt.Fprintf(os.Stderr, "xlayer: resume audit: %d manifest blocks missing from the pool\n", missing)
	}

	tail := ""
	if o.journalPath != "" {
		tail = " | journal " + o.journalPath
	}
	if o.stagingDataDir != "" {
		tail += " | data " + o.stagingDataDir
	}
	fmt.Printf("%s | %s placement | objective %s | %d steps%s\n",
		wf.Simulation().Name(), o.placement, o.objective, w.StepsOrDefault(), tail)
	fmt.Printf("simulation time: %.2fs   end-to-end: %.2fs   overhead: %.2fs (%.1f%%)\n",
		res.SimSecondsTotal, res.EndToEnd, res.OverheadSeconds,
		100*res.OverheadSeconds/res.SimSecondsTotal)
	fmt.Printf("placements: %d in-situ, %d in-transit   data moved: %.2f GB\n",
		res.InSituSteps, res.InTransitSteps, float64(res.BytesMovedTotal)/(1<<30))
	fmt.Printf("staging utilization (Eq. 12): %.1f%%\n", 100*res.StagingUtilization)
	if w.StagingTCP {
		rep := crosslayer.SummarizeTrace(res.Steps)
		fmt.Printf("staging transport: %d retries, %d reconnects, %d degraded steps\n",
			rep.Retries, rep.Reconnects, rep.Degraded)
	}
	for _, s := range res.Steps {
		fmt.Printf("  step %2d: factor %2d, %-10s, M=%3d, sim %.3fs, analysis %.3fs — %s\n",
			s.Step, s.Factor, s.Placement, s.StagingCores, s.SimSeconds, s.AnalysisSeconds, s.PlacementReason)
	}
	if o.csvPath != "" {
		if err := writeArtifact(o.csvPath, func(f *os.File) error {
			return crosslayer.WriteTraceCSV(f, res.Steps)
		}); err != nil {
			return err
		}
		fmt.Println("wrote", o.csvPath)
	}
	if o.jsonlPath != "" {
		if err := writeArtifact(o.jsonlPath, func(f *os.File) error {
			return crosslayer.WriteTraceJSONL(f, res.Steps)
		}); err != nil {
			return err
		}
		fmt.Println("wrote", o.jsonlPath)
	}
	if o.plotPath != "" {
		if err := writeArtifact(o.plotPath, func(f *os.File) error {
			return crosslayer.WritePlotfile(f, wf.Simulation().Hierarchy())
		}); err != nil {
			return err
		}
		fmt.Println("wrote", o.plotPath)
	}
	return nil
}

type runOpts struct {
	app, placement, objective       string
	steps, cores, staging           int
	csvPath, jsonlPath, plotPath    string
	stagingTCP                      bool
	fault                           string
	stagingServers, stagingReplicas int
	stagingKill                     string
	stagingConcurrency              int
	stagingDataDir                  string
	eventsPath, metricsAddr         string
	spansPath                       string
	journalPath                     string
	resume                          bool
	haltAfter                       int
}

// runReport summarizes previously written run artifacts: a step trace
// (-jsonl or -csv) and/or a structured event log (-events).
func runReport(jsonlPath, csvPath, eventsPath, spansPath string) error {
	if jsonlPath == "" && csvPath == "" && eventsPath == "" && spansPath == "" {
		return fmt.Errorf("report: need -jsonl, -csv, -events or -spans")
	}
	summarizeSteps := func(path string, read func(*os.File) ([]crosslayer.StepRecord, error)) error {
		f, err := os.Open(path)
		if err != nil {
			return err
		}
		defer f.Close()
		steps, err := read(f)
		if err != nil {
			return err
		}
		fmt.Printf("== step trace %s ==\n", path)
		return crosslayer.SummarizeTrace(steps).WriteText(os.Stdout)
	}
	if jsonlPath != "" {
		if err := summarizeSteps(jsonlPath, func(f *os.File) ([]crosslayer.StepRecord, error) {
			return crosslayer.ReadTraceJSONL(f)
		}); err != nil {
			return err
		}
	}
	if csvPath != "" {
		if err := summarizeSteps(csvPath, func(f *os.File) ([]crosslayer.StepRecord, error) {
			return crosslayer.ReadTraceCSV(f)
		}); err != nil {
			return err
		}
	}
	if eventsPath != "" {
		f, err := os.Open(eventsPath)
		if err != nil {
			return err
		}
		defer f.Close()
		events, err := crosslayer.ReadEvents(f)
		if err != nil {
			return err
		}
		fmt.Printf("== event log %s ==\n", eventsPath)
		if err := crosslayer.SummarizeEvents(events).WriteText(os.Stdout); err != nil {
			return err
		}
	}
	if spansPath != "" {
		f, err := os.Open(spansPath)
		if err != nil {
			return err
		}
		defer f.Close()
		spans, err := crosslayer.ReadSpans(f)
		if err != nil {
			return err
		}
		fmt.Printf("== span log %s: per-phase wall time ==\n", spansPath)
		crosslayer.WriteSpanPhaseText(os.Stdout, crosslayer.SpanPhaseBreakdown(spans))
	}
	return nil
}

// writeArtifact creates path, runs the writer, and closes the file,
// reporting the first error.
func writeArtifact(path string, fn func(*os.File) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := fn(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
