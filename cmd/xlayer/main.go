// Command xlayer regenerates the paper's tables and figures, runs
// standalone coupled workflows, and drives the staging service and its
// chaos and load harnesses.
//
// Commands: fig1, fig5, fig6, fig7, fig8, fig9, fig10, fig11, table2, all
// (fig8 is printed as part of fig7, and fig11/table2 as part of fig10: they
// share runs, exactly as in the paper), run, runspec, report, spans, chaos,
// loadgen, serve. `xlayer <command> -h` lists that command's flags.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"slices"
	"strings"
	"time"

	"crosslayer"
	"crosslayer/internal/obs"
	"crosslayer/internal/obs/span"
	"crosslayer/internal/policy"
	"crosslayer/internal/spec"
)

// command is one row of the CLI. setup declares the command's own flags on
// fs — bound straight into the options its run consumes — and returns run,
// which gets the positional arguments left after parsing. A flag a command
// does not declare is a parse error, not a silently ignored one.
type command struct {
	names []string // the name, then its aliases
	arg   string   // the one positional argument the command requires, if any
	about string
	setup func(fs *flag.FlagSet) (run func(args []string) error)
}

// figures are the paper's experiments: each is a command of its own, and
// `all` runs them in this order under their titles.
var figures = []struct {
	names []string
	title string
	print func(steps int)
}{
	{[]string{"fig1"}, "Fig 1", func(n int) { crosslayer.Fig1PeakMemory(n, 0, 0).Print(os.Stdout) }},
	{[]string{"fig5"}, "Fig 5", func(n int) { crosslayer.Fig5AppAdaptation(n).Print(os.Stdout) }},
	{[]string{"fig6"}, "Fig 6", func(n int) { crosslayer.Fig6EntropyReduction(n).Print(os.Stdout) }},
	{[]string{"fig7", "fig8"}, "Figs 7 & 8", func(n int) { crosslayer.Fig7Placement(n).Print(os.Stdout) }},
	{[]string{"fig9"}, "Fig 9", func(n int) { crosslayer.Fig9ResourceAdaptation(n).Print(os.Stdout) }},
	{[]string{"fig10", "fig11", "table2"}, "Figs 10 & 11, Table 2", func(n int) { crosslayer.Fig10CrossLayer(n).Print(os.Stdout) }},
}

func commands() []command {
	var cmds []command
	for _, f := range figures {
		cmds = append(cmds, command{f.names, "", "regenerate " + f.title, setupExperiment(f.print)})
	}
	return append(cmds,
		command{[]string{"all"}, "", "regenerate every figure and table above, in order", setupExperiment(func(steps int) {
			for i, f := range figures {
				if i > 0 {
					fmt.Println()
				}
				fmt.Printf("=== %s ===\n", f.title)
				f.print(steps)
			}
		})},
		command{[]string{"run"}, "", "run one coupled workflow described by flags", setupRun},
		command{[]string{"runspec"}, "<spec.json>", "run a declarative workflow specification (see docs/example_spec.json)", setupRunSpec},
		command{[]string{"report"}, "", "summarize artifacts a run wrote", setupReport},
		command{[]string{"spans"}, "<spans.jsonl>", "analyze a causal span log", setupSpans},
		command{[]string{"chaos"}, "", "explore seeded fault schedules, or replay a shrunk repro; violations exit 1", setupChaos},
		command{[]string{"loadgen"}, "", "drive concurrent tenant workflows against one shared staging pool", setupLoadgen},
		command{[]string{"serve"}, "", "stand up staging servers until SIGINT/SIGTERM drains, fsyncs and exits 0", setupServe},
	)
}

func main() {
	cmds := commands()
	var cmd *command
	for i := range cmds {
		if len(os.Args) > 1 && slices.Contains(cmds[i].names, os.Args[1]) {
			cmd = &cmds[i]
		}
	}
	if cmd == nil {
		fmt.Fprintln(os.Stderr, "usage: xlayer <command> [flags] [args]   (xlayer <command> -h lists its flags)")
		for _, c := range cmds {
			fmt.Fprintf(os.Stderr, "  %-20s %s\n", strings.Join(c.names, ", "), c.about)
		}
		os.Exit(2)
	}
	fs := flag.NewFlagSet(os.Args[1], flag.ExitOnError)
	run := cmd.setup(fs)
	fs.Usage = func() {
		fmt.Fprintf(fs.Output(), "usage: xlayer %s\n%s\n", strings.TrimSpace(fs.Name()+" [flags] "+cmd.arg), cmd.about)
		fs.PrintDefaults()
	}
	fs.Parse(os.Args[2:]) // ExitOnError: an undeclared flag exits 2, -h exits 0
	if cmd.arg != "" && fs.NArg() != 1 {
		fs.Usage()
		os.Exit(2)
	}
	if err := run(fs.Args()); err != nil {
		fmt.Fprintln(os.Stderr, "xlayer:", err)
		os.Exit(1)
	}
}

// setupExperiment is the flag surface of the figure commands: -steps alone.
func setupExperiment(print func(steps int)) func(*flag.FlagSet) func([]string) error {
	return func(fs *flag.FlagSet) func([]string) error {
		steps := fs.Int("steps", 0, "time steps (0 = experiment default)")
		return func([]string) error {
			print(*steps)
			return nil
		}
	}
}

// haltAfterFlag declares -halt-after, which run and runspec share.
func haltAfterFlag(fs *flag.FlagSet) *int {
	return fs.Int("halt-after", -1, "execute N steps this process, then exit without flushing or closing anything — a deterministic driver kill for resume testing (needs a journal)")
}

func setupRunSpec(fs *flag.FlagSet) func([]string) error {
	haltAfter := haltAfterFlag(fs)
	return func(args []string) error { return runSpec(args[0], *haltAfter) }
}

// runSpec executes a declarative workflow specification. A spec with
// "journal" set checkpoints every step barrier; one with "resume" continues
// a previous run from its journal.
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
	if haltAfter >= 0 {
		err := haltRun(wf, haltAfter, remaining) // a halt that fires exits the process
		wf.Close()
		return nil, crosslayer.Result{}, err
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
// already landed on disk survives for the resume. A halt the run would
// finish before reaching is an error, not a run that silently completes.
func haltRun(wf *crosslayer.Workflow, n, remaining int) error {
	if n >= remaining {
		return fmt.Errorf("-halt-after %d would never fire: only %d steps remain", n, remaining)
	}
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

// specFromRunOpts resolves the run flags into the declarative spec. Every
// `xlayer run` builds through spec.Build, so staging wiring, flag validation,
// trace identity and checkpoint/resume — journal recovery, spec
// fingerprinting, log-tail amputation — have one implementation; the JSON
// round-trip applies the same validation a spec file gets and pins the
// fingerprint to the canonical form.
func specFromRunOpts(o runOpts) (*spec.Workflow, error) {
	w := &o.spec
	if w.Steps <= 0 {
		w.Steps = 20
	}
	w.StagingTCP = w.StagingTCP || w.StagingServers > 1 || o.fault != "" || w.StagingDataDir != ""
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
	if w.StagingKill, err = spec.ParseKill(o.stagingKill); err != nil {
		return nil, err
	}
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

// runOpts is the flag surface of `xlayer run`: spec takes the flags that are
// spec fields under a flag's name, the rest are the CLI's shorthands, which
// specFromRunOpts resolves into it.
type runOpts struct {
	spec                         spec.Workflow
	app, placement, objective    string
	stagingKill, fault           string
	csvPath, jsonlPath, plotPath string
}

// setupRun is `xlayer run`: a 24³ domain, max level 1, box size 12, 8 ranks,
// cell scale 1000, hinted factors {2,4}, and whatever the flags say, built
// through the spec layer (see specFromRunOpts) and driven by driveSpec.
func setupRun(fs *flag.FlagSet) func([]string) error {
	o := runOpts{spec: spec.Workflow{
		Domain: [3]int{24, 24, 24}, MaxLevel: 1, MaxBoxSize: 12, Ranks: 8, CellScale: 1000, Factors: []int{2, 4},
	}}
	w := &o.spec
	fs.IntVar(&w.Steps, "steps", 0, "time steps (0 = 20)")
	fs.StringVar(&o.app, "app", "gas", "application: gas or advdiff")
	fs.StringVar(&o.placement, "placement", "adaptive", "adaptive, insitu or intransit")
	fs.StringVar(&o.objective, "objective", "tts", "tts, util or movement")
	fs.IntVar(&w.SimCores, "cores", 2048, "simulation cores in the cost model")
	fs.IntVar(&w.StagingCores, "staging", 128, "staging pool ceiling")
	fs.StringVar(&o.csvPath, "csv", "", "write per-step records as CSV to this file")
	fs.StringVar(&o.jsonlPath, "jsonl", "", "write per-step records as JSON Lines to this file")
	fs.StringVar(&o.plotPath, "plotfile", "", "write the final AMR hierarchy snapshot to this file")
	fs.BoolVar(&w.StagingTCP, "staging-tcp", false, "route in-transit data through a loopback TCP staging server")
	fs.IntVar(&w.StagingServers, "staging-servers", 1, "shard the TCP staging path across N loopback servers (>1 implies -staging-tcp)")
	fs.IntVar(&w.StagingReplicas, "staging-replicas", 1, "replicate each block to K pool servers (needs -staging-servers >= K)")
	fs.StringVar(&o.stagingKill, "staging-kill", "", "crash one pool server mid-run, e.g. server=1,at=3,revive=6 (needs -staging-servers > 1)")
	fs.IntVar(&w.StagingConcurrency, "staging-concurrency", 0, "in-flight staging ops per step; >1 starts the pool's per-endpoint workers (needs the TCP staging path: -staging-tcp or -staging-servers > 1)")
	fs.StringVar(&w.StagingDataDir, "staging-data-dir", "", "persist each staging server's space under this directory (WAL + snapshots); a rerun recovers from it (implies -staging-tcp)")
	fs.StringVar(&o.fault, "fault", "", "fault plan for the TCP staging path, e.g. seed=42,refuse=-1 (implies -staging-tcp)")
	fs.StringVar(&w.Journal, "journal", "", "write-ahead journal every step barrier to this file; the run becomes resumable after a kill")
	fs.BoolVar(&w.Resume, "resume", false, "resume the journaled run in -journal from its last completed step instead of starting fresh")
	fs.StringVar(&w.Events, "events", "", "stream structured runtime events as JSON Lines to this file")
	fs.StringVar(&w.Spans, "spans", "", "stream the causal span log as JSON Lines to this file")
	fs.StringVar(&w.MetricsAddr, "metrics-addr", "", "serve Prometheus metrics on this address during the run, e.g. :9090 or :0")
	haltAfter := haltAfterFlag(fs)
	return func([]string) error { return runFromFlags(o, *haltAfter) }
}

func runFromFlags(o runOpts, haltAfter int) error {
	w, err := specFromRunOpts(o)
	if err != nil {
		return err
	}
	wf, res, err := driveSpec(w, haltAfter, "resuming "+w.Journal+" from", true)
	if err != nil {
		return err
	}
	defer wf.Close()
	if missing := wf.ResumeAuditMissing(); missing > 0 {
		fmt.Fprintf(os.Stderr, "xlayer: resume audit: %d manifest blocks missing from the pool\n", missing)
	}

	tail := ""
	if w.Journal != "" {
		tail = " | journal " + w.Journal
	}
	if w.StagingDataDir != "" {
		tail += " | data " + w.StagingDataDir
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
	if err := writeArtifact(o.csvPath, func(f io.Writer) error { return crosslayer.WriteTraceCSV(f, res.Steps) }); err != nil {
		return err
	}
	if err := writeArtifact(o.jsonlPath, func(f io.Writer) error { return crosslayer.WriteTraceJSONL(f, res.Steps) }); err != nil {
		return err
	}
	return writeArtifact(o.plotPath, func(f io.Writer) error {
		return crosslayer.WritePlotfile(f, wf.Simulation().Hierarchy())
	})
}

// setupReport is `xlayer report`: it summarizes previously written run
// artifacts — a step trace (-jsonl or -csv), a structured event log
// (-events), a span log (-spans) — in that order.
func setupReport(fs *flag.FlagSet) func([]string) error {
	jsonlPath := fs.String("jsonl", "", "JSON Lines step trace to summarize")
	csvPath := fs.String("csv", "", "CSV step trace to summarize")
	eventsPath := fs.String("events", "", "event log to summarize")
	spansPath := fs.String("spans", "", "span log for the per-phase table")
	return func([]string) error {
		if *jsonlPath == "" && *csvPath == "" && *eventsPath == "" && *spansPath == "" {
			return fmt.Errorf("report: need -jsonl, -csv, -events or -spans")
		}
		steps := func(steps []crosslayer.StepRecord) error {
			return crosslayer.SummarizeTrace(steps).WriteText(os.Stdout)
		}
		if err := summarize(*jsonlPath, "== step trace %s ==\n", crosslayer.ReadTraceJSONL, steps); err != nil {
			return err
		}
		if err := summarize(*csvPath, "== step trace %s ==\n", crosslayer.ReadTraceCSV, steps); err != nil {
			return err
		}
		if err := summarize(*eventsPath, "== event log %s ==\n", crosslayer.ReadEvents, func(events []obs.Event) error {
			return crosslayer.SummarizeEvents(events).WriteText(os.Stdout)
		}); err != nil {
			return err
		}
		return summarize(*spansPath, "== span log %s: per-phase wall time ==\n", crosslayer.ReadSpans, func(spans []span.Span) error {
			crosslayer.WriteSpanPhaseText(os.Stdout, crosslayer.SpanPhaseBreakdown(spans))
			return nil
		})
	}
}

// summarize reads the records of the artifact at path (none given: nothing
// to do) and shows them under header, a format that names the path.
func summarize[T any](path, header string, read func(io.Reader) ([]T, error), show func([]T) error) error {
	if path == "" {
		return nil
	}
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	records, err := read(f)
	if err != nil {
		return err
	}
	fmt.Printf(header, path)
	return show(records)
}

// writeArtifact creates path (none given: no artifact), runs the writer,
// closes the file and says so, reporting the first error.
func writeArtifact(path string, write func(io.Writer) error) error {
	if path == "" {
		return nil
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	err = write(f)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		fmt.Println("wrote", path)
	}
	return err
}
