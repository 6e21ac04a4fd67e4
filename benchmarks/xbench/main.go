// Command xbench is the repository's benchmark. One invocation runs one
// workload (or all four) against an in-process three-server, two-replica
// staging deployment on raw loopback, checks every output, and prints every
// metric by name with its unit; the last line of standard output is the
// machine-readable result. README.md in the parent directory explains the
// workloads, the metrics and how they are expected to interact.
//
//	xbench --workload NAME --seed N --seconds S --trace 0|1
//
// With --trace 0 it reports the end-to-end metrics. With --trace 1 every
// other round records benchmark-side spans, the stack-peel probes run, and it
// reports the per-layer ledger instead.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"strings"
	"text/tabwriter"
	"time"
)

type options struct {
	workload     string
	seed         int64
	seconds      float64
	trace        int
	traceDir     string
	quick        bool
	repeat       int
	updateGolden string
	manifest     bool
	tmp          string
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	var o options
	fs := flag.NewFlagSet("xbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.StringVar(&o.workload, "workload", "", "workload to run (default: all four, one after another)")
	fs.Int64Var(&o.seed, "seed", 42, "seed for synthetic payloads and the query stream")
	fs.Float64Var(&o.seconds, "seconds", runSeconds, "how long to measure each workload")
	fs.IntVar(&o.trace, "trace", 0, "1 = traced rounds, probes and the per-layer ledger instead of the end-to-end metrics")
	fs.StringVar(&o.traceDir, "trace-dir", "", "with -trace 1: write trace-<workload>.json (Chrome trace format) here")
	fs.BoolVar(&o.quick, "quick", false, "smoke-test sizes: a fraction of every count, one round")
	fs.IntVar(&o.repeat, "repeat", 1, "run the set N times on seeds seed..seed+N-1 and gate each metric's spread on its bound")
	fs.StringVar(&o.updateGolden, "update-golden", "", "write the coupled workloads' exact outputs to this golden.json instead of checking them")
	fs.BoolVar(&o.manifest, "manifest", false, "print the BENCHMARK.json these tables describe, and exit")
	fs.StringVar(&o.tmp, "tmp", "", "parent directory for durable servers' data dirs (default: the system's)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 || o.trace < 0 || o.trace > 1 || o.seconds <= 0 || o.repeat < 1 {
		fmt.Fprintln(stderr, "xbench: bad arguments; see -h")
		return 2
	}
	if o.manifest {
		return printManifest(stdout)
	}
	defs := workloads
	if o.workload != "" {
		def := findWorkload(o.workload)
		if def == nil {
			fmt.Fprintf(stderr, "xbench: unknown workload %q\n", o.workload)
			return 2
		}
		defs = []workloadDef{*def}
	}
	golden, err := loadGolden()
	if err != nil {
		fmt.Fprintln(stderr, "xbench:", err)
		return 1
	}
	fmt.Fprintf(stdout, "xbench: GOMAXPROCS=%d seed=%d seconds=%g trace=%d quick=%t\n",
		runtime.GOMAXPROCS(0), o.seed, o.seconds, o.trace, o.quick)

	if o.repeat > 1 {
		return repeatRuns(defs, o, golden, stdout, stderr)
	}
	for _, def := range defs {
		res, err := runWorkload(def, o, golden, stdout, stderr)
		if err != nil {
			fmt.Fprintf(stderr, "xbench: %s: %v\n", def.name, err)
			return 1
		}
		res.print(stdout)
	}
	if o.updateGolden != "" {
		return writeGolden(o.updateGolden, golden, stderr)
	}
	return 0 // failed checks are in each result line's correct/failed, as the driver expects
}

// result is the machine-readable outcome of one workload's run: the last
// line of standard output, in the shape the driver parses.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`

	workload string
	defs     []metricDef
	notes    []string
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func (res *result) print(w io.Writer) {
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	for _, d := range res.defs {
		fmt.Fprintf(tw, "%s\t%s\t%.6g\t%s\n", res.workload, d.name, res.Metrics[d.name].Value, d.unit)
	}
	tw.Flush()
	for _, n := range res.notes {
		fmt.Fprintf(w, "%s: %s\n", res.workload, n)
	}
	fmt.Fprintf(w, "%s: failed_frac = %d/%d\n", res.workload, res.Failed, res.Attempted)
	line, err := json.Marshal(res)
	if err != nil {
		panic(err) // only non-finite floats get here, and set() refuses them
	}
	fmt.Fprintf(w, "%s\n", line)
}

func (res *result) set(d metricDef, v float64) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		res.notes = append(res.notes, fmt.Sprintf("%s was not finite; reported as 0", d.name))
		res.Correct = false
		v = 0
	}
	res.Metrics[d.name] = metric{v, d.unit}
}

// A run takes at least this many set-up samples. Rounds supply one each; the
// rest come from standing the deployment up and straight down again, for at
// most setupExtraBudget in all, so a set-up of a millisecond is sampled as
// steadily as one of a fifth of a second.
const (
	setupSamples     = 11
	setupExtraBudget = 600 * time.Millisecond
)

// runWorkload repeats rounds of one workload until the time is up and turns
// them into the result. An untimed round at smoke-test size comes first, so
// page faults, heap growth and lazy initialisation land outside the
// measurement. A traced run alternates untraced and traced rounds for half
// the time (their ratio is the tracing overhead) and spends the rest on the
// workload's extras and the probes.
func runWorkload(def workloadDef, o options, golden goldenFile, stdout, stderr io.Writer) (*result, error) {
	traced := o.trace == 1
	budget, minRounds := o.seconds, 1
	if traced {
		budget, minRounds = o.seconds/2, 2
	}
	ctx := func(index int) *roundCtx {
		return &roundCtx{seed: o.seed, index: index, quick: o.quick, tmp: o.tmp, log: stderr}
	}
	began := time.Now()
	if !o.quick {
		warm := ctx(-1)
		warm.quick = true
		if _, err := runRound(def, warm); err != nil {
			return nil, fmt.Errorf("warm-up round: %w", err)
		}
	}
	res := &result{Metrics: make(map[string]metric), workload: def.name, Correct: true}
	var plain, withSpans []*round
	for i := 0; ; i++ {
		c := ctx(i)
		c.traced = traced && i%2 == 1
		r, err := runRound(def, c)
		if err != nil {
			return nil, fmt.Errorf("round %d: %w", i, err)
		}
		if key := goldenKey(def.name, o.quick); o.updateGolden == "" {
			r.checkGolden(golden, key, c)
		} else if r.golden != nil {
			golden[key] = r.golden
		}
		res.Attempted += r.attempted
		res.Failed += r.failed
		if c.traced {
			withSpans = append(withSpans, r)
		} else {
			plain = append(plain, r)
		}
		// Start another round only if it would end nearer the target than
		// stopping here does.
		if i+1 >= minRounds && (o.quick || time.Since(began).Seconds()+r.total.Seconds()/2 >= budget) {
			break
		}
	}
	var err error
	if traced {
		err = res.ledger(def, plain, withSpans, ctx(len(plain)+len(withSpans)), o, stdout)
	} else {
		err = res.endToEnd(def, plain, ctx, o.quick)
	}
	res.Correct = res.Correct && res.Failed == 0
	return res, err
}

// endToEnd fills in the end-to-end metrics from a run's untraced rounds.
func (res *result) endToEnd(def workloadDef, rounds []*round, ctx func(int) *roundCtx, quick bool) error {
	var setups []float64
	var rates []string
	for _, r := range rounds {
		setups = append(setups, r.setup.Seconds())
		rates = append(rates, fmt.Sprintf("%.4g", float64(r.steps)/r.wall.Seconds()))
	}
	for extra := time.Duration(0); !quick && len(setups) < setupSamples && extra < setupExtraBudget; {
		d, err := timeSetup(def, ctx(len(setups)))
		if err != nil {
			return fmt.Errorf("set-up sample: %w", err)
		}
		setups = append(setups, d.Seconds())
		extra += d
	}
	res.defs = endToEnd
	for _, d := range endToEnd {
		if d.name == "setup_s" {
			res.set(d, median(setups))
		} else {
			res.set(d, endToEndValue(d.name, rounds))
		}
	}
	res.notes = append(res.notes, "steps_per_s by round: "+strings.Join(rates, " "),
		fmt.Sprintf("%d rounds, %d set-ups, %d steps, %d puts and %d gets timed", len(rounds), len(setups),
			count(rounds, func(r *round) int { return len(r.stepNs) }),
			count(rounds, func(r *round) int { return len(r.putNs) }),
			count(rounds, func(r *round) int { return len(r.getNs) })))
	return nil
}

// ledger fills in the per-layer metrics: the median of what each traced round
// measured, the tracing overhead, the workload's extras and the probes.
func (res *result) ledger(def workloadDef, plain, withSpans []*round, c *roundCtx, o options, stdout io.Writer) error {
	layer := make(map[string]float64)
	for _, d := range perLayer {
		var vs []float64
		for _, r := range withSpans {
			vs = append(vs, r.layer[d.name])
		}
		layer[d.name] = median(vs)
	}
	layer["trace.overhead_frac"] = 1 - endToEndValue("steps_per_s", withSpans)/endToEndValue("steps_per_s", plain)
	if def.extras != nil {
		if err := def.extras(layer, c); err != nil {
			return err
		}
	}
	if err := runProbes(layer, o.quick, o.tmp, stdout); err != nil {
		return err
	}
	if o.traceDir != "" {
		if err := withSpans[len(withSpans)-1].rec.writeChrome(o.traceDir, def.name); err != nil {
			return fmt.Errorf("write trace: %w", err)
		}
	}
	res.defs = perLayer
	for _, d := range perLayer {
		res.set(d, layer[d.name])
	}
	res.notes = append(res.notes, fmt.Sprintf("%d traced and %d untraced rounds; busy fractions of concurrent operations may sum past 1",
		len(withSpans), len(plain)))
	return nil
}

func count(rounds []*round, f func(*round) int) (n int) {
	for _, r := range rounds {
		n += f(r)
	}
	return n
}

// endToEndValue computes one end-to-end metric (set-up time aside) over a
// run's rounds: rates as the median over rounds, latencies as a percentile of
// every operation of every round.
func endToEndValue(name string, rounds []*round) float64 {
	perRound := func(f func(r *round) float64) float64 {
		vs := make([]float64, len(rounds))
		for i, r := range rounds {
			vs[i] = f(r)
		}
		return median(vs)
	}
	pooled := func(f func(r *round) []int64, q float64) float64 {
		var all []int64
		for _, r := range rounds {
			all = append(all, f(r)...)
		}
		return nsQuantileMs(all, q)
	}
	switch name {
	case "steps_per_s":
		return perRound(func(r *round) float64 { return float64(r.steps) / r.wall.Seconds() })
	case "user_mb_per_s":
		return perRound(func(r *round) float64 { return float64(r.putBytes+r.getBytes) / 1e6 / r.wall.Seconds() })
	case "alloc_mb_per_step":
		return perRound(func(r *round) float64 { return float64(r.allocBytes) / 1e6 / float64(r.steps) })
	case "step_p50_ms":
		return pooled(func(r *round) []int64 { return r.stepNs }, 0.50)
	case "step_p90_ms":
		return pooled(func(r *round) []int64 { return r.stepNs }, 0.90)
	case "put_p50_ms":
		return pooled(func(r *round) []int64 { return r.putNs }, 0.50)
	case "get_p50_ms":
		return pooled(func(r *round) []int64 { return r.getNs }, 0.50)
	}
	panic("xbench: no such end-to-end metric: " + name)
}

// repeatRuns is the steadiness check the driver also makes: the whole set N
// times, each on its own seed, then per workload and end-to-end metric the
// spread between the quartiles as a share of the median, against the bound.
func repeatRuns(defs []workloadDef, o options, golden goldenFile, stdout, stderr io.Writer) int {
	values := make(map[string][]float64) // "workload metric" -> one value per run
	correct := true
	for n := 0; n < o.repeat; n++ {
		ro := o
		ro.seed, ro.trace = o.seed+int64(n), 0
		for _, def := range defs {
			res, err := runWorkload(def, ro, golden, io.Discard, stderr)
			if err != nil {
				fmt.Fprintf(stderr, "xbench: %s: %v\n", def.name, err)
				return 1
			}
			correct = correct && res.Correct
			for _, d := range endToEnd {
				k := def.name + " " + d.name
				values[k] = append(values[k], res.Metrics[d.name].Value)
			}
			fmt.Fprintf(stdout, "run %d/%d seed %d %s: steps_per_s=%.4g failed=%d/%d\n",
				n+1, o.repeat, ro.seed, def.name, res.Metrics["steps_per_s"].Value, res.Failed, res.Attempted)
		}
	}
	tw := tabwriter.NewWriter(stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tmedian\tunit\tspread\tbound\t")
	steady := true
	for _, def := range defs {
		for _, d := range endToEnd {
			vs := values[def.name+" "+d.name]
			spread, verdict := iqrOverMedian(vs), ""
			// The driver does not gate set-up time on its spread either.
			if spread > d.bound && d.name != "setup_s" {
				steady, verdict = false, "UNSTEADY"
			}
			fmt.Fprintf(tw, "%s\t%s\t%.5g\t%s\t%.2f%%\t%.0f%%\t%s\n",
				def.name, d.name, median(vs), d.unit, 100*spread, 100*d.bound, verdict)
		}
	}
	tw.Flush()
	if !steady || !correct {
		return 1
	}
	return 0
}

func writeGolden(path string, g goldenFile, stderr io.Writer) int {
	data, err := json.MarshalIndent(g, "", "  ")
	if err == nil {
		err = os.WriteFile(path, append(data, '\n'), 0o644)
	}
	if err != nil {
		fmt.Fprintln(stderr, "xbench:", err)
		return 1
	}
	return 0
}

// runSeconds is how long the driver measures one run for: five or so rounds
// of every workload, and 4 + 22×4 runs with their builds inside its hour.
const runSeconds = 20

// printManifest writes BENCHMARK.json from the tables in this package, so the
// file the driver reads cannot drift from what the program reports.
func printManifest(w io.Writer) int {
	type named struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	type layerMetric struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	}
	type boundedMetric struct {
		layerMetric
		Bound float64 `json:"bound"`
	}
	better := func(d metricDef) string {
		if d.lower {
			return "lower"
		}
		return "higher"
	}
	m := struct {
		Command    []string        `json:"command"`
		Paths      []string        `json:"paths"`
		RunSeconds int             `json:"run_seconds"`
		Workloads  []named         `json:"workloads"`
		EndToEnd   []boundedMetric `json:"end_to_end"`
		PerLayer   []layerMetric   `json:"per_layer"`
	}{Command: []string{"bash", "benchmarks/run.sh"}, Paths: []string{"benchmarks"}, RunSeconds: runSeconds}
	for _, d := range workloads {
		m.Workloads = append(m.Workloads, named{d.name, d.why})
	}
	for _, d := range endToEnd {
		m.EndToEnd = append(m.EndToEnd, boundedMetric{layerMetric{d.name, d.unit, better(d)}, d.bound})
	}
	for _, d := range perLayer {
		m.PerLayer = append(m.PerLayer, layerMetric{d.name, d.unit, better(d)})
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(m); err != nil {
		return 1
	}
	return 0
}
