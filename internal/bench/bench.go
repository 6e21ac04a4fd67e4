// Package bench is the reproducible benchmark harness behind `xlayer
// bench`: it regenerates the paper's Fig-1/5/9/10 workloads at fixed seeds,
// drives the staging pool's serialized and concurrent data paths over a
// real 3-server loopback deployment, and writes a BENCH_*.json report
// (schema xlayer-bench/v1: name, n, ns/op, custom metrics) so every PR can
// track the performance trajectory against a committed baseline.
package bench

import (
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strings"
	"sync"
	"time"

	"crosslayer/internal/experiments"
	"crosslayer/internal/faultnet"
	"crosslayer/internal/field"
	"crosslayer/internal/grid"
	"crosslayer/internal/obs/span"
	"crosslayer/internal/staging"
)

// Schema identifies the report format.
const Schema = "xlayer-bench/v1"

// Entry is one benchmark result, in `go test -bench` vocabulary: N
// iterations (steps for throughput workloads), nanoseconds per iteration,
// plus named custom metrics.
type Entry struct {
	Name    string             `json:"name"`
	N       int                `json:"n"`
	NsPerOp float64            `json:"ns_per_op"`
	Metrics map[string]float64 `json:"metrics,omitempty"`
}

// Report is one harness run.
type Report struct {
	Schema  string  `json:"schema"`
	Short   bool    `json:"short"`
	Entries []Entry `json:"entries"`
}

// Entry returns the named entry, if present.
func (r *Report) Entry(name string) (Entry, bool) {
	for _, e := range r.Entries {
		if e.Name == name {
			return e, true
		}
	}
	return Entry{}, false
}

// Write renders the report as indented JSON.
func (r *Report) Write(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}

// Decode reads a report and checks its schema tag.
func Decode(r io.Reader) (*Report, error) {
	var rep Report
	if err := json.NewDecoder(r).Decode(&rep); err != nil {
		return nil, fmt.Errorf("bench: decode report: %w", err)
	}
	if rep.Schema != Schema {
		return nil, fmt.Errorf("bench: unsupported schema %q (want %q)", rep.Schema, Schema)
	}
	return &rep, nil
}

// ReadFile decodes the report at path.
func ReadFile(path string) (*Report, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return Decode(f)
}

// Options tunes a harness run.
type Options struct {
	// Short trims every workload's step count — the PR-gate configuration.
	Short bool
	// Log receives one progress line per finished entry (nil = quiet).
	Log io.Writer
	// PprofDir, when non-empty, receives cpu.pprof and heap.pprof capturing
	// exactly the measured pool region; the pool workers carry pprof labels
	// (endpoint/shard), so profile samples cross-reference the span blame.
	PprofDir string
	// ChromeTrace, when non-empty, receives the Fig-9 concurrent pool run's
	// span tree as Chrome trace_event JSON (load in Perfetto).
	ChromeTrace string
}

func (o Options) logf(format string, args ...any) {
	if o.Log != nil {
		fmt.Fprintf(o.Log, format+"\n", args...)
	}
}

// Run executes the full harness: the four figure workloads, then the
// serialized and concurrent staging-pool data paths on the 3-server Fig-9
// deployment, closing with their speedup ratio (the machine-independent
// number the CI regression gate checks).
func Run(opts Options) (*Report, error) {
	rep := &Report{Schema: Schema, Short: opts.Short}
	for _, w := range figureWorkloads(opts.Short) {
		start := time.Now()
		metrics := w.run()
		e := Entry{
			Name:    w.name,
			N:       1,
			NsPerOp: float64(time.Since(start).Nanoseconds()),
			Metrics: metrics,
		}
		rep.Entries = append(rep.Entries, e)
		opts.logf("%-24s %12.0f ns/op  %v", e.Name, e.NsPerOp, e.Metrics)
	}

	steps := 16
	if opts.Short {
		steps = 6
	}
	prof, err := startProfiles(opts.PprofDir)
	if err != nil {
		return nil, err
	}
	serialized, serSpans, err := runPoolWorkload(1, steps)
	if err != nil {
		prof.stop()
		return nil, err
	}
	concurrent, conSpans, err := runPoolWorkload(poolConcurrency, steps)
	if perr := prof.stop(); err == nil {
		err = perr
	}
	if err != nil {
		return nil, err
	}
	if opts.PprofDir != "" {
		opts.logf("wrote %s and %s",
			filepath.Join(opts.PprofDir, "cpu.pprof"), filepath.Join(opts.PprofDir, "heap.pprof"))
	}
	if err := attachBlame(&serialized, serSpans, opts); err != nil {
		return nil, err
	}
	if err := attachBlame(&concurrent, conSpans, opts); err != nil {
		return nil, err
	}
	rep.Entries = append(rep.Entries, serialized)
	opts.logf("%-24s %12.0f ns/op  %v", serialized.Name, serialized.NsPerOp, serialized.Metrics)
	rep.Entries = append(rep.Entries, concurrent)
	opts.logf("%-24s %12.0f ns/op  %v", concurrent.Name, concurrent.NsPerOp, concurrent.Metrics)

	speedup := concurrent.Metrics["steps_per_sec"] / serialized.Metrics["steps_per_sec"]
	sp := Entry{
		Name:    "fig9-pool/speedup",
		N:       1,
		Metrics: map[string]float64{"speedup": speedup},
	}
	rep.Entries = append(rep.Entries, sp)
	opts.logf("%-24s concurrent/serialized = %.2fx", sp.Name, speedup)

	if opts.ChromeTrace != "" {
		f, err := os.Create(opts.ChromeTrace)
		if err != nil {
			return nil, fmt.Errorf("bench: chrome trace: %w", err)
		}
		werr := span.WriteChromeTrace(f, conSpans)
		if cerr := f.Close(); werr == nil {
			werr = cerr
		}
		if werr != nil {
			return nil, fmt.Errorf("bench: chrome trace: %w", werr)
		}
		opts.logf("wrote %s", opts.ChromeTrace)
	}
	return rep, nil
}

// attachBlame reconstructs a pool workload's span tree, prints the
// per-layer blame table, and folds the attribution into the entry's report
// metrics: per-layer seconds plus the wall-clock queue-wait vs execution
// split summed over every per-endpoint RPC — the numbers that explain,
// rather than just measure, the serialized/concurrent speedup.
func attachBlame(e *Entry, spans []span.Span, opts Options) error {
	tree, err := span.BuildTree(spans)
	if err != nil {
		return fmt.Errorf("bench: %s span tree: %w", e.Name, err)
	}
	steps := tree.Analyze()
	byLayer, total, queueNs, execNs := span.BlameTotals(steps)
	for l, secs := range byLayer {
		e.Metrics["blame_"+strings.ReplaceAll(l, "-", "_")+"_s"] = secs
	}
	e.Metrics["blame_attributed_s"] = total
	e.Metrics["pool_queue_ms"] = float64(queueNs) / 1e6
	e.Metrics["pool_exec_ms"] = float64(execNs) / 1e6
	if opts.Log != nil {
		fmt.Fprintf(opts.Log, "-- %s per-layer blame --\n", e.Name)
		span.WriteBlameText(opts.Log, steps, false)
	}
	return nil
}

// profiles captures the measured pool region: CPU samples between start and
// stop, plus a heap snapshot at stop (`xlayer bench -pprof <dir>`).
type profiles struct {
	dir string
	cpu *os.File
}

func startProfiles(dir string) (*profiles, error) {
	if dir == "" {
		return &profiles{}, nil
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("bench: pprof: %w", err)
	}
	f, err := os.Create(filepath.Join(dir, "cpu.pprof"))
	if err != nil {
		return nil, fmt.Errorf("bench: pprof: %w", err)
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return nil, fmt.Errorf("bench: pprof: %w", err)
	}
	return &profiles{dir: dir, cpu: f}, nil
}

// stop ends the CPU profile and writes the heap snapshot. Idempotent, so
// error paths can call it unconditionally.
func (p *profiles) stop() error {
	if p.dir == "" {
		return nil
	}
	dir := p.dir
	p.dir = ""
	pprof.StopCPUProfile()
	err := p.cpu.Close()
	hf, herr := os.Create(filepath.Join(dir, "heap.pprof"))
	if herr != nil {
		if err == nil {
			err = herr
		}
		return err
	}
	runtime.GC() // materialize up-to-date allocation stats
	if werr := pprof.WriteHeapProfile(hf); werr != nil && err == nil {
		err = werr
	}
	if cerr := hf.Close(); cerr != nil && err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("bench: pprof: %w", err)
	}
	return nil
}

// figureWorkload regenerates one paper figure at a fixed seed and reports
// its headline metrics.
type figureWorkload struct {
	name string
	run  func() map[string]float64
}

func figureWorkloads(short bool) []figureWorkload {
	steps := func(full, shortSteps int) int {
		if short {
			return shortSteps
		}
		return full
	}
	return []figureWorkload{
		{"fig1-peak-memory", func() map[string]float64 {
			r := experiments.Fig1PeakMemory(steps(50, 12), 16, 380)
			return map[string]float64{
				"max_imbalance": r.MaxImbalance,
				"growth_ratio":  r.GrowthRatio,
			}
		}},
		{"fig5-app-adaptation", func() map[string]float64 {
			r := experiments.Fig5AppAdaptation(steps(40, 12))
			return map[string]float64{
				"final_factor": float64(r.FinalFactor),
			}
		}},
		{"fig9-resource", func() map[string]float64 {
			r := experiments.Fig9ResourceAdaptation(steps(40, 10))
			return map[string]float64{
				"adaptive_utilization": r.AdaptiveUtilization,
				"static_utilization":   r.StaticUtilization,
			}
		}},
		{"fig10-cross-layer", func() map[string]float64 {
			r := experiments.Fig10CrossLayer(steps(24, 8))
			m := map[string]float64{}
			for scale, red := range r.OverheadReductions() {
				m["overhead_reduction_"+scale] = red
			}
			return m
		}},
	}
}

// The pool workload's fixed shape: the 3-server / 2-replica deployment the
// Fig-9 spec harness uses, fed a seeded synthetic block stream (a 32³
// domain in 8³ blocks — 64 blocks, 4 KiB of payload each, per step).
//
// Each server sits behind the deterministic faultnet latency wrapper: real
// staging crosses an interconnect, and loopback TCP has none, so without it
// the workload measures host CPU speed instead of the overlap the
// concurrent path exists to provide. The injected per-I/O latency makes the
// benchmark latency-bound — the serialized path pays every round trip
// sequentially, the concurrent path overlaps them across endpoints — and
// the steps/sec ratio portable across machines (including single-CPU CI
// runners, where loopback parallelism alone shows nothing).
const (
	poolServers     = 3
	poolReplicas    = 2
	poolConcurrency = 16
	poolBlockEdge   = 8
	poolDomainEdge  = 32
	poolSeed        = 42
	poolLinkLatency = 150 * time.Microsecond
)

// runPoolWorkload stands up the loopback pool and pushes `steps` versions
// through it: put every block, read the full region back, evict the
// previous version — one workflow step's staging I/O. conc == 1 is the
// Deterministic serialized path; conc > 1 fans puts out across conc sender
// goroutines into the pool's per-endpoint pipelines, exactly like a
// workflow running with StagingConcurrency == conc. The whole run is
// traced with wall-clock durations — the tracer's clock is wall seconds
// since the measured region began — so the returned spans carry the real
// queue-wait vs execution split the blame table attributes.
func runPoolWorkload(conc, steps int) (Entry, []span.Span, error) {
	name := "fig9-pool/serialized"
	if conc > 1 {
		name = "fig9-pool/concurrent"
	}
	domain := grid.NewBox(grid.IV(0, 0, 0),
		grid.IV(poolDomainEdge-1, poolDomainEdge-1, poolDomainEdge-1))

	var servers []*staging.Server
	addrs := make([]string, 0, poolServers)
	defer func() {
		for _, s := range servers {
			s.Close()
		}
	}()
	for i := 0; i < poolServers; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return Entry{}, nil, fmt.Errorf("bench: listen: %w", err)
		}
		link := faultnet.Listen(ln, faultnet.Plan{Latency: poolLinkLatency})
		srv, err := staging.NewServer(link, staging.NewSpace(4, 0, domain), staging.ServerOptions{})
		if err != nil {
			return Entry{}, nil, fmt.Errorf("bench: server %d: %w", i, err)
		}
		servers = append(servers, srv)
		addrs = append(addrs, ln.Addr().String())
	}
	pool, err := staging.NewPool(addrs, domain, staging.PoolOptions{
		Replicas:    poolReplicas,
		Concurrency: conc,
		Client: staging.ClientOptions{
			OpTimeout:   2 * time.Second,
			MaxRetries:  1,
			BackoffBase: time.Millisecond,
			BackoffMax:  10 * time.Millisecond,
		},
	})
	if err != nil {
		return Entry{}, nil, err
	}
	defer pool.Close()

	blocks := syntheticBlocks(domain)
	var blockBytes int64
	for _, b := range blocks {
		blockBytes += b.Bytes()
	}

	sink := &span.MemSink{}
	tr := span.NewTracer(sink, "bench/"+name).WithWallDurations()
	start := time.Now()
	tr.SetVirtualClock(func() float64 { return time.Since(start).Seconds() })
	run := tr.Begin(span.Ctx{}, "run", span.LayerRun, span.StepUnset)
	phase := func(st span.Ctx, name string, v int, fn func() error) error {
		c := tr.Begin(st, name, span.LayerStagingExec, v)
		pool.SetSpanScope(c)
		err := fn()
		pool.DrainSpans()
		c.End()
		return err
	}
	var bytesMoved int64
	for v := 0; v < steps; v++ {
		v := v
		st := tr.Begin(run, "step", span.LayerStep, v)
		if err := phase(st, "ship", v, func() error {
			return putAll(pool, v, blocks, conc)
		}); err != nil {
			return Entry{}, nil, fmt.Errorf("bench: step %d put: %w", v, err)
		}
		if err := phase(st, "read-back", v, func() error {
			got, err := pool.GetBlocks("bench", v, domain)
			if err != nil {
				return err
			}
			if len(got) != len(blocks) {
				return fmt.Errorf("read %d of %d blocks", len(got), len(blocks))
			}
			return nil
		}); err != nil {
			return Entry{}, nil, fmt.Errorf("bench: step %d get: %w", v, err)
		}
		if err := phase(st, "evict", v, func() error {
			_, err := pool.DropBefore("bench", v)
			return err
		}); err != nil {
			return Entry{}, nil, fmt.Errorf("bench: step %d drop: %w", v, err)
		}
		st.End()
		bytesMoved += blockBytes * int64(poolReplicas+1) // replica writes + read-back
	}
	run.End()
	wall := time.Since(start)

	return Entry{
		Name:    name,
		N:       steps,
		NsPerOp: float64(wall.Nanoseconds()) / float64(steps),
		Metrics: map[string]float64{
			"steps_per_sec": float64(steps) / wall.Seconds(),
			"bytes_moved":   float64(bytesMoved),
			"mb_per_sec":    float64(bytesMoved) / (1 << 20) / wall.Seconds(),
			"concurrency":   float64(conc),
		},
	}, sink.Spans(), nil
}

// syntheticBlocks tiles the domain into poolBlockEdge³ blocks with seeded
// payloads: the same byte stream every run, every machine.
func syntheticBlocks(domain grid.Box) []*field.BoxData {
	rng := rand.New(rand.NewSource(poolSeed))
	var out []*field.BoxData
	for z := 0; z < poolDomainEdge; z += poolBlockEdge {
		for y := 0; y < poolDomainEdge; y += poolBlockEdge {
			for x := 0; x < poolDomainEdge; x += poolBlockEdge {
				box := grid.NewBox(grid.IV(x, y, z),
					grid.IV(x+poolBlockEdge-1, y+poolBlockEdge-1, z+poolBlockEdge-1))
				b := field.New(box, 1)
				data := b.Comp(0)
				for i := range data {
					data[i] = rng.Float64()
				}
				out = append(out, b)
			}
		}
	}
	return out
}

// putAll ships one version's blocks: inline when conc <= 1, otherwise from
// conc bounded sender goroutines (the workflow's shipment fan-out shape).
func putAll(pool *staging.Pool, version int, blocks []*field.BoxData, conc int) error {
	if conc <= 1 {
		for _, b := range blocks {
			if err := pool.Put("bench", version, b); err != nil {
				return err
			}
		}
		return nil
	}
	sem := make(chan struct{}, conc)
	var wg sync.WaitGroup
	var mu sync.Mutex
	var firstErr error
	for _, b := range blocks {
		sem <- struct{}{}
		wg.Add(1)
		go func(b *field.BoxData) {
			defer wg.Done()
			defer func() { <-sem }()
			if err := pool.Put("bench", version, b); err != nil {
				mu.Lock()
				if firstErr == nil {
					firstErr = err
				}
				mu.Unlock()
			}
		}(b)
	}
	wg.Wait()
	return firstErr
}
