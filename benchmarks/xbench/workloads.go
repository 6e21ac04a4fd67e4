package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"runtime"
	"sync"
	"time"

	"crosslayer/internal/amr"
	"crosslayer/internal/analysis"
	"crosslayer/internal/core"
	"crosslayer/internal/field"
	"crosslayer/internal/grid"
	"crosslayer/internal/obs"
	"crosslayer/internal/obs/span"
	"crosslayer/internal/policy"
	"crosslayer/internal/solver"
	"crosslayer/internal/staging"
	"crosslayer/internal/sysmodel"
)

// A workload is measured in rounds. One round stands the whole deployment up
// from nothing (timed as set-up), runs a fixed number of steps in a closed
// loop (the next operation starts only after the previous one returned),
// checks its outputs and tears everything down. A run repeats rounds until
// its time is up and reports medians over them, so a faster build does the
// same work per round and simply fits more rounds in.
type workloadDef struct {
	name  string
	why   string
	setup func(c *roundCtx, r *round) (instance, error)
	// extras, when set, adds the workload's own per-layer numbers to a
	// traced run's ledger after its rounds.
	extras func(out map[string]float64, c *roundCtx) error
}

// instance is one round's deployment, built and ready.
type instance interface {
	// run is the timed closed loop and the output checks that follow it.
	run(c *roundCtx, r *round) error
	close()
}

var workloads = []workloadDef{
	{
		"coupled-gas-mem",
		"Compute-bound paper workflow: gas solver with all three adaptations over in-memory staging; solver, AMR, reduce and viz gains show here, staging changes should not.",
		gasMem.setup, nil,
	},
	{
		"coupled-advdiff-durable",
		"Staging-bound paper workflow: every step ships full resolution through pool, TCP, Space and a per-put fsync with two puts in flight; WAL and group-commit changes show here.",
		advDiffDurable.setup, nil,
	},
	{
		"pool-churn-mem",
		"Write-heavy small blocks straight at the pool: bound by per-op overhead in codec, client RPC, server handler and pool bookkeeping; no solver and no WAL.",
		churnVariant{}.setup, runToggles,
	},
	{
		"pool-scan-tenants",
		"Read-only large-block region queries from two tenant pools sharing the servers: Space query, server encode, client decode, tenant keys; a put-side gain that costs reads shows here.",
		setupScan, nil,
	},
}

func findWorkload(name string) *workloadDef {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}

// roundCtx is what a round is given: the run's seed, which round this is, and
// whether it is the quick (smoke-test) size or a traced one.
type roundCtx struct {
	seed   int64
	index  int
	quick  bool
	traced bool
	tmp    string // parent for durable data dirs
	log    io.Writer
}

// rng derives the round's generator from the seed alone, so a seed names the
// same inputs on every run.
func (c *roundCtx) rng() *rand.Rand {
	return rand.New(rand.NewSource(c.seed*1_000_003 + int64(c.index)))
}

func (c *roundCtx) count(full, quick int) int {
	if c.quick {
		return quick
	}
	return full
}

// round is everything one round measured.
type round struct {
	rec *recorder // nil unless the round is traced

	setup time.Duration
	wall  time.Duration // the timed loop
	total time.Duration // set-up, loop, checks and tear-down

	steps                int
	stepNs               []int64
	putNs, getNs, dropNs []int64
	putBytes, getBytes   int64
	allocBytes           uint64
	attempted, failed    int
	golden               map[string]int64   // exact outputs pinned by golden.json
	layer                map[string]float64 // per-layer numbers of this round
}

// runRound is one round of def: set-up, the timed loop, checks, tear-down.
func runRound(def workloadDef, c *roundCtx) (*round, error) {
	r := &round{layer: make(map[string]float64)}
	began := time.Now()
	if c.traced {
		r.rec = newRecorder(began)
	}
	inst, err := def.setup(c, r)
	if err != nil {
		return nil, err
	}
	r.setup = time.Since(began)
	err = inst.run(c, r)
	inst.close()
	r.total = time.Since(began)
	return r, err
}

// timeSetup stands a deployment up and tears it down again without running
// it: one more sample of set-up time.
func timeSetup(def workloadDef, c *roundCtx) (time.Duration, error) {
	began := time.Now()
	inst, err := def.setup(c, &round{})
	if err != nil {
		return 0, err
	}
	d := time.Since(began)
	inst.close()
	return d, nil
}

// timeSteps runs the closed loop: each of workers runs perWorker steps one
// after another (a single worker runs on the caller's goroutine). step
// returns how many failures the step saw beyond failed pool operations, which
// the meters count themselves.
func (r *round) timeSteps(recs []*recorder, perWorker int, step func(worker, i int) int) {
	workers := len(recs)
	lat := make([][]int64, workers)
	bad := make([]int, workers)
	loop := func(w int) {
		lat[w] = make([]int64, 0, perWorker)
		for i := 0; i < perWorker; i++ {
			recs[w].beginStep(w*perWorker + i)
			t0 := time.Now()
			bad[w] += step(w, i)
			t1 := time.Now()
			recs[w].add("step", t0, t1)
			lat[w] = append(lat[w], t1.Sub(t0).Nanoseconds())
		}
	}
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	start := time.Now()
	if workers == 1 {
		loop(0)
	} else {
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				loop(w)
			}(w)
		}
		wg.Wait()
	}
	r.wall = time.Since(start)
	runtime.ReadMemStats(&m1)
	r.allocBytes = m1.TotalAlloc - m0.TotalAlloc
	r.steps = workers * perWorker
	r.attempted += r.steps
	for w := range lat {
		r.stepNs = append(r.stepNs, lat[w]...)
		r.failed += bad[w]
	}
}

// check records one post-run check.
func (r *round) check(ok bool, c *roundCtx, format string, args ...any) {
	r.attempted++
	if !ok {
		r.failed++
		fmt.Fprintf(c.log, "FAILED CHECK: "+format+"\n", args...)
	}
}

// absorb folds a meter's tallies into the round.
func (r *round) absorb(m *meter) {
	r.putNs = append(r.putNs, m.putNs...)
	r.getNs = append(r.getNs, m.getNs...)
	r.dropNs = append(r.dropNs, m.dropNs...)
	r.putBytes += m.putBytes
	r.getBytes += m.getBytes
	r.attempted += len(m.putNs) + len(m.getNs) + len(m.dropNs)
	r.failed += m.errs + m.mismatches
}

// poolLayer fills in the pool, tcp and transport rungs of the ledger. puts0
// is how many puts set-up pushed through the meters; the timed loop's numbers
// leave them out.
func (r *round) poolLayer(d *deployment, puts0 int) {
	wall := float64(r.wall.Nanoseconds())
	put, get := r.putNs[puts0:], r.getNs
	l := r.layer
	l["pool.put_busy_frac"] = float64(sumNs(put)) / wall
	l["pool.get_busy_frac"] = float64(sumNs(get)) / wall
	l["pool.drop_busy_frac"] = float64(sumNs(r.dropNs)) / wall
	l["pool.put_p50_ms"] = nsQuantileMs(put, 0.50)
	l["pool.put_p99_ms"] = nsQuantileMs(put, 0.99)
	l["pool.get_p50_ms"] = nsQuantileMs(get, 0.50)
	l["pool.get_p99_ms"] = nsQuantileMs(get, 0.99)
	l["pool.drop_p50_ms"] = nsQuantileMs(r.dropNs, 0.50)
	l["pool.puts"] = float64(len(put))
	l["pool.gets"] = float64(len(get))
	l["pool.put_bytes"] = float64(r.putBytes)
	l["pool.get_bytes"] = float64(r.getBytes)
	for _, p := range d.pools {
		retries, reconnects := p.TransportStats()
		l["pool.retries"] += float64(retries)
		l["pool.reconnects"] += float64(reconnects)
		healthy, _ := p.HealthyEndpoints()
		l["pool.healthy_endpoints"] = float64(healthy)
	}
	admitted, shed := d.admission()
	l["tcp.admitted"], l["tcp.shed"] = float64(admitted), float64(shed)
}

// ---------------------------------------------------------------------------
// coupled-*: the paper's workflow, solver and analysis coupled through staging
// ---------------------------------------------------------------------------

type coupledSpec struct {
	name         string
	steps, quick int
	domain       grid.Box
	durable      bool
	conc         int // pool and workflow staging concurrency
	isovalues    []float64
	sim          func(domain grid.Box) solver.Simulation
	cfg          core.Config
}

// The cost-model side is the xlayer CLI's default: 1024 simulation cores and
// 64 staging cores on the Titan model, laptop cells scaled by 1000.
var modelScale = core.Config{Machine: sysmodel.Titan(), SimCores: 1024, StagingCores: 64, CellScale: 1000}

// gasMem: 24³ is the domain internal/experiments runs the paper figures on.
// Step cost climbs as the blast refines, so every round restarts from the
// initial condition and the pooled step times repeat the same ramp.
var gasMem = coupledSpec{
	name: "coupled-gas-mem", steps: 32, quick: 3,
	domain: cube(24), conc: 1, isovalues: []float64{1.1, 1.4},
	sim: func(domain grid.Box) solver.Simulation {
		return solver.NewPolytropicGas(solver.GasConfig{
			AMR:    amr.Config{Domain: domain, MaxLevel: 1, MaxBoxSize: 12, NRanks: 8},
			Reflux: true,
		})
	},
	cfg: func() core.Config {
		c := modelScale
		c.Enable = core.Adaptations{Application: true, Middleware: true, Resource: true}
		c.Hints = policy.Hints{
			Mode:         policy.AppRangeBased,
			FactorPhases: []policy.FactorPhase{{FromStep: 0, Factors: []int{2, 4}}},
		}
		return c
	}(),
}

// advDiffDurable: static in-transit, so every step ships every block at full
// resolution; two puts in flight is what lets a group commit show at all.
var advDiffDurable = coupledSpec{
	name: "coupled-advdiff-durable", steps: 40, quick: 4,
	domain: cube(32), durable: true, conc: 2, isovalues: []float64{0.3},
	sim: func(domain grid.Box) solver.Simulation {
		return solver.NewAdvectionDiffusion(solver.AdvDiffConfig{
			AMR: amr.Config{Domain: domain, MaxLevel: 1, MaxBoxSize: 16, NRanks: 8, Periodic: true},
		})
	},
	cfg: func() core.Config {
		c := modelScale
		c.StaticPlacement = policy.PlaceInTransit
		return c
	}(),
}

type coupled struct {
	spec coupledSpec
	d    *deployment
	pool *staging.Pool
	m    *meter
	tsim *tracedSim // nil unless traced
	w    *core.Workflow
}

func (s coupledSpec) setup(c *roundCtx, r *round) (instance, error) {
	in := &coupled{spec: s}
	var err error
	if in.d, err = deploy(s.domain, s.durable, c.tmp, serverTweak{}); err != nil {
		return nil, err
	}
	if in.pool, err = in.d.pool(staging.PoolOptions{Concurrency: s.conc}); err != nil {
		in.d.close()
		return nil, err
	}
	in.m = newMeter(in.pool, r.rec)
	sim := s.sim(s.domain)
	var svc analysis.Service = analysis.NewIsosurface(s.isovalues...)
	if r.rec != nil {
		in.tsim = &tracedSim{Simulation: sim, rec: r.rec}
		sim, svc = in.tsim, &tracedService{svc, r.rec}
	}
	cfg := s.cfg
	cfg.Staging, cfg.Analysis, cfg.StagingConcurrency = meteredPool{in.pool, in.m}, svc, s.conc
	if in.w, err = core.NewWorkflow(cfg, sim); err != nil {
		in.d.close()
		return nil, err
	}
	return in, nil
}

func (in *coupled) close() { in.d.close() }

func (in *coupled) run(c *roundCtx, r *round) error {
	s := in.spec
	wal0 := in.d.walStats()
	var triangles, inTransit, degraded int
	r.timeSteps([]*recorder{r.rec}, c.count(s.steps, s.quick), func(_, _ int) int {
		rec := in.w.Step()
		triangles += rec.Triangles
		if rec.Placement == policy.PlaceInTransit {
			inTransit++
		}
		if rec.PlacementReason == policy.ReasonStagingFailure {
			degraded++
			return 1
		}
		return 0
	})
	wal := in.d.walStats()
	if err := in.w.Close(); err != nil {
		return err
	}
	r.absorb(in.m)

	r.golden = map[string]int64{"triangles": int64(triangles), "intransit_steps": int64(inTransit)}
	l := r.layer
	r.poolLayer(in.d, 0)
	l["core.intransit_steps"], l["core.degraded_steps"] = float64(inTransit), float64(degraded)
	l["core.step_p50_ms"] = nsQuantileMs(r.stepNs, 0.5)
	if in.tsim != nil {
		t := r.rec.totals()
		steps := float64(t.sum["step"])
		l["solver.busy_frac"] = float64(t.sum["solver.step"]) / steps
		l["solver.step_p50_ms"] = nsQuantileMs(t.durs["solver.step"], 0.5)
		l["solver.cells_per_s"] = float64(in.tsim.cells) / (float64(t.sum["solver.step"]) / 1e9)
		l["analysis.busy_frac"] = float64(t.sum["analysis.analyze"]) / steps
		l["analysis.triangles_per_s"] = float64(triangles) / (float64(t.sum["analysis.analyze"]) / 1e9)
		l["core.self_frac"] = float64(t.stepSelf) / steps
	}
	if !s.durable {
		return nil
	}
	records, fsyncs := wal.Records-wal0.Records, wal.Fsyncs-wal0.Fsyncs
	bytes, snaps := wal.Bytes-wal0.Bytes, wal.Snapshots-wal0.Snapshots
	r.golden["wal_records"], r.golden["wal_fsyncs"] = int64(records), int64(fsyncs)
	r.golden["wal_bytes"], r.golden["wal_snapshots"] = int64(bytes), int64(snaps)
	l["wal.records"], l["wal.fsyncs"], l["wal.snapshots"] = float64(records), float64(fsyncs), float64(snaps)
	l["wal.fsyncs_per_put"] = float64(fsyncs) / float64(len(r.putNs)*numReplicas)
	l["wal.bytes_per_user_byte"] = float64(bytes) / float64(r.putBytes)

	ms, recovered, differ, err := in.d.crashAndRecover(in.pool, c.rng())
	if err != nil {
		return err
	}
	r.check(differ == 0, c, "%s: %d of %d servers recovered a different set than they had acked", s.name, differ, numServers)
	l["wal.recover_ms"], l["wal.recovered_blocks"] = ms, float64(recovered)
	return nil
}

// ---------------------------------------------------------------------------
// pool-churn-mem: put a version of small blocks, read it back, evict the last
// ---------------------------------------------------------------------------

// churnVariant switches on, one at a time, the features PRs 7-10 put on the
// hot path; the zero value is the workload itself.
type churnVariant struct {
	events  bool // pool and server event emitters, JSONL into io.Discard
	spans   bool // pool-op and server spans, JSONL into io.Discard
	tenant  string
	durable bool
	steps   int // 0 = the workload's own count
}

const (
	churnSteps      = 300
	churnQuickSteps = 8
)

type churn struct {
	steps  int
	d      *deployment
	pool   *staging.Pool
	m      *meter
	blocks []*field.BoxData // 64 blocks of 8³×1: 4 KiB each
}

func (v churnVariant) setup(c *roundCtx, r *round) (instance, error) {
	in := &churn{steps: c.count(churnSteps, churnQuickSteps)}
	if v.steps > 0 {
		in.steps = v.steps
	}
	var tw serverTweak
	opts := staging.PoolOptions{Tenant: v.tenant}
	if v.events {
		tw.events = obs.NewEmitter(obs.NewJSONLSink(io.Discard))
		opts.Events = tw.events
	}
	var scope span.Ctx
	if v.spans {
		tw.tracer = span.NewTracer(span.NewJSONLSink(io.Discard), "xbench")
		scope = tw.tracer.Begin(span.Ctx{}, "run", span.LayerRun, span.StepUnset)
	}
	domain := cube(32)
	var err error
	if in.d, err = deploy(domain, v.durable, c.tmp, tw); err != nil {
		return nil, err
	}
	if in.pool, err = in.d.pool(opts); err != nil {
		in.d.close()
		return nil, err
	}
	in.pool.SetSpanScope(scope)
	in.m = newMeter(in.pool, r.rec)
	in.blocks = seededBlocks(c.rng(), domain, 8, 1)
	return in, nil
}

func (in *churn) close() { in.d.close() }

func (in *churn) run(c *roundCtx, r *round) error {
	r.timeSteps([]*recorder{r.rec}, in.steps, func(_, i int) int {
		// A failed operation is counted by the meter; the step just stops.
		for _, b := range in.blocks {
			if in.m.Put("churn", i, b) != nil {
				return 0
			}
		}
		if _, err := in.m.GetBlocks("churn", i, in.d.domain); err != nil {
			return 0
		}
		in.m.DropBefore("churn", i)
		in.pool.DrainSpans()
		return 0
	})
	r.absorb(in.m)
	r.poolLayer(in.d, 0)
	return nil
}

// ---------------------------------------------------------------------------
// pool-scan-tenants: read-only region queries from two tenants
// ---------------------------------------------------------------------------

const (
	scanTenants      = 2
	scanVersions     = 2
	scanBlockEdge    = 16 // 16³ cells × 5 components = 160 KiB
	scanBlocksPerDim = 4
	// Each tenant's query stream is whole cycles through the 27 sub-box
	// shapes of 1-3 blocks a side, so every seed asks for the same number of
	// blocks (216 per cycle) and only order and position vary.
	scanCycles      = 56
	scanQuickCycles = 1
)

type scanQuery struct {
	version int
	region  grid.Box
	blocks  int
}

func scanQueries(rng *rand.Rand, cycles int) []scanQuery {
	var shapes []grid.IntVect
	for a := 1; a <= 3; a++ {
		for b := 1; b <= 3; b++ {
			for c := 1; c <= 3; c++ {
				shapes = append(shapes, grid.IV(a, b, c))
			}
		}
	}
	var out []scanQuery
	for n := 0; n < cycles; n++ {
		for _, k := range rng.Perm(len(shapes)) {
			s := shapes[k]
			lo := grid.IV(rng.Intn(scanBlocksPerDim-s.X+1), rng.Intn(scanBlocksPerDim-s.Y+1), rng.Intn(scanBlocksPerDim-s.Z+1))
			out = append(out, scanQuery{
				version: rng.Intn(scanVersions),
				region: grid.BoxFromSize(
					grid.IV(lo.X*scanBlockEdge, lo.Y*scanBlockEdge, lo.Z*scanBlockEdge),
					grid.IV(s.X*scanBlockEdge, s.Y*scanBlockEdge, s.Z*scanBlockEdge)),
				blocks: s.X * s.Y * s.Z,
			})
		}
	}
	return out
}

type scan struct {
	d       *deployment
	meters  []*meter
	recs    []*recorder // one per tenant: their steps run concurrently
	queries [][]scanQuery
}

func setupScan(c *roundCtx, r *round) (instance, error) {
	in := &scan{}
	var err error
	if in.d, err = deploy(cube(scanBlockEdge*scanBlocksPerDim), false, "", serverTweak{}); err != nil {
		return nil, err
	}
	rng := c.rng()
	for t := 0; t < scanTenants; t++ {
		pool, err := in.d.pool(staging.PoolOptions{Tenant: fmt.Sprintf("t%02d", t)})
		if err != nil {
			in.d.close()
			return nil, err
		}
		var rec *recorder
		if r.rec != nil {
			rec = newRecorder(r.rec.origin)
		}
		m := newMeter(pool, rec)
		// Preload, and remember each block's checksum: a query's expected
		// answer is then a matter of geometry.
		sums := make([]map[grid.IntVect]uint64, scanVersions)
		for v := range sums {
			sums[v] = make(map[grid.IntVect]uint64)
			for _, b := range seededBlocks(rng, in.d.domain, scanBlockEdge, 5) {
				sums[v][b.Box.Lo] = blockSum(b)
				if err := m.Put("field", v, b); err != nil {
					in.d.close()
					return nil, fmt.Errorf("scan preload: %w", err)
				}
			}
		}
		m.expect = func(version int, region grid.Box) (blocks int, sum uint64) {
			for lo, s := range sums[version] {
				if region.Contains(lo) {
					blocks++
					sum += s
				}
			}
			return blocks, sum
		}
		m.putBytes = 0 // the preload is set-up; user bytes are the timed loop's
		in.meters, in.recs = append(in.meters, m), append(in.recs, rec)
		in.queries = append(in.queries, scanQueries(rng, c.count(scanCycles, scanQuickCycles)))
	}
	return in, nil
}

func (in *scan) close() { in.d.close() }

func (in *scan) run(c *roundCtx, r *round) error {
	r.timeSteps(in.recs, len(in.queries[0]), func(t, i int) int {
		q := in.queries[t][i]
		got, err := in.meters[t].GetBlocks("field", q.version, q.region)
		if err == nil && len(got) != q.blocks {
			return 1 // the meter's own expectation and the geometry disagree
		}
		return 0
	})
	preloaded := 0
	for t, m := range in.meters {
		preloaded += len(m.putNs)
		r.absorb(m)
		if in.recs[t] != nil {
			r.rec.spans = append(r.rec.spans, in.recs[t].spans...)
		}
	}
	r.poolLayer(in.d, preloaded)
	return nil
}

// ---------------------------------------------------------------------------
// golden outputs
// ---------------------------------------------------------------------------

//go:embed golden.json
var goldenJSON []byte

// goldenFile maps "<workload>" or "<workload>/quick" to the exact outputs one
// round must produce: the coupled workloads' solvers are deterministic PDE
// integrations, so triangle counts, placements and WAL traffic repeat to the
// last byte whatever the seed.
type goldenFile map[string]map[string]int64

func loadGolden() (goldenFile, error) {
	g := goldenFile{}
	if err := json.Unmarshal(goldenJSON, &g); err != nil {
		return nil, fmt.Errorf("golden.json: %w", err)
	}
	return g, nil
}

func goldenKey(name string, quick bool) string {
	if quick {
		return name + "/quick"
	}
	return name
}

// checkGolden compares a round's exact outputs with those pinned under key.
func (r *round) checkGolden(g goldenFile, key string, c *roundCtx) {
	if r.golden == nil {
		return
	}
	want, ok := g[key]
	r.check(ok, c, "golden.json has no entry %q (run with -update-golden)", key)
	for k, v := range r.golden {
		if ok {
			r.check(want[k] == v, c, "%s: %s = %d, golden.json says %d", key, k, v, want[k])
		}
	}
}
