package main

import (
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"os"
	"runtime"
	"text/tabwriter"
	"time"

	"crosslayer/internal/entropy"
	"crosslayer/internal/field"
	"crosslayer/internal/grid"
	"crosslayer/internal/journal"
	"crosslayer/internal/obs"
	"crosslayer/internal/obs/span"
	"crosslayer/internal/reduce"
	"crosslayer/internal/staging"
	"crosslayer/internal/sysmodel"
	"crosslayer/internal/viz"
)

// The stack-peel probes time public functions of the staging stack at
// successive depths - codec, Space, WAL, one client over TCP, the pool - for
// the two block shapes the workloads move, at fixed iteration counts. What a
// depth adds over the one below it is that layer's own cost.

// cost is one probe's result per operation. Bytes and allocations are the
// whole process's (for the TCP probes, client and server share it).
type cost struct{ ns, bytes, allocs float64 }

// measure runs fn n times in five batches and reports the median batch's
// ns/op, with allocation counts over all of them.
func measure(n int, fn func()) cost {
	const batches = 5
	per := max(1, n/batches)
	fn()
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	ns := make([]float64, batches)
	for b := range ns {
		t0 := time.Now()
		for i := 0; i < per; i++ {
			fn()
		}
		ns[b] = float64(time.Since(t0).Nanoseconds()) / float64(per)
	}
	runtime.ReadMemStats(&m1)
	ops := float64(per * batches)
	return cost{median(ns), float64(m1.TotalAlloc-m0.TotalAlloc) / ops, float64(m1.Mallocs-m0.Mallocs) / ops}
}

// probeShape is one of the two block shapes: 4k = 8³×1, 160k = 16³×5.
type probeShape struct {
	tag   string
	block *field.BoxData
	iters int // for the cheap in-memory rungs; the slower ones divide it
}

// probeBallast is the live heap the probes run over. Without it the heap is
// whatever the rounds before left, and a probe that allocates (a 4 KiB decode
// makes 72 KiB of garbage) pays for a collection every few dozen iterations
// after one workload and every few thousand after another.
const probeBallast = 64 << 20

// runProbes fills in the probe metrics and prints the stack-peel table.
func runProbes(out map[string]float64, quick bool, tmp string, w io.Writer) error {
	ballast := make([]byte, probeBallast)
	defer runtime.KeepAlive(ballast)
	rng := rand.New(rand.NewSource(1))
	fill := func(edge, ncomp int) *field.BoxData {
		return seededBlocks(rng, cube(edge), edge, ncomp)[0]
	}
	shapes := []probeShape{{"4k", fill(8, 1), 10000}, {"160k", fill(16, 5), 500}}
	if quick {
		shapes[0].iters, shapes[1].iters = 200, 20
	}
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "stack peel\tns/op\tB/op\tallocs/op\tshare of parent\t")
	row := func(name string, c cost, parent float64) {
		fmt.Fprintf(tw, "%s\t%.0f\t%.0f\t%.1f\t%.1f%%\t\n", name, c.ns, c.bytes, c.allocs, 100*c.ns/parent)
	}
	for _, s := range shapes {
		p, err := peel(s, tmp)
		if err != nil {
			return err
		}
		out["codec.encode_ns_"+s.tag], out["codec.decode_ns_"+s.tag] = p.encode.ns, p.decode.ns
		out["wal.put_us_"+s.tag] = (p.walPut.ns - p.spacePut.ns) / 1e3
		out["tcp.put_rtt_us_"+s.tag], out["tcp.get_rtt_us_"+s.tag] = p.tcpPut.ns/1e3, p.tcpGet.ns/1e3
		if s.tag == "4k" {
			out["codec.encode_allocs"], out["codec.decode_allocs"] = p.encode.allocs, p.decode.allocs
			out["codec.decode_b_per_op_4k"] = p.decode.bytes
			out["space.put_ns_4k"], out["space.get_ns_4k"], out["space.drop_ns"] = p.spacePut.ns, p.spaceGet.ns, p.spaceDrop.ns
			out["space.put_allocs"] = p.spacePut.allocs
			out["tcp.put_self_us_4k"] = (p.tcpPut.ns - p.spacePut.ns - p.encode.ns - p.decode.ns) / 1e3
			out["tcp.put_allocs"], out["tcp.put_b_per_op_4k"] = p.tcpPut.allocs, p.tcpPut.bytes
			out["pool.put_self_us_4k"] = (p.poolPut.ns - numReplicas*p.tcpPut.ns) / 1e3
		} else {
			// SIM-SITU's point: a model is only as good as its calibration.
			// Titan's Gemini link against this VM's loopback, same bytes.
			predicted := sysmodel.Titan().TransferTime(s.block.Bytes(), 1)
			out["sysmodel.transfer_pred_over_measured"] = predicted / (p.tcpPut.ns / 1e9)
		}
		row(s.tag+" pool.Put, 2 replicas", p.poolPut, p.poolPut.ns)
		row("  client.Put round trip", p.tcpPut, p.poolPut.ns)
		row("    codec encode (client)", p.encode, p.tcpPut.ns)
		row("    codec decode (server)", p.decode, p.tcpPut.ns)
		row("    space.Put", p.spacePut, p.tcpPut.ns)
		row("    space.Put, durable: WAL append + fsync", p.walPut, p.tcpPut.ns)
		row(s.tag+" client.GetBlocks round trip", p.tcpGet, p.tcpGet.ns)
		row("    space.GetBlocks", p.spaceGet, p.tcpGet.ns)
		row("    codec encode (server)", p.encode, p.tcpGet.ns)
		row("    codec decode (client)", p.decode, p.tcpGet.ns)
	}
	if err := tw.Flush(); err != nil {
		return err
	}
	return kernelProbes(out, quick)
}

type peeled struct {
	encode, decode, spacePut, spaceGet, spaceDrop, walPut, tcpPut, tcpGet, poolPut cost
}

// peel measures one block shape at every depth of the put and get paths.
func peel(s probeShape, tmp string) (p peeled, err error) {
	b, domain := s.block, s.block.Box
	var wire bytes.Buffer
	p.encode = measure(s.iters, func() {
		wire.Reset()
		err = staging.EncodeBlock(&wire, b)
	})
	encoded := wire.Bytes()
	p.decode = measure(s.iters, func() {
		if _, derr := staging.DecodeBlock(bytes.NewReader(encoded)); derr != nil {
			err = derr
		}
	})
	if err != nil {
		return p, fmt.Errorf("codec probe: %w", err)
	}

	// Every put below goes to a variable of its own, so each probed operation
	// finds one block under its key however many iterations came before.
	names := make([]string, max(s.iters, 50)+2)
	for i := range names {
		names[i] = fmt.Sprintf("p%d", i)
	}
	next := 0
	store := func(put func(name string) error) func() {
		next = 0
		return func() {
			next++
			if perr := put(names[next]); perr != nil {
				err = perr
			}
		}
	}
	read := func(get func(name string) (int, error)) func() {
		stored, i := next, 0
		return func() {
			i = i%stored + 1
			if n, gerr := get(names[i]); gerr != nil || n != 1 {
				err = fmt.Errorf("probe read of %s: %d blocks, %v", names[i], n, gerr)
			}
		}
	}

	// A drop walks every key the space holds, so it is timed on a space that
	// holds one: put and drop together, less the put.
	sp := staging.NewSpace(4, 0, domain)
	putDrop := measure(s.iters, func() {
		if perr := sp.Put("p", 0, b); perr != nil {
			err = perr
		}
		sp.DropBefore("p", 1)
	})
	p.spacePut = measure(s.iters, store(func(name string) error { return sp.Put(name, 0, b) }))
	p.spaceDrop = cost{ns: putDrop.ns - p.spacePut.ns}
	p.spaceGet = measure(s.iters, read(func(name string) (int, error) {
		got, gerr := sp.GetBlocks(name, 0, domain)
		return len(got), gerr
	}))

	dir, err := os.MkdirTemp(tmp, "xbench-probe-")
	if err != nil {
		return p, err
	}
	defer os.RemoveAll(dir)
	dsp := staging.NewSpace(4, 0, domain)
	if _, err = dsp.Persist(dir, "probe"); err != nil {
		return p, err
	}
	p.walPut = measure(max(s.iters/20, 50), store(func(name string) error { return dsp.Put(name, 0, b) }))
	dsp.CrashPersist()

	d, err := deploy(domain, false, "", serverTweak{})
	if err != nil {
		return p, err
	}
	defer d.close()
	cl, err := staging.Dial(d.addrs[0])
	if err != nil {
		return p, err
	}
	defer cl.Close()
	p.tcpPut = measure(s.iters/4, store(func(name string) error { return cl.Put(name, 0, b) }))
	p.tcpGet = measure(s.iters/4, read(func(name string) (int, error) {
		got, gerr := cl.GetBlocks(name, 0, domain)
		return len(got), gerr
	}))

	pool, perr := d.pool(staging.PoolOptions{})
	if perr != nil {
		return p, perr
	}
	p.poolPut = measure(s.iters/4, store(func(name string) error { return pool.Put(name, 1, b) }))
	if err != nil {
		return p, fmt.Errorf("stack probe %s: %w", s.tag, err)
	}
	return p, nil
}

// kernelProbes times the compute kernels and observability primitives a step
// passes through outside staging.
func kernelProbes(out map[string]float64, quick bool) error {
	scale := func(n int) int {
		if quick {
			return max(5, n/50)
		}
		return n
	}
	rng := rand.New(rand.NewSource(2))

	big := seededBlocks(rng, cube(64), 64, 1)[0]
	c := measure(scale(50), func() { field.Downsample(big, 4) })
	out["reduce.downsample_mb_per_s"] = float64(big.Bytes()) / 1e6 / (c.ns / 1e9)

	blocks := seededBlocks(rng, cube(32), 16, 1)
	plan, err := reduce.NewEntropyPlan([]reduce.Band{{Below: 4, Factor: 4}}, 256)
	if err != nil {
		return err
	}
	out["reduce.plan_decide_us"] = measure(scale(100), func() { plan.Decide(blocks, 0) }).ns / 1e3
	out["entropy.block_ns"] = measure(scale(2000), func() { entropy.Block(blocks[0], 0, 256) }).ns

	sphere := field.New(cube(32), 1)
	sphere.Box.ForEach(func(q grid.IntVect) {
		dx, dy, dz := float64(q.X)-15.5, float64(q.Y)-15.5, float64(q.Z)-15.5
		sphere.Set(q, 0, dx*dx+dy*dy+dz*dz)
	})
	out["viz.extract_ms_32"] = measure(scale(50), func() { viz.ExtractBlock(sphere, 0, 100, viz.Vec3{}, 1) }).ns / 1e6

	em := obs.NewEmitter(obs.NewJSONLSink(io.Discard))
	out["obs.emit_ns"] = measure(scale(20000), func() { em.StagingRetry(1, "probe") }).ns
	tr := span.NewTracer(span.NewJSONLSink(io.Discard), "probe")
	root := tr.Begin(span.Ctx{}, "run", span.LayerRun, span.StepUnset)
	out["obs.span_ns"] = measure(scale(20000), func() { tr.Begin(root, "op", span.LayerStagingExec, 0).End() }).ns

	jw := journal.NewWriter(io.Discard)
	cp := journal.Checkpoint{Record: journal.StepSnapshot{PlacementReason: "probe"}, Manifest: make([]byte, 256)}
	out["journal.checkpoint_us"] = measure(scale(5000), func() {
		cp.Step++
		cp.Record.Step = cp.Step
		_, err = jw.WriteCheckpoint(cp)
	}).ns / 1e3
	if err != nil {
		return fmt.Errorf("journal probe: %w", err)
	}
	return nil
}

// runToggles measures what each of PRs 7-10's features costs pool-churn-mem
// when switched on: 1 - variant/base steps per second. The runs are a third
// of the workload's length because the durable one pays 128 fsyncs a step.
func runToggles(out map[string]float64, c *roundCtx) error {
	rate := func(v churnVariant) (float64, error) {
		v.steps = c.count(churnSteps/3, churnQuickSteps/2)
		r, err := runRound(workloadDef{setup: v.setup}, c)
		if err != nil {
			return 0, err
		}
		if r.failed > 0 {
			return 0, fmt.Errorf("toggle run %+v: %d failures", v, r.failed)
		}
		return float64(r.steps) / r.wall.Seconds(), nil
	}
	base, err := rate(churnVariant{})
	if err != nil {
		return err
	}
	for _, t := range []struct {
		name string
		v    churnVariant
	}{
		{"obs.events_cost_frac", churnVariant{events: true}},
		{"obs.spans_cost_frac", churnVariant{spans: true}},
		{"tenant.scope_cost_frac", churnVariant{tenant: "t00"}},
		{"wal.durable_cost_frac", churnVariant{durable: true}},
	} {
		got, err := rate(t.v)
		if err != nil {
			return err
		}
		out[t.name] = 1 - got/base
	}
	return nil
}
