package crosslayer

import (
	"bytes"
	"io"
	"math/rand"
	"testing"

	"crosslayer/internal/amr"
	"crosslayer/internal/core"
	"crosslayer/internal/experiments"
	"crosslayer/internal/field"
	"crosslayer/internal/grid"
	"crosslayer/internal/policy"
	"crosslayer/internal/solver"
	"crosslayer/internal/staging"
	"crosslayer/internal/sysmodel"
	"crosslayer/internal/viz"
)

// ---------------------------------------------------------------------
// One benchmark per paper table/figure. Each iteration regenerates the
// experiment at a reduced step count and reports the headline metric of
// that figure as a custom unit, so `go test -bench` doubles as the
// reproduction harness (EXPERIMENTS.md records the paper-vs-measured
// comparison produced from these).
// ---------------------------------------------------------------------

func BenchmarkFig1PeakMemory(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.Fig1PeakMemory(20, 16, 380)
		b.ReportMetric(r.MaxImbalance, "imbalance")
		b.ReportMetric(r.GrowthRatio, "growth")
	}
}

func BenchmarkFig5AppAdaptation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.Fig5AppAdaptation(20)
		b.ReportMetric(float64(r.FinalFactor), "final-factor")
	}
}

func BenchmarkFig6EntropyReduction(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.Fig6EntropyReduction(12)
		if r.TotalFull > 0 {
			b.ReportMetric(float64(r.TotalRed)/float64(r.TotalFull), "bytes-ratio")
		}
	}
}

func BenchmarkFig7Placement(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.Fig7Placement(12)
		if ad, ok := r.Case("4K", "Adapt"); ok {
			b.ReportMetric(ad.Overhead, "adapt-overhead-s")
		}
	}
}

func BenchmarkFig8DataMovement(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.Fig7Placement(12)
		if red, ok := r.MovementReductions()["4K"]; ok {
			b.ReportMetric(red, "movement-reduction-%")
		}
	}
}

func BenchmarkFig9ResourceAdaptation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.Fig9ResourceAdaptation(20)
		b.ReportMetric(100*r.AdaptiveUtilization, "adaptive-util-%")
		b.ReportMetric(100*r.StaticUtilization, "static-util-%")
	}
}

func BenchmarkFig10CrossLayer(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.Fig10CrossLayer(12)
		if red, ok := r.OverheadReductions()["4K"]; ok {
			b.ReportMetric(red, "overhead-reduction-%")
		}
	}
}

func BenchmarkFig11CrossLayerMovement(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.Fig10CrossLayer(12)
		if red, ok := r.MovementReductions()["4K"]; ok {
			b.ReportMetric(red, "movement-reduction-%")
		}
	}
}

func BenchmarkTable2CoreUtilization(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.Fig10CrossLayer(12)
		partial := 0
		for _, c := range r.Cases {
			if c.Mode == "Global" {
				partial += c.ThreeQ + c.Half + c.Less
			}
		}
		b.ReportMetric(float64(partial), "partial-alloc-steps")
	}
}

// ---------------------------------------------------------------------
// Ablation benches: the design choices DESIGN.md calls out, each compared
// against the full policy by its effect on end-to-end overhead.
// ---------------------------------------------------------------------

func ablationSim() solver.Simulation {
	return solver.NewPolytropicGas(solver.GasConfig{
		AMR: amr.Config{
			Domain:     grid.NewBox(grid.IV(0, 0, 0), grid.IV(15, 15, 15)),
			MaxLevel:   1,
			MaxBoxSize: 8,
			NRanks:     4,
		},
	})
}

func ablationRun(b *testing.B, cfg core.Config) core.Result {
	w, err := core.NewWorkflow(cfg, ablationSim())
	if err != nil {
		b.Fatal(err)
	}
	return w.Run(16)
}

// BenchmarkAblationAdaptiveVsStaticInSitu quantifies what the middleware
// adaptation buys over never using the staging pool.
func BenchmarkAblationAdaptiveVsStaticInSitu(b *testing.B) {
	base := core.Config{
		Machine: sysmodel.Titan(), SimCores: 1024, StagingCores: 64,
		CellScale: 1000,
	}
	for i := 0; i < b.N; i++ {
		adaptive := base
		adaptive.Enable = core.Adaptations{Middleware: true}
		insitu := base
		insitu.StaticPlacement = policy.PlaceInSitu
		a := ablationRun(b, adaptive)
		s := ablationRun(b, insitu)
		b.ReportMetric(a.OverheadSeconds, "adaptive-overhead-s")
		b.ReportMetric(s.OverheadSeconds, "insitu-overhead-s")
	}
}

// BenchmarkAblationResourceMemoryFloor measures the resource policy with
// and without the Eq. 10 memory floor (MinCores forced to 1 vs the data-
// driven minimum) by the resulting staging allocation.
func BenchmarkAblationResourceMemoryFloor(b *testing.B) {
	in := policy.ResourceInput{
		DataBytes:        64 << 30,
		MemPerCore:       512 << 20,
		AnalysisCoreSecs: 100,
		NextSimSeconds:   400,
		MinCores:         1, MaxCores: 1024,
	}
	noFloor := in
	noFloor.DataBytes = 0
	for i := 0; i < b.N; i++ {
		with := policy.SelectStagingCores(in)
		without := policy.SelectStagingCores(noFloor)
		b.ReportMetric(float64(with), "with-floor-cores")
		b.ReportMetric(float64(without), "without-floor-cores")
	}
}

// BenchmarkAblationReductionOff quantifies the application layer's
// contribution to data movement in the cross-layer stack.
func BenchmarkAblationReductionOff(b *testing.B) {
	base := core.Config{
		Machine: sysmodel.Titan(), SimCores: 1024, StagingCores: 64,
		CellScale: 1000,
		Hints: policy.Hints{
			Mode:         policy.AppRangeBased,
			FactorPhases: []policy.FactorPhase{{FromStep: 0, Factors: []int{2, 4}}},
		},
	}
	for i := 0; i < b.N; i++ {
		on := base
		on.Enable = core.Adaptations{Application: true, Middleware: true, Resource: true}
		off := base
		off.Enable = core.Adaptations{Middleware: true}
		ron := ablationRun(b, on)
		roff := ablationRun(b, off)
		b.ReportMetric(float64(ron.BytesMovedTotal)/(1<<20), "reduction-on-MB")
		b.ReportMetric(float64(roff.BytesMovedTotal)/(1<<20), "reduction-off-MB")
	}
}

// ---------------------------------------------------------------------
// Micro benches: the kernels the cost model calibrates against.
// ---------------------------------------------------------------------

// The two solver-step benchmarks run the xbench solver configurations
// (benchmarks/xbench/workloads.go: coupled-gas-mem and
// coupled-advdiff-durable), so their ns/op and B/op are the solver layer of
// those workloads; at -benchtime 32x / 40x they cover the same steps,
// regrids included.

func BenchmarkSolverStepGas(b *testing.B) {
	s := solver.NewPolytropicGas(solver.GasConfig{
		AMR: amr.Config{
			Domain:     grid.NewBox(grid.IV(0, 0, 0), grid.IV(23, 23, 23)),
			MaxLevel:   1,
			MaxBoxSize: 12,
			NRanks:     8,
		},
		Reflux: true,
	})
	benchSteps(b, s)
}

func BenchmarkSolverStepAdvDiff(b *testing.B) {
	s := solver.NewAdvectionDiffusion(solver.AdvDiffConfig{
		AMR: amr.Config{
			Domain:     grid.NewBox(grid.IV(0, 0, 0), grid.IV(31, 31, 31)),
			MaxLevel:   1,
			MaxBoxSize: 16,
			NRanks:     8,
			Periodic:   true,
		},
	})
	benchSteps(b, s)
}

func benchSteps(b *testing.B, s solver.Simulation) {
	b.ReportAllocs()
	b.ResetTimer()
	var cells int64
	for i := 0; i < b.N; i++ {
		cells += s.Step().CellsUpdated
	}
	b.ReportMetric(float64(cells)/float64(b.N), "cells/op")
}

func BenchmarkMarchingCubes(b *testing.B) {
	d := field.New(grid.BoxFromSize(grid.IV(0, 0, 0), grid.IV(32, 32, 32)), 1)
	c := 15.5
	d.Box.ForEach(func(q grid.IntVect) {
		dx, dy, dz := float64(q.X)-c, float64(q.Y)-c, float64(q.Z)-c
		d.Set(q, 0, dx*dx+dy*dy+dz*dz)
	})
	// mesh builds the triangle soup; stats is the analysis step's path,
	// which counts and measures the same triangles and keeps none.
	b.Run("mesh", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			m := viz.ExtractBlock(d, 0, 100, viz.Vec3{}, 1)
			if m.Count() == 0 {
				b.Fatal("no surface")
			}
		}
	})
	b.Run("stats", func(b *testing.B) {
		svc := viz.NewService(100)
		blocks := []*field.BoxData{d}
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if svc.Measure(blocks, 0, 1).Triangles == 0 {
				b.Fatal("no surface")
			}
		}
	})
}

func BenchmarkDownsampleStrided(b *testing.B) {
	d := field.New(grid.BoxFromSize(grid.IV(0, 0, 0), grid.IV(64, 64, 64)), 1)
	b.SetBytes(d.Bytes())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		field.Downsample(d, 4)
	}
}

func BenchmarkDownsampleMean(b *testing.B) {
	d := field.New(grid.BoxFromSize(grid.IV(0, 0, 0), grid.IV(64, 64, 64)), 1)
	b.SetBytes(d.Bytes())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		field.DownsampleMean(d, 4)
	}
}

func BenchmarkEntropyPlanDecide(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	var blocks []*field.BoxData
	for i := 0; i < 16; i++ {
		d := field.New(grid.BoxFromSize(grid.IV(0, 0, 0), grid.IV(16, 16, 16)), 1)
		for j := range d.Comp(0) {
			d.Comp(0)[j] = rng.Float64()
		}
		blocks = append(blocks, d)
	}
	plan, err := NewEntropyPlan([]Band{{Below: 4, Factor: 4}}, 256)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		plan.Decide(blocks, 0)
	}
}

func BenchmarkStagingPutGet(b *testing.B) {
	dom := grid.NewBox(grid.IV(0, 0, 0), grid.IV(63, 63, 63))
	sp := staging.NewSpace(4, 0, dom)
	d := field.New(grid.BoxFromSize(grid.IV(0, 0, 0), grid.IV(16, 16, 16)), 1)
	b.SetBytes(d.Bytes())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := sp.Put("v", i, d); err != nil {
			b.Fatal(err)
		}
		if _, err := sp.GetBlocks("v", i, d.Box); err != nil {
			b.Fatal(err)
		}
		if _, err := sp.DropBefore("v", i+1); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDurablePut times a put on a persisted Space: the WAL record is
// framed, written and fsynced before the put returns. Each put replaces
// the last (same var, version and seq), so the store holds one block and
// every 512th put also compacts it into a snapshot.
func BenchmarkDurablePut(b *testing.B) {
	dom := grid.NewBox(grid.IV(0, 0, 0), grid.IV(63, 63, 63))
	for _, s := range []struct {
		name     string
		n, ncomp int
	}{{"4k", 8, 1}, {"160k", 16, 5}} {
		b.Run(s.name, func(b *testing.B) {
			sp := staging.NewSpace(1, 0, dom)
			if _, err := sp.Persist(b.TempDir(), "s0"); err != nil {
				b.Fatal(err)
			}
			defer sp.ClosePersist()
			d := field.New(grid.BoxFromSize(grid.IV(0, 0, 0), grid.IV(s.n, s.n, s.n)), s.ncomp)
			b.SetBytes(d.Bytes())
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := sp.PutSeq("v", 0, 1, d); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkGhostFill fills the two-cell ghost shell of one five-component
// patch into one reused scratch, as the solvers do: on a clamped base level
// (same-level copies and extrapolation), on a periodic one (image copies),
// on a fine level (coarse gather and piecewise-constant fill), and on an
// interior fine patch of a periodic domain, whose ghost box no periodic
// image reaches.
func BenchmarkGhostFill(b *testing.B) {
	for _, bc := range []struct {
		name     string
		periodic bool
		level    int
	}{{"base", false, 0}, {"periodic", true, 0}, {"level1", false, 1}, {"periodic-level1", true, 1}} {
		b.Run(bc.name, func(b *testing.B) {
			h := amr.NewHierarchy(amr.Config{
				Domain:     grid.NewBox(grid.IV(0, 0, 0), grid.IV(31, 31, 31)),
				NComp:      5,
				MaxLevel:   bc.level,
				MaxBoxSize: 16,
				NRanks:     4,
				Periodic:   bc.periodic,
			})
			if bc.level > 0 {
				var tags []grid.IntVect
				grid.NewBox(grid.IV(12, 12, 12), grid.IV(19, 19, 19)).ForEach(func(q grid.IntVect) {
					tags = append(tags, q)
				})
				h.Regrid(0, tags)
			}
			p := h.Level(bc.level).Patches[0]
			var scratch amr.GhostScratch
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				h.FillGhostInto(&scratch, bc.level, p, 2, nil, 0)
			}
		})
	}
}

// BenchmarkRegrid rebuilds level 1 of a 32³ hierarchy from the cells of
// an 8³ cube: buffering, clustering, chopping, balancing and prolonging.
func BenchmarkRegrid(b *testing.B) {
	h := amr.NewHierarchy(amr.Config{
		Domain:     grid.NewBox(grid.IV(0, 0, 0), grid.IV(31, 31, 31)),
		NComp:      1,
		MaxLevel:   1,
		MaxBoxSize: 16,
		NRanks:     4,
	})
	var tags []grid.IntVect
	grid.NewBox(grid.IV(12, 12, 12), grid.IV(19, 19, 19)).ForEach(func(q grid.IntVect) {
		tags = append(tags, q)
	})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.Regrid(0, tags)
	}
}

func BenchmarkWorkflowStep(b *testing.B) {
	w, err := core.NewWorkflow(core.Config{
		Machine: sysmodel.Titan(), SimCores: 1024, StagingCores: 64,
		Enable:    core.Adaptations{Application: true, Middleware: true, Resource: true},
		CellScale: 1000,
		Hints: policy.Hints{
			Mode:         policy.AppRangeBased,
			FactorPhases: []policy.FactorPhase{{FromStep: 0, Factors: []int{2, 4}}},
		},
	}, ablationSim())
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w.Step()
	}
}

// BenchmarkAblationReflux quantifies the conservation benefit of the flux
// registers: composite-mass drift with and without refluxing over a fixed
// two-level run.
func BenchmarkAblationReflux(b *testing.B) {
	drift := func(reflux bool) float64 {
		cfg := solver.GasConfig{
			AMR: amr.Config{
				Domain:     grid.NewBox(grid.IV(0, 0, 0), grid.IV(15, 15, 15)),
				MaxLevel:   1,
				MaxBoxSize: 8,
				NRanks:     4,
				Periodic:   true,
			},
			Reflux:         reflux,
			RegridInterval: 1 << 30,
		}
		s := solver.NewPolytropicGas(cfg)
		m0 := s.TotalMass()
		for i := 0; i < 6; i++ {
			s.Step()
		}
		d := (s.TotalMass() - m0) / m0
		if d < 0 {
			d = -d
		}
		return d
	}
	for i := 0; i < b.N; i++ {
		b.ReportMetric(drift(true)*1e15, "with-reflux-drift-fe15")
		b.ReportMetric(drift(false)*1e15, "without-reflux-drift-fe15")
	}
}

// BenchmarkSubcycledStep measures the cost of a Berger–Oliger coarse step
// (fine level takes RefRatio substeps) against the shared-dt step.
func BenchmarkSubcycledStep(b *testing.B) {
	mk := func(sub bool) *solver.AdvectionDiffusion {
		return solver.NewAdvectionDiffusion(solver.AdvDiffConfig{
			AMR: amr.Config{
				Domain:     grid.NewBox(grid.IV(0, 0, 0), grid.IV(23, 23, 23)),
				MaxLevel:   1,
				MaxBoxSize: 12,
				NRanks:     4,
				Periodic:   true,
			},
			Subcycle: sub,
		})
	}
	s := mk(true)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st := s.Step()
		b.ReportMetric(st.Dt*1e4, "coarse-dt-e4")
	}
}

// BenchmarkBlockCodec encodes and decodes one block in memory, at the 4 KiB
// and 160 KiB block shapes the xbench codec probes use: the per-hop payload
// cost every put, get, WAL append and recovery pays.
func BenchmarkBlockCodec(b *testing.B) {
	for _, s := range []struct {
		name  string
		n     int
		ncomp int
	}{{"8x8x8x1", 8, 1}, {"16x16x16x5", 16, 5}} {
		d := field.New(grid.BoxFromSize(grid.IV(0, 0, 0), grid.IV(s.n, s.n, s.n)), s.ncomp)
		for c := 0; c < s.ncomp; c++ {
			for i, comp := 0, d.Comp(c); i < len(comp); i++ {
				comp[i] = float64(c*len(comp)+i) * 0.25
			}
		}
		var buf bytes.Buffer
		if err := staging.EncodeBlock(&buf, d); err != nil {
			b.Fatal(err)
		}
		img := buf.Bytes()
		b.Run("encode/"+s.name, func(b *testing.B) {
			b.SetBytes(int64(len(img)))
			for i := 0; i < b.N; i++ {
				if err := staging.EncodeBlock(io.Discard, d); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run("decode/"+s.name, func(b *testing.B) {
			b.SetBytes(int64(len(img)))
			r := bytes.NewReader(img)
			for i := 0; i < b.N; i++ {
				r.Reset(img)
				if _, err := staging.DecodeBlock(r); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkTCPStagingRoundTrip measures the wire cost of one put+get over
// the loopback staging server.
func BenchmarkTCPStagingRoundTrip(b *testing.B) {
	dom := grid.NewBox(grid.IV(0, 0, 0), grid.IV(63, 63, 63))
	sp := staging.NewSpace(4, 0, dom)
	srv, err := staging.ServeOptions("127.0.0.1:0", sp, staging.ServerOptions{})
	if err != nil {
		b.Fatal(err)
	}
	defer srv.Close()
	cl, err := staging.Dial(srv.Addr())
	if err != nil {
		b.Fatal(err)
	}
	defer cl.Close()
	d := field.New(grid.BoxFromSize(grid.IV(0, 0, 0), grid.IV(16, 16, 16)), 1)
	b.SetBytes(staging.EncodedSize(d))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := cl.Put("b", i, d); err != nil {
			b.Fatal(err)
		}
		if _, err := cl.GetBlocks("b", i, d.Box); err != nil {
			b.Fatal(err)
		}
		if _, err := cl.DropBefore("b", i+1); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationHybridPlacement compares hybrid vs binary placement
// overhead in the undersized-staging regime.
func BenchmarkAblationHybridPlacement(b *testing.B) {
	run := func(hybrid bool) core.Result {
		cfg := core.Config{
			Machine: sysmodel.Titan(), SimCores: 1024, StagingCores: 16,
			Enable:       core.Adaptations{Middleware: true},
			EnableHybrid: hybrid,
			CellScale:    1000,
		}
		return ablationRun(b, cfg)
	}
	for i := 0; i < b.N; i++ {
		b.ReportMetric(run(true).OverheadSeconds, "hybrid-overhead-s")
		b.ReportMetric(run(false).OverheadSeconds, "binary-overhead-s")
	}
}

// BenchmarkMeshWeld measures soup→indexed conversion throughput.
func BenchmarkMeshWeld(b *testing.B) {
	d := field.New(grid.BoxFromSize(grid.IV(0, 0, 0), grid.IV(32, 32, 32)), 1)
	c := 15.5
	d.Box.ForEach(func(q grid.IntVect) {
		dx, dy, dz := float64(q.X)-c, float64(q.Y)-c, float64(q.Z)-c
		d.Set(q, 0, dx*dx+dy*dy+dz*dz)
	})
	m := viz.ExtractBlock(d, 0, 100, viz.Vec3{}, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		im := m.Weld(0)
		if len(im.Faces) == 0 {
			b.Fatal("weld dropped everything")
		}
	}
}
