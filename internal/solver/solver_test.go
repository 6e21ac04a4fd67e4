package solver

import (
	"math"
	"testing"

	"crosslayer/internal/amr"
	"crosslayer/internal/grid"
)

func gasCfg(maxLevel int, periodic bool) GasConfig {
	return GasConfig{
		AMR: amr.Config{
			Domain:     grid.NewBox(grid.IV(0, 0, 0), grid.IV(23, 23, 23)),
			MaxLevel:   maxLevel,
			RefRatio:   2,
			MaxBoxSize: 12,
			NRanks:     4,
			Periodic:   periodic,
		},
	}
}

func TestGasInitialCondition(t *testing.T) {
	s := NewPolytropicGas(gasCfg(0, false))
	h := s.Hierarchy()
	ctr := h.Cfg.Domain.Center()
	var center, corner *amr.Patch
	for _, p := range h.Level(0).Patches {
		if p.Box.Contains(ctr) {
			center = p
		}
		if p.Box.Contains(grid.IV(0, 0, 0)) {
			corner = p
		}
	}
	eCenter := center.Data.Get(ctr, CompE)
	eCorner := corner.Data.Get(grid.IV(0, 0, 0), CompE)
	if eCenter <= eCorner {
		t.Errorf("blast energy %v not above ambient %v", eCenter, eCorner)
	}
	if rho := center.Data.Get(ctr, CompRho); rho <= corner.Data.Get(grid.IV(0, 0, 0), CompRho) {
		t.Errorf("blast density %v not above ambient", rho)
	}
}

func TestGasInitialRefinementAroundBlast(t *testing.T) {
	s := NewPolytropicGas(gasCfg(1, false))
	h := s.Hierarchy()
	if h.FinestLevel() != 1 {
		t.Fatalf("expected initial refinement, FinestLevel = %d", h.FinestLevel())
	}
	if err := h.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	// The refined region must surround the blast edge.
	ctrFine := h.Cfg.Domain.Center().Scale(2)
	near := false
	for _, p := range h.Level(1).Patches {
		d := p.Box.Center().Sub(ctrFine)
		if math.Abs(float64(d.X)) < 20 && math.Abs(float64(d.Y)) < 20 && math.Abs(float64(d.Z)) < 20 {
			near = true
		}
	}
	if !near {
		t.Error("no fine patch near the blast")
	}
}

func TestGasStepAdvances(t *testing.T) {
	s := NewPolytropicGas(gasCfg(0, false))
	st := s.Step()
	if st.Dt <= 0 {
		t.Fatalf("dt = %v", st.Dt)
	}
	if st.CellsUpdated != s.Hierarchy().Cfg.Domain.NumCells() {
		t.Errorf("CellsUpdated = %d", st.CellsUpdated)
	}
}

func TestGasMassConservedPeriodic(t *testing.T) {
	s := NewPolytropicGas(gasCfg(0, true))
	m0 := s.TotalMass()
	for i := 0; i < 5; i++ {
		s.Step()
	}
	m1 := s.TotalMass()
	if rel := math.Abs(m1-m0) / m0; rel > 1e-10 {
		t.Errorf("mass drifted by %.3e", rel)
	}
}

func TestGasShockExpands(t *testing.T) {
	s := NewPolytropicGas(gasCfg(0, false))
	probe := grid.IV(18, 12, 12) // outside initial blast radius (3 cells)
	readRho := func() float64 {
		for _, p := range s.Hierarchy().Level(0).Patches {
			if p.Box.Contains(probe) {
				return p.Data.Get(probe, CompRho)
			}
		}
		t.Fatal("probe cell not found")
		return 0
	}
	before := readRho()
	for i := 0; i < 60; i++ {
		s.Step()
	}
	after := readRho()
	if math.Abs(after-before) < 1e-6 {
		t.Errorf("shock never reached probe: rho %v -> %v", before, after)
	}
}

func TestGasStateStaysPhysical(t *testing.T) {
	s := NewPolytropicGas(gasCfg(1, false))
	for i := 0; i < 12; i++ {
		s.Step()
	}
	for li, l := range s.Hierarchy().Levels {
		for _, p := range l.Patches {
			lo, _ := p.Data.MinMax(CompRho)
			if lo <= 0 || math.IsNaN(lo) {
				t.Fatalf("level %d: non-physical density %v", li, lo)
			}
			eLo, _ := p.Data.MinMax(CompE)
			if eLo <= 0 || math.IsNaN(eLo) {
				t.Fatalf("level %d: non-physical energy %v", li, eLo)
			}
		}
	}
	if err := s.Hierarchy().CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestGasRegridTracksShock(t *testing.T) {
	s := NewPolytropicGas(gasCfg(1, false))
	initial := s.Hierarchy().Level(1).NumCells()
	for i := 0; i < 24; i++ {
		s.Step()
	}
	if s.Hierarchy().FinestLevel() < 1 {
		t.Fatal("refinement vanished while shock active")
	}
	final := s.Hierarchy().Level(1).NumCells()
	if final == initial {
		t.Log("fine level cell count unchanged (possible but unusual)")
	}
	if final == 0 {
		t.Error("empty fine level while shock active")
	}
}

func TestGasSecondaryBlastGrowsData(t *testing.T) {
	cfg := gasCfg(1, false)
	cfg.SecondaryStep = 6
	s := NewPolytropicGas(cfg)
	var before, after int64
	for i := 0; i < 16; i++ {
		if i == 6 {
			before = s.Hierarchy().TotalCells()
		}
		s.Step()
	}
	after = s.Hierarchy().TotalCells()
	if after <= before {
		t.Errorf("secondary blast did not grow the hierarchy: %d -> %d", before, after)
	}
}

func advCfg(maxLevel int) AdvDiffConfig {
	return AdvDiffConfig{
		AMR: amr.Config{
			Domain:     grid.NewBox(grid.IV(0, 0, 0), grid.IV(23, 23, 23)),
			MaxLevel:   maxLevel,
			RefRatio:   2,
			MaxBoxSize: 12,
			NRanks:     4,
			Periodic:   true,
		},
	}
}

func TestAdvDiffPulseMoves(t *testing.T) {
	s := NewAdvectionDiffusion(advCfg(0))
	peakCell := func() grid.IntVect {
		best, bestV := grid.IV(0, 0, 0), -1.0
		for _, p := range s.Hierarchy().Level(0).Patches {
			p.Box.ForEach(func(q grid.IntVect) {
				if v := p.Data.Get(q, 0); v > bestV {
					best, bestV = q, v
				}
			})
		}
		return best
	}
	start := peakCell()
	for i := 0; i < 10; i++ { // few enough steps that the pulse cannot wrap the periodic box
		s.Step()
	}
	end := peakCell()
	if end.X <= start.X {
		t.Errorf("pulse did not advect in +x: %v -> %v", start, end)
	}
}

func TestAdvDiffConservesScalar(t *testing.T) {
	s := NewAdvectionDiffusion(advCfg(0))
	m0 := s.TotalScalar()
	for i := 0; i < 10; i++ {
		s.Step()
	}
	if rel := math.Abs(s.TotalScalar()-m0) / m0; rel > 1e-9 {
		t.Errorf("scalar drifted by %.3e", rel)
	}
}

func TestAdvDiffDiffusionDecaysPeak(t *testing.T) {
	cfg := advCfg(0)
	cfg.Velocity = [3]float64{0, 0, 0}
	cfg.Diffusion = 0.05
	s := NewAdvectionDiffusion(cfg)
	peak := func() float64 {
		m := -1.0
		for _, p := range s.Hierarchy().Level(0).Patches {
			if _, hi := p.Data.MinMax(0); hi > m {
				m = hi
			}
		}
		return m
	}
	p0 := peak()
	for i := 0; i < 20; i++ {
		s.Step()
	}
	if p1 := peak(); p1 >= p0 {
		t.Errorf("diffusion did not decay peak: %v -> %v", p0, p1)
	}
}

func TestAdvDiffRefinementFollowsPulse(t *testing.T) {
	s := NewAdvectionDiffusion(advCfg(1))
	if s.Hierarchy().FinestLevel() != 1 {
		t.Fatal("no initial refinement around pulse")
	}
	centroid := func() [3]float64 {
		var cx, cy, cz, n float64
		for _, p := range s.Hierarchy().Level(1).Patches {
			c := p.Box.Center()
			w := float64(p.Box.NumCells())
			cx += float64(c.X) * w
			cy += float64(c.Y) * w
			cz += float64(c.Z) * w
			n += w
		}
		return [3]float64{cx / n, cy / n, cz / n}
	}
	c0 := centroid()
	for i := 0; i < 30; i++ {
		s.Step()
	}
	if s.Hierarchy().FinestLevel() < 1 {
		t.Fatal("refinement vanished")
	}
	c1 := centroid()
	if c1[0] <= c0[0] {
		t.Errorf("refined region did not follow the pulse: %v -> %v", c0, c1)
	}
	if err := s.Hierarchy().CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestSimulationInterfaceCompliance(t *testing.T) {
	var _ Simulation = (*PolytropicGas)(nil)
	var _ Simulation = (*AdvectionDiffusion)(nil)
	g := NewPolytropicGas(gasCfg(0, false))
	if g.Name() == "" || g.AnalysisComp() != CompRho {
		t.Error("gas metadata wrong")
	}
	a := NewAdvectionDiffusion(advCfg(0))
	if a.Name() == "" || a.AnalysisComp() != 0 {
		t.Error("advdiff metadata wrong")
	}
}

func TestForEachPatchCoversAll(t *testing.T) {
	for _, n := range []int{0, 1, 7, 64} {
		hit := make([]int32, n)
		forEachPatch(n, func(i int) { hit[i]++ })
		for i, h := range hit {
			if h != 1 {
				t.Fatalf("n=%d: index %d visited %d times", n, i, h)
			}
		}
	}
}

// compositeMass integrates density over the composite grid: uncovered
// coarse cells plus fine cells weighted by the volume ratio.
func compositeMass(s *PolytropicGas) float64 {
	h := s.Hierarchy()
	sum := 0.0
	if h.FinestLevel() == 0 {
		return s.TotalMass()
	}
	fine := h.Level(1)
	r := h.Cfg.RefRatio
	covered := func(q grid.IntVect) bool {
		for _, fp := range fine.Patches {
			if fp.Box.Coarsen(r).Contains(q) {
				return true
			}
		}
		return false
	}
	for _, p := range h.Level(0).Patches {
		p.Box.ForEach(func(q grid.IntVect) {
			if !covered(q) {
				sum += p.Data.Get(q, CompRho)
			}
		})
	}
	inv := 1.0 / float64(r*r*r)
	for _, fp := range fine.Patches {
		sum += fp.Data.Sum(CompRho) * inv
	}
	return sum
}

func TestGasRefluxConservesCompositeMass(t *testing.T) {
	run := func(reflux bool) (drift float64) {
		cfg := gasCfg(1, true)
		cfg.Reflux = reflux
		cfg.RegridInterval = 1 << 30 // static grids: isolate flux errors
		s := NewPolytropicGas(cfg)
		m0 := compositeMass(s)
		for i := 0; i < 8; i++ {
			s.Step()
		}
		return math.Abs(compositeMass(s)-m0) / m0
	}
	with := run(true)
	without := run(false)
	if with > 1e-12 {
		t.Errorf("refluxed composite mass drifted by %.3e", with)
	}
	if without <= with {
		t.Errorf("reflux should improve conservation: with=%.3e without=%.3e", with, without)
	}
}

func TestGasRefluxStableWithRegridding(t *testing.T) {
	cfg := gasCfg(1, false)
	cfg.Reflux = true
	s := NewPolytropicGas(cfg)
	for i := 0; i < 16; i++ {
		s.Step()
	}
	for li, l := range s.Hierarchy().Levels {
		for _, p := range l.Patches {
			if lo, _ := p.Data.MinMax(CompRho); lo <= 0 || math.IsNaN(lo) {
				t.Fatalf("level %d: non-physical density %v with reflux+regrid", li, lo)
			}
		}
	}
	if err := s.Hierarchy().CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestAdvDiffSubcycleTakesFewerCoarseSteps(t *testing.T) {
	// Subcycled coarse dt is ~RefRatio times the shared dt (advection
	// limited), so reaching the same physical time needs fewer Step calls.
	mk := func(sub bool) *AdvectionDiffusion {
		cfg := advCfg(1)
		cfg.Subcycle = sub
		return NewAdvectionDiffusion(cfg)
	}
	shared := mk(false)
	subbed := mk(true)
	dtShared := shared.Step().Dt
	dtSub := subbed.Step().Dt
	if dtSub <= dtShared*1.5 {
		t.Errorf("subcycled coarse dt %.4g not ~2x shared dt %.4g", dtSub, dtShared)
	}
}

func TestAdvDiffSubcycleMatchesSharedDt(t *testing.T) {
	// Both schemes solve the same PDE; after the same physical time the
	// solutions must agree closely (first-order schemes, smooth data).
	mk := func(sub bool) *AdvectionDiffusion {
		cfg := advCfg(1)
		cfg.Subcycle = sub
		cfg.RegridInterval = 1 << 30 // fixed grids for a clean comparison
		return NewAdvectionDiffusion(cfg)
	}
	a := mk(false)
	b := mk(true)
	target := 0.04
	for ta := 0.0; ta < target; {
		ta += a.Step().Dt
	}
	for tb := 0.0; tb < target; {
		tb += b.Step().Dt
	}
	// Compare base levels (both averaged down).
	var diff, norm float64
	for i, p := range a.Hierarchy().Level(0).Patches {
		q := b.Hierarchy().Level(0).Patches[i]
		for j, v := range p.Data.Comp(0) {
			d := v - q.Data.Comp(0)[j]
			diff += d * d
			norm += v * v
		}
	}
	rel := math.Sqrt(diff / math.Max(norm, 1e-300))
	if rel > 0.05 {
		t.Errorf("subcycled solution diverges from shared-dt solution: rel L2 %.4f", rel)
	}
	if rel == 0 {
		t.Error("solutions identical; subcycling apparently inactive")
	}
}

func TestAdvDiffSubcycleConservesScalar(t *testing.T) {
	cfg := advCfg(0) // single level: subcycling is a no-op but the path runs
	cfg.Subcycle = true
	s := NewAdvectionDiffusion(cfg)
	m0 := s.TotalScalar()
	for i := 0; i < 8; i++ {
		s.Step()
	}
	if rel := math.Abs(s.TotalScalar()-m0) / m0; rel > 1e-9 {
		t.Errorf("scalar drifted by %.3e", rel)
	}
}

func TestAdvDiffSubcycleStable(t *testing.T) {
	cfg := advCfg(1)
	cfg.Subcycle = true
	s := NewAdvectionDiffusion(cfg)
	for i := 0; i < 20; i++ {
		s.Step()
	}
	for li, l := range s.Hierarchy().Levels {
		for _, p := range l.Patches {
			lo, hi := p.Data.MinMax(0)
			if math.IsNaN(lo) || math.IsNaN(hi) || hi > 2 || lo < -1 {
				t.Fatalf("level %d unstable: range [%v, %v]", li, lo, hi)
			}
		}
	}
	if err := s.Hierarchy().CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestAdvDiffSubcycleRejectsDeepHierarchies(t *testing.T) {
	cfg := advCfg(2)
	cfg.Subcycle = true
	defer func() {
		if recover() == nil {
			t.Error("MaxLevel 2 with subcycling should panic")
		}
	}()
	NewAdvectionDiffusion(cfg)
}

func TestAdvDiffNegativeVelocityUpwind(t *testing.T) {
	cfg := advCfg(0)
	cfg.Velocity = [3]float64{-1, 0, 0} // exercises the other upwind branch
	s := NewAdvectionDiffusion(cfg)
	peakX := func() int {
		best, bestV := 0, -1.0
		for _, p := range s.Hierarchy().Level(0).Patches {
			p.Box.ForEach(func(q grid.IntVect) {
				if v := p.Data.Get(q, 0); v > bestV {
					best, bestV = q.X, v
				}
			})
		}
		return best
	}
	x0 := peakX()
	for i := 0; i < 10; i++ {
		s.Step()
	}
	if x1 := peakX(); x1 >= x0 {
		t.Errorf("pulse did not advect in -x: %d -> %d", x0, x1)
	}
	m := s.TotalScalar()
	if math.IsNaN(m) || m <= 0 {
		t.Fatalf("unphysical total %v", m)
	}
}

func TestGasCFLShrinksWithRefinement(t *testing.T) {
	coarse := NewPolytropicGas(gasCfg(0, false))
	fine := NewPolytropicGas(gasCfg(1, false))
	dtC := coarse.Step().Dt
	dtF := fine.Step().Dt
	if dtF >= dtC {
		t.Errorf("refined dt %v not below single-level dt %v", dtF, dtC)
	}
}
