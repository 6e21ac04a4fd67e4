package solver

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"testing"

	"crosslayer/internal/amr"
	"crosslayer/internal/grid"
)

// The oracles are only worth comparing against if they are the kernels the
// checksums were pinned with: stepping the xbench configurations with them
// must land on the same constants.
func TestReferenceStepsReproducePinnedSums(t *testing.T) {
	gas := xbenchGas().(*PolytropicGas)
	for i := 0; i < 32; i++ {
		refGasStep(gas)
	}
	if got := stateSum(gas.h); got != gasStateSum {
		t.Errorf("reference gas steps: %#x, pinned %#x", got, gasStateSum)
	}
	ad := xbenchAdvDiff().(*AdvectionDiffusion)
	for i := 0; i < 40; i++ {
		refAdvDiffStep(ad)
	}
	if got := stateSum(ad.h); got != advDiffStateSum {
		t.Errorf("reference advdiff steps: %#x, pinned %#x", got, advDiffStateSum)
	}
}

// sameState fails the test unless a and b have the same levels, boxes,
// owners and float bits.
func sameState(t *testing.T, when string, a, b *amr.Hierarchy) {
	t.Helper()
	if len(a.Levels) != len(b.Levels) {
		t.Fatalf("%s: %d levels vs reference %d", when, len(a.Levels), len(b.Levels))
	}
	for li := range a.Levels {
		ap, bp := a.Levels[li].Patches, b.Levels[li].Patches
		if len(ap) != len(bp) {
			t.Fatalf("%s: level %d has %d patches, reference %d", when, li, len(ap), len(bp))
		}
		for pi := range ap {
			if ap[pi].Box != bp[pi].Box || ap[pi].Data.Box != ap[pi].Box || ap[pi].Owner != bp[pi].Owner {
				t.Fatalf("%s: level %d patch %d is %v (data %v), reference %v", when, li, pi, ap[pi].Box, ap[pi].Data.Box, bp[pi].Box)
			}
			for c := 0; c < ap[pi].Data.NComp; c++ {
				ac, bc := ap[pi].Data.Comp(c), bp[pi].Data.Comp(c)
				for i := range ac {
					if math.Float64bits(ac[i]) != math.Float64bits(bc[i]) {
						t.Fatalf("%s: level %d patch %d %v comp %d cell %v: %v, reference %v",
							when, li, pi, ap[pi].Box, c, ap[pi].Box.Cell(i), ac[i], bc[i])
					}
				}
			}
		}
	}
}

// oddDomain has nx ≠ ny ≠ nz so that a stride mix-up cannot cancel.
var oddDomain = grid.NewBox(grid.IV(0, 0, 0), grid.IV(19, 13, 9))

// concaveTags refines an L-shaped region of oddDomain: the coarse cell in
// the notch touches two coarse–fine faces, and one arm touches the domain's
// low-x face.
func concaveTags() []grid.IntVect {
	var tags []grid.IntVect
	add := func(b grid.Box) { b.ForEach(func(q grid.IntVect) { tags = append(tags, q) }) }
	add(grid.NewBox(grid.IV(0, 3, 2), grid.IV(11, 6, 6)))
	add(grid.NewBox(grid.IV(7, 7, 2), grid.IV(11, 11, 6)))
	return tags
}

// randomGas overwrites every patch with a seeded physical state: densities
// and energies well above the floors, momenta of either sign.
func randomGas(h *amr.Hierarchy, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	for _, l := range h.Levels {
		for _, p := range l.Patches {
			u := comps(p.Data)
			for i := range u[CompRho] {
				u[CompRho][i] = 0.5 + 1.5*rng.Float64()
				u[CompMx][i] = 2*rng.Float64() - 1
				u[CompMy][i] = 2*rng.Float64() - 1
				u[CompMz][i] = 2*rng.Float64() - 1
				u[CompE][i] = 2 + 3*rng.Float64()
			}
		}
	}
}

func randomScalar(h *amr.Hierarchy, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	for _, l := range h.Levels {
		for _, p := range l.Patches {
			u := p.Data.Comp(0)
			for i := range u {
				u[i] = rng.NormFloat64()
			}
		}
	}
}

type kernelCase struct {
	name       string
	maxBoxSize int
	fine       bool // refine concaveTags on a static two-level hierarchy
	periodic   bool
}

var kernelCases = []kernelCase{
	{"single-patch clamped", 32, false, false},
	{"single-patch periodic", 32, false, true},
	{"multi-patch clamped", 8, false, false},
	{"multi-patch periodic", 8, false, true},
	{"two-level concave clamped", 8, true, false},
	{"two-level concave periodic", 8, true, true},
}

func (kc kernelCase) amr() amr.Config {
	cfg := amr.Config{Domain: oddDomain, MaxBoxSize: kc.maxBoxSize, NRanks: 3, Periodic: kc.periodic, FillRatio: 0.95}
	if kc.fine {
		cfg.MaxLevel = 1
	}
	return cfg
}

// refine puts the concave fine level on h, replacing whatever the solver's
// constructor refined.
func (kc kernelCase) refine(t *testing.T, h *amr.Hierarchy) {
	t.Helper()
	if !kc.fine {
		return
	}
	h.Regrid(0, concaveTags())
	if h.FinestLevel() != 1 || len(h.Level(1).Patches) < 3 {
		t.Fatalf("setup: fine level has %d patches", len(h.Level(h.FinestLevel()).Patches))
	}
}

// TestGasKernelsMatchReference steps the flat kernels and the oracles side
// by side from the same seeded random state: the face sweep, floorState,
// maxWaveSpeed (through dt), both flux-register sides and the reflux must
// agree bit for bit after every step.
func TestGasKernelsMatchReference(t *testing.T) {
	for _, kc := range kernelCases {
		t.Run(kc.name, func(t *testing.T) {
			cfg := GasConfig{AMR: kc.amr(), Reflux: true, RegridInterval: 1 << 30}
			got, want := NewPolytropicGas(cfg), NewPolytropicGas(cfg)
			for _, s := range []*PolytropicGas{got, want} {
				kc.refine(t, s.h)
				randomGas(s.h, 42)
			}
			if kc.fine {
				if n := facesPerOutCell(t, got.h); n < 2 {
					t.Fatalf("setup: no coarse cell touches two coarse–fine faces (max %d)", n)
				}
			}
			for step := 0; step < 3; step++ {
				a, b := got.Step(), refGasStep(want)
				if a != b {
					t.Fatalf("step %d: stats %+v, reference %+v", step, a, b)
				}
				sameState(t, fmt.Sprintf("step %d", step), got.h, want.h)
			}
		})
	}
}

// facesPerOutCell returns the largest number of coarse–fine faces of fine
// level 1 that share one uncovered coarse cell.
func facesPerOutCell(t *testing.T, h *amr.Hierarchy) int {
	t.Helper()
	covered := func(q grid.IntVect) bool {
		for _, fp := range h.Level(1).Patches {
			if fp.Box.Coarsen(h.Cfg.RefRatio).Contains(q) {
				return true
			}
		}
		return false
	}
	most := 0
	for _, p := range h.Level(0).Patches {
		p.Box.ForEach(func(q grid.IntVect) {
			if covered(q) {
				return
			}
			n := 0
			for d := 0; d < 3; d++ {
				for _, step := range []int{-1, 1} {
					if covered(q.WithComp(d, q.Comp(d)+step)) {
						n++
					}
				}
			}
			most = max(most, n)
		})
	}
	return most
}

func TestAdvDiffKernelMatchesReference(t *testing.T) {
	for _, kc := range kernelCases {
		for _, subcycle := range []bool{false, true} {
			if subcycle && !kc.fine {
				continue
			}
			t.Run(fmt.Sprintf("%s subcycle=%v", kc.name, subcycle), func(t *testing.T) {
				// A velocity with a negative component takes both upwind arms.
				cfg := AdvDiffConfig{AMR: kc.amr(), Velocity: [3]float64{1, -0.5, 0.25}, Subcycle: subcycle, RegridInterval: 1 << 30}
				got, want := NewAdvectionDiffusion(cfg), NewAdvectionDiffusion(cfg)
				for _, s := range []*AdvectionDiffusion{got, want} {
					kc.refine(t, s.h)
					randomScalar(s.h, 43)
				}
				for step := 0; step < 3; step++ {
					a, b := got.Step(), refAdvDiffStep(want)
					if a != b {
						t.Fatalf("step %d: stats %+v, reference %+v", step, a, b)
					}
					sameState(t, fmt.Sprintf("step %d", step), got.h, want.h)
				}
			})
		}
	}
}

// Scratch lifetime: the kernels keep ghost, next and flux-register buffers
// across steps, the oracles allocate everything afresh. They must agree on
// every step around each event that invalidates a buffer.

func TestGasScratchSurvivesRegrids(t *testing.T) {
	cfg := gasCfg(1, false)
	cfg.Reflux = true
	cfg.RegridInterval = 2
	cfg.SecondaryStep = 5 // injected blast: new refinement appears mid-run
	got, want := NewPolytropicGas(cfg), NewPolytropicGas(cfg)
	changed := 0
	for step := 0; step < 12; step++ {
		before := levelBoxes(got.h, 1)
		got.Step()
		refGasStep(want)
		sameState(t, fmt.Sprintf("step %d", step), got.h, want.h)
		if fmt.Sprint(before) != fmt.Sprint(levelBoxes(got.h, 1)) {
			changed++
		}
	}
	if changed < 2 {
		t.Fatalf("the fine box list changed %d times; the test needs regrids that move it", changed)
	}

	// Drop the fine level, step on the base level alone, then bring a
	// differently shaped fine level back under the same level index.
	for _, s := range []*PolytropicGas{got, want} {
		s.h.Regrid(0, nil)
	}
	if got.h.FinestLevel() != 0 {
		t.Fatal("Regrid with no tags kept the fine level")
	}
	for step := 0; step < 2; step++ {
		// Odd step numbers: the solver's own regrid cadence stays out of it.
		got.cfg.RegridInterval, want.cfg.RegridInterval = 1<<30, 1<<30
		got.Step()
		refGasStep(want)
		sameState(t, fmt.Sprintf("no fine level, step %d", step), got.h, want.h)
	}
	for _, s := range []*PolytropicGas{got, want} {
		var tags []grid.IntVect
		grid.NewBox(grid.IV(2, 3, 4), grid.IV(9, 7, 6)).ForEach(func(q grid.IntVect) { tags = append(tags, q) })
		s.h.Regrid(0, tags)
	}
	for step := 0; step < 2; step++ {
		got.Step()
		refGasStep(want)
		sameState(t, fmt.Sprintf("fine level back, step %d", step), got.h, want.h)
	}
}

func levelBoxes(h *amr.Hierarchy, li int) []grid.Box {
	if li > h.FinestLevel() {
		return nil
	}
	var out []grid.Box
	for _, p := range h.Level(li).Patches {
		out = append(out, p.Box)
	}
	return out
}

func TestAdvDiffScratchSurvivesRegrids(t *testing.T) {
	for _, subcycle := range []bool{false, true} {
		cfg := advCfg(1)
		cfg.RegridInterval = 2
		cfg.Subcycle = subcycle
		got, want := NewAdvectionDiffusion(cfg), NewAdvectionDiffusion(cfg)
		for step := 0; step < 12; step++ {
			got.Step()
			refAdvDiffStep(want)
			sameState(t, fmt.Sprintf("subcycle=%v step %d", subcycle, step), got.h, want.h)
		}
	}
}

// A journal resume rebuilds the solver from its configuration and replays
// Step through the checkpointed step (core.ResumeWorkflow): no arena is
// restored, so the resumed solver must simply be where the interrupted one
// was, and stay with it.
func TestGasResumeReplayMatchesUninterruptedRun(t *testing.T) {
	cfg := gasCfg(1, false)
	cfg.Reflux = true
	run := NewPolytropicGas(cfg)
	var resumed *PolytropicGas
	for step := 0; step < 10; step++ {
		if step == 6 {
			resumed = NewPolytropicGas(cfg)
			for i := 0; i < step; i++ {
				resumed.Step()
			}
		}
		if resumed != nil {
			sameState(t, fmt.Sprintf("before step %d", step), resumed.h, run.h)
			resumed.Step()
		}
		run.Step()
	}
	sameState(t, "end", resumed.h, run.h)
}

// A step on an unchanged hierarchy runs out of its arenas: the guard is two
// orders of magnitude under the ≈ 4 100 mallocs a step cost when every
// ghost fill, next buffer and flux register was allocated afresh.
//
// A regrid step and the step after it still allocate: the new fine level's
// prolonged data, the tags, next buffers for patches that outgrew their
// index's buffer, and the rebuilt flux register. They no longer allocate
// ghost scratch (one per worker, not per patch) or the regrid's mask,
// tag copies and coarse snapshots (kept on the Hierarchy). At this
// configuration the first regrid cycle's two steps read 0.71 MB each;
// with per-patch ghost scratch and an allocating regrid they read 1.61 and
// 3.43 MB. The bound is half the smaller of those.
func TestGasStepAllocationGuard(t *testing.T) {
	s := xbenchGas().(*PolytropicGas)
	s.cfg.RegridInterval = 1 << 30
	s.Step() // builds the arenas and registers
	n := testing.AllocsPerRun(5, func() { s.Step() })
	t.Logf("%.0f allocations per non-regrid step", n)
	if n > 200 {
		t.Errorf("a non-regrid gas step made %.0f allocations, want ≤ 200", n)
	}

	const maxRegridCycleBytes = 800_000
	s = xbenchGas().(*PolytropicGas)
	for s.step < s.cfg.RegridInterval {
		s.Step()
	}
	for _, name := range []string{"regrid step", "step after the regrid"} {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		s.Step()
		runtime.ReadMemStats(&after)
		b := after.TotalAlloc - before.TotalAlloc
		t.Logf("%s: %d bytes", name, b)
		if b > maxRegridCycleBytes {
			t.Errorf("the %s allocated %d bytes, want ≤ %d", name, b, maxRegridCycleBytes)
		}
	}
}
