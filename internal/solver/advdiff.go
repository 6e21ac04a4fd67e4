package solver

import (
	"math"

	"crosslayer/internal/amr"
	"crosslayer/internal/field"
	"crosslayer/internal/grid"
)

// Advection-diffusion constants, typed for the reason given at gasGamma.
const (
	advDiffCFL        float64 = 0.5  // CFL number
	advDiffGradThresh float64 = 0.02 // tagging threshold
)

// AdvDiffConfig configures the Advection-Diffusion simulation.
type AdvDiffConfig struct {
	AMR            amr.Config // NComp is forced to 1
	Velocity       [3]float64 // constant advection velocity (default {1, 0.5, 0.25})
	Diffusion      float64    // diffusion coefficient ν (default 0.005)
	RegridInterval int        // steps between regrids (default 4)

	// Subcycle enables Berger–Oliger refined time stepping: the fine level
	// takes RefRatio substeps per coarse step, with its coarse ghost cells
	// interpolated in time between the coarse level's old and new states.
	// One refinement level is supported (MaxLevel ≤ 1).
	Subcycle bool
}

func (c *AdvDiffConfig) withDefaults() AdvDiffConfig {
	out := *c
	if out.Velocity == ([3]float64{}) {
		out.Velocity = [3]float64{1, 0.5, 0.25}
	}
	if out.Diffusion == 0 {
		out.Diffusion = 0.005
	}
	if out.RegridInterval == 0 {
		out.RegridInterval = 4
	}
	out.AMR.NComp = 1
	return out
}

// AdvectionDiffusion solves ∂u/∂t + v·∇u = ν∇²u on the AMR hierarchy with
// an unsplit first-order upwind advection term and explicit central
// diffusion. It mirrors the adaptive conservative transport solver of the
// Chombo package that the paper's middleware-layer experiments use.
type AdvectionDiffusion struct {
	cfg  AdvDiffConfig
	h    *amr.Hierarchy
	step int
	dx0  float64

	scratch scratch // reused across steps
}

// NewAdvectionDiffusion builds the solver, applies the pulse initial
// condition and refines the initial hierarchy around it.
func NewAdvectionDiffusion(cfg AdvDiffConfig) *AdvectionDiffusion {
	c := cfg.withDefaults()
	if c.Subcycle && c.AMR.MaxLevel > 1 {
		panic("solver: subcycling supports at most one refinement level")
	}
	s := &AdvectionDiffusion{
		cfg: c,
		h:   amr.NewHierarchy(c.AMR),
		dx0: 1.0 / float64(c.AMR.Domain.Size().MaxComp()),
	}
	s.initLevel(0)
	for li := 0; li < c.AMR.MaxLevel; li++ {
		tags := s.h.TagCells(li, 0, advDiffGradThresh)
		if len(tags) == 0 {
			break
		}
		s.h.Regrid(li, tags)
		if s.h.FinestLevel() <= li {
			break
		}
		s.initLevel(li + 1)
	}
	// Make the initial composite state consistent: the fine levels carry
	// the initial condition at their own resolution, so the coarse levels
	// must be averaged down before the first step.
	s.h.AverageDown()
	return s
}

// initLevel applies the initial condition to level li: a compact Gaussian
// pulse of width 1/10 of the domain's smallest extent, centred on the
// lower-quadrant point (¼, ¼, ¼) so the pulse traverses the box and keeps
// the refined region moving.
func (s *AdvectionDiffusion) initLevel(li int) {
	l := s.h.Level(li)
	scale := 1
	for i := 0; i < li; i++ {
		scale *= s.h.Cfg.RefRatio
	}
	sz := s.cfg.AMR.Domain.Size()
	cx := float64(sz.X) * 0.25 * float64(scale)
	cy := float64(sz.Y) * 0.25 * float64(scale)
	cz := float64(sz.Z) * 0.25 * float64(scale)
	width := float64(sz.MinComp()) / 10 * float64(scale)
	for _, p := range l.Patches {
		p.Box.ForEach(func(q grid.IntVect) {
			dx := float64(q.X) + 0.5 - cx
			dy := float64(q.Y) + 0.5 - cy
			dz := float64(q.Z) + 0.5 - cz
			r2 := (dx*dx + dy*dy + dz*dz) / (width * width)
			p.Data.Set(q, 0, math.Exp(-r2))
		})
	}
}

// Name implements Simulation.
func (s *AdvectionDiffusion) Name() string { return "AMRAdvectionDiffusion" }

// Hierarchy implements Simulation.
func (s *AdvectionDiffusion) Hierarchy() *amr.Hierarchy { return s.h }

// AnalysisComp implements Simulation.
func (s *AdvectionDiffusion) AnalysisComp() int { return 0 }

// stableDt returns the largest stable dt for a level's spacing, using the
// combined explicit upwind + FTCS criterion
// dt·(Σ_d |v_d|/dx + 6ν/dx²) ≤ CFL — the advective and diffusive Courant
// fractions add, so bounding each separately is not sufficient when a
// level runs at its own marginal limit (as subcycling does).
func (s *AdvectionDiffusion) stableDt(dx float64) float64 {
	sumV := math.Abs(s.cfg.Velocity[0]) + math.Abs(s.cfg.Velocity[1]) + math.Abs(s.cfg.Velocity[2])
	denom := sumV/dx + 6*s.cfg.Diffusion/(dx*dx)
	return advDiffCFL / math.Max(denom, 1e-12)
}

// Step implements Simulation.
func (s *AdvectionDiffusion) Step() StepStats {
	r := float64(s.h.Cfg.RefRatio)
	var dt float64
	var cells int64
	if s.cfg.Subcycle {
		// Coarse dt limited by each level's own stability scaled by its
		// substep count: level l takes r^l substeps of dt/r^l.
		dt = s.stableDt(s.dx0)
		dx := s.dx0
		scale := 1.0
		for li := 1; li <= s.h.FinestLevel(); li++ {
			dx /= r
			scale *= r
			if lim := s.stableDt(dx) * scale; lim < dt {
				dt = lim
			}
		}
		cells = s.advanceSubcycled(dt)
	} else {
		// Shared dt across levels: the finest level's stability binds.
		dxFine := s.dx0
		for i := 0; i < s.h.FinestLevel(); i++ {
			dxFine /= r
		}
		dt = s.stableDt(dxFine)
		for li := 0; li <= s.h.FinestLevel(); li++ {
			cells += s.advanceLevel(li, dt)
		}
	}
	s.h.AverageDown()

	if s.step > 0 && s.step%s.cfg.RegridInterval == 0 {
		for li := 0; li < s.cfg.AMR.MaxLevel && li <= s.h.FinestLevel(); li++ {
			tags := s.h.TagCells(li, 0, advDiffGradThresh)
			s.h.Regrid(li, tags)
		}
	}

	s.step++
	return StepStats{
		Dt:           dt,
		CellsUpdated: cells,
		FinestLevel:  s.h.FinestLevel(),
	}
}

func (s *AdvectionDiffusion) advanceLevel(li int, dt float64) int64 {
	return s.advanceLevelWith(li, dt, nil, 0)
}

// advanceSubcycled performs one Berger–Oliger coarse step: level 0 advances
// by dt, then the fine level takes RefRatio substeps of dt/RefRatio with
// coarse ghosts interpolated in time between level 0's state before the
// coarse advance and its new state.
func (s *AdvectionDiffusion) advanceSubcycled(dt float64) int64 {
	cells := s.advanceLevel(0, dt)
	if s.h.FinestLevel() < 1 {
		return cells
	}
	// The advance swapped level 0's previous state into its next buffers,
	// where it stays until level 0 advances again.
	old := s.scratch.levels[0].next
	r := s.h.Cfg.RefRatio
	dtFine := dt / float64(r)
	for k := 0; k < r; k++ {
		theta := float64(k) / float64(r) // ghosts at the substep's start time
		cells += s.advanceLevelWith(1, dtFine, old, theta)
	}
	return cells
}

// advanceLevelWith is the level update; a non-nil oldCoarse blends the
// coarse ghost source in time (amr.FillGhostInto). Jacobi, like the gas
// update: patches write their next buffers, swapped in at the end.
func (s *AdvectionDiffusion) advanceLevelWith(li int, dt float64, oldCoarse []*field.BoxData, theta float64) int64 {
	l := s.h.Level(li)
	dx := s.dx0
	for i := 0; i < li; i++ {
		dx /= float64(s.h.Cfg.RefRatio)
	}
	ls := s.scratch.level(li, l)

	var cells int64
	for _, p := range l.Patches {
		cells += p.Box.NumCells()
	}

	v := s.cfg.Velocity
	nu := s.cfg.Diffusion
	s.scratch.forEachPatch(len(l.Patches), func(w, pi int) {
		p := l.Patches[pi]
		g := s.h.FillGhostInto(&s.scratch.ghost[w], li, p, 1, oldCoarse, theta)
		next := field.Sized(ls.next[pi], p.Box, 1)
		ls.next[pi] = next
		u, out := g.Comp(0), next.Comp(0)
		gsz := g.Box.Size()
		strides := [3]int{1, gsz.X, gsz.X * gsz.Y}
		o := 0
		for z := p.Box.Lo.Z; z <= p.Box.Hi.Z; z++ {
			for y := p.Box.Lo.Y; y <= p.Box.Hi.Y; y++ {
				gi := g.Box.Offset(grid.IV(p.Box.Lo.X, y, z))
				for x := p.Box.Lo.X; x <= p.Box.Hi.X; x, gi, o = x+1, gi+1, o+1 {
					u0 := u[gi]
					adv, lap := 0.0, 0.0
					for d, st := range strides {
						um, up := u[gi-st], u[gi+st]
						// first-order upwind advection
						if v[d] >= 0 {
							adv += v[d] * (u0 - um) / dx
						} else {
							adv += v[d] * (up - u0) / dx
						}
						lap += (up - 2*u0 + um) / (dx * dx)
					}
					out[o] = u0 + dt*(-adv+nu*lap)
				}
			}
		}
	})
	ls.swap(l)
	return cells
}

// TotalScalar returns the integral of u over the base level; with periodic
// boundaries the scheme conserves it exactly (up to roundoff).
func (s *AdvectionDiffusion) TotalScalar() float64 {
	sum := 0.0
	for _, p := range s.h.Level(0).Patches {
		sum += p.Data.Sum(0)
	}
	return sum
}
