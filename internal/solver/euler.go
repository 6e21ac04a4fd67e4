package solver

import (
	"math"

	"crosslayer/internal/amr"
	"crosslayer/internal/field"
	"crosslayer/internal/grid"
)

// Components of the conserved Euler state vector.
const (
	CompRho = 0 // density
	CompMx  = 1 // x-momentum
	CompMy  = 2 // y-momentum
	CompMz  = 3 // z-momentum
	CompE   = 4 // total energy
	NumComp = 5
)

// Gas constants. They are typed so that expressions such as gasGamma-1
// round exactly as the same arithmetic on float64 variables does: an
// untyped 1.4-1 folds to 0.4, one ulp away, and would move the pinned
// state sums.
const (
	gasGamma      float64 = 1.4  // ratio of specific heats
	gasCFL        float64 = 0.4  // CFL number
	gasGradThresh float64 = 0.05 // density-gradient tagging threshold

	// Blast-wave initial condition: ambient gas with an over-pressured
	// sphere at the domain center (radius 1/8 of the smallest extent), the
	// classic driver of an expanding shock that AMR chases.
	gasAmbientRho float64 = 1.0
	gasAmbientP   float64 = 0.1
	gasBlastRho   float64 = 2.0 // density inside the blast sphere
	gasBlastP     float64 = 10.0
)

// GasConfig configures the Polytropic Gas simulation.
type GasConfig struct {
	AMR            amr.Config // Domain, ranks, levels, ... (NComp is forced to 5)
	RegridInterval int        // steps between regrids (default 4)
	Reflux         bool       // Berger–Colella refluxing at coarse-fine interfaces
	SecondaryStep  int        // if >0, inject a second blast at this step (stresses regridding)
}

func (c *GasConfig) withDefaults() GasConfig {
	out := *c
	if out.RegridInterval == 0 {
		out.RegridInterval = 4
	}
	out.AMR.NComp = NumComp
	return out
}

// PolytropicGas is the 3-D compressible Euler solver (ideal gas EOS) on the
// AMR hierarchy: unsplit Godunov update with minmod-limited MUSCL
// reconstruction and HLL fluxes. It mirrors the AMR Polytropic Gas example
// of the Chombo package used throughout the paper's evaluation.
type PolytropicGas struct {
	cfg  GasConfig
	h    *amr.Hierarchy
	step int
	dx0  float64 // base-level mesh spacing

	scratch scratch             // reused across steps
	regs    []*amr.FluxRegister // regs[li] registers fine level li; rebuilt when a regrid changes it
}

// NewPolytropicGas builds the solver and applies the blast-wave initial
// condition, refining the initial hierarchy around the blast.
func NewPolytropicGas(cfg GasConfig) *PolytropicGas {
	c := cfg.withDefaults()
	s := &PolytropicGas{
		cfg: c,
		h:   amr.NewHierarchy(c.AMR),
		dx0: 1.0 / float64(c.AMR.Domain.Size().MaxComp()),
	}
	s.initLevel(0)
	// Refine around the initial blast before the first step so the shock
	// is born on fine mesh.
	for li := 0; li < c.AMR.MaxLevel; li++ {
		tags := s.h.TagCells(li, CompRho, s.tagThresh(li))
		prGas := len(tags) > 0
		s.h.Regrid(li, tags)
		if !prGas || s.h.FinestLevel() <= li {
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

// tagThresh scales the tagging threshold with level (finer levels tag on
// smaller undivided differences).
func (s *PolytropicGas) tagThresh(li int) float64 {
	return gasGradThresh / float64(int(1)<<uint(li))
}

// initLevel applies the initial condition to level li.
func (s *PolytropicGas) initLevel(li int) {
	l := s.h.Level(li)
	scale := 1
	for i := 0; i < li; i++ {
		scale *= s.h.Cfg.RefRatio
	}
	ctr := s.cfg.AMR.Domain.Center()
	cx := (float64(ctr.X) + 0.5) * float64(scale)
	cy := (float64(ctr.Y) + 0.5) * float64(scale)
	cz := (float64(ctr.Z) + 0.5) * float64(scale)
	radius := float64(s.cfg.AMR.Domain.Size().MinComp()) / 8 * float64(scale)
	g1 := gasGamma - 1
	for _, p := range l.Patches {
		p.Box.ForEach(func(q grid.IntVect) {
			dx := float64(q.X) + 0.5 - cx
			dy := float64(q.Y) + 0.5 - cy
			dz := float64(q.Z) + 0.5 - cz
			rho, pr := gasAmbientRho, gasAmbientP
			if math.Sqrt(dx*dx+dy*dy+dz*dz) < radius {
				rho, pr = gasBlastRho, gasBlastP
			}
			p.Data.Set(q, CompRho, rho)
			p.Data.Set(q, CompMx, 0)
			p.Data.Set(q, CompMy, 0)
			p.Data.Set(q, CompMz, 0)
			p.Data.Set(q, CompE, pr/g1)
		})
	}
}

// injectBlast deposits a second over-pressured sphere off-center, forcing
// fresh refinement mid-run (used to reproduce the erratic data-volume
// growth of the paper's Fig. 1 profile).
func (s *PolytropicGas) injectBlast() {
	g1 := gasGamma - 1
	for li, l := range s.h.Levels {
		scale := 1
		for i := 0; i < li; i++ {
			scale *= s.h.Cfg.RefRatio
		}
		sz := s.cfg.AMR.Domain.Size()
		cx := (float64(sz.X)*0.25 + 0.5) * float64(scale)
		cy := (float64(sz.Y)*0.25 + 0.5) * float64(scale)
		cz := (float64(sz.Z)*0.25 + 0.5) * float64(scale)
		radius := float64(sz.MinComp()) / 8 * float64(scale) * 0.75
		for _, p := range l.Patches {
			p.Box.ForEach(func(q grid.IntVect) {
				dx := float64(q.X) + 0.5 - cx
				dy := float64(q.Y) + 0.5 - cy
				dz := float64(q.Z) + 0.5 - cz
				if math.Sqrt(dx*dx+dy*dy+dz*dz) < radius {
					p.Data.Set(q, CompE, p.Data.Get(q, CompE)+gasBlastP/g1)
				}
			})
		}
	}
}

// Name implements Simulation.
func (s *PolytropicGas) Name() string { return "AMRPolytropicGas" }

// Hierarchy implements Simulation.
func (s *PolytropicGas) Hierarchy() *amr.Hierarchy { return s.h }

// AnalysisComp implements Simulation: visualization extracts isosurfaces of
// density.
func (s *PolytropicGas) AnalysisComp() int { return CompRho }

// prim holds the primitive state of one cell.
type prim struct {
	rho, u, v, w, p float64
}

// comps returns the component slices of a five-component state: the
// kernels index these directly (component-major, x fastest).
func comps(d *field.BoxData) (u [NumComp][]float64) {
	for c := range u {
		u[c] = d.Comp(c)
	}
	return u
}

// flux computes the Euler flux of state pm along direction d.
func (s *PolytropicGas) flux(pm prim, d int) [NumComp]float64 {
	vel := [3]float64{pm.u, pm.v, pm.w}
	vn := vel[d]
	e := pm.p/(gasGamma-1) + 0.5*pm.rho*(pm.u*pm.u+pm.v*pm.v+pm.w*pm.w)
	var f [NumComp]float64
	f[CompRho] = pm.rho * vn
	f[CompMx] = pm.rho * pm.u * vn
	f[CompMy] = pm.rho * pm.v * vn
	f[CompMz] = pm.rho * pm.w * vn
	f[CompMx+d] += pm.p
	f[CompE] = (e + pm.p) * vn
	return f
}

func (s *PolytropicGas) sound(pm prim) float64 {
	return math.Sqrt(gasGamma * pm.p / pm.rho)
}

// hll computes the HLL approximate Riemann flux between left and right
// states along direction d.
func (s *PolytropicGas) hll(left, right prim, d int) [NumComp]float64 {
	vl := [3]float64{left.u, left.v, left.w}[d]
	vr := [3]float64{right.u, right.v, right.w}[d]
	cl, cr := s.sound(left), s.sound(right)
	sl := math.Min(vl-cl, vr-cr)
	sr := math.Max(vl+cl, vr+cr)
	fl := s.flux(left, d)
	fr := s.flux(right, d)
	if sl >= 0 {
		return fl
	}
	if sr <= 0 {
		return fr
	}
	ul := s.conserved(left)
	ur := s.conserved(right)
	var f [NumComp]float64
	inv := 1.0 / (sr - sl)
	for c := 0; c < NumComp; c++ {
		f[c] = (sr*fl[c] - sl*fr[c] + sl*sr*(ur[c]-ul[c])) * inv
	}
	return f
}

func (s *PolytropicGas) conserved(pm prim) [NumComp]float64 {
	e := pm.p/(gasGamma-1) + 0.5*pm.rho*(pm.u*pm.u+pm.v*pm.v+pm.w*pm.w)
	return [NumComp]float64{pm.rho, pm.rho * pm.u, pm.rho * pm.v, pm.rho * pm.w, e}
}

func minmod(a, b float64) float64 {
	if a*b <= 0 {
		return 0
	}
	if math.Abs(a) < math.Abs(b) {
		return a
	}
	return b
}

// maxWaveSpeed scans the hierarchy for max(|v_d|)+c.
func (s *PolytropicGas) maxWaveSpeed() float64 {
	speed := 1e-12
	for _, l := range s.h.Levels {
		for _, p := range l.Patches {
			u := comps(p.Data)
			for i := range u[CompRho] {
				pm := s.primFromConserved([NumComp]float64{u[CompRho][i], u[CompMx][i], u[CompMy][i], u[CompMz][i], u[CompE][i]})
				c := s.sound(pm)
				v := math.Max(math.Abs(pm.u), math.Max(math.Abs(pm.v), math.Abs(pm.w)))
				if v+c > speed {
					speed = v + c
				}
			}
		}
	}
	return speed
}

// Step implements Simulation: one explicit update of every level with a
// shared CFL time step, followed by restriction and periodic regridding.
func (s *PolytropicGas) Step() StepStats {
	if s.cfg.SecondaryStep > 0 && s.step == s.cfg.SecondaryStep {
		s.injectBlast()
	}

	finest := s.h.FinestLevel()
	dxFine := s.dx0
	for i := 0; i < finest; i++ {
		dxFine /= float64(s.h.Cfg.RefRatio)
	}
	dt := gasCFL * dxFine / s.maxWaveSpeed()

	// Flux registers (one per fine level) capture coarse and fine fluxes at
	// the coarse-fine boundaries during the sweeps, then correct the
	// uncovered coarse cells so the composite update is conservative.
	if s.cfg.Reflux {
		s.resetRegisters()
	}
	var cells int64
	for li := 0; li <= s.h.FinestLevel(); li++ {
		cells += s.advanceLevel(li, dt, s.regAt(li), s.regAt(li+1))
	}
	dx := s.dx0
	for li := 1; li <= s.h.FinestLevel(); li++ {
		if reg := s.regAt(li); reg != nil {
			reg.Reflux(s.h.Level(li-1), dt/dx)
		}
		dx /= float64(s.h.Cfg.RefRatio)
	}
	s.h.AverageDown()

	if s.step > 0 && s.step%s.cfg.RegridInterval == 0 {
		for li := 0; li < s.cfg.AMR.MaxLevel && li <= s.h.FinestLevel(); li++ {
			tags := s.h.TagCells(li, CompRho, s.tagThresh(li))
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

// resetRegisters readies regs[li] for every fine level li: cleared when its
// face set still matches the level, rebuilt when a regrid changed it.
func (s *PolytropicGas) resetRegisters() {
	if s.regs == nil {
		s.regs = make([]*amr.FluxRegister, s.cfg.AMR.MaxLevel+2)
	}
	for li := 1; li < len(s.regs); li++ {
		switch {
		case li > s.h.FinestLevel():
			s.regs[li] = nil
		case s.regs[li] != nil && s.regs[li].Matches(s.h, li):
			s.regs[li].Reset()
		default:
			s.regs[li] = amr.NewFluxRegister(s.h, li)
		}
	}
}

// regAt returns the register of fine level li, nil when refluxing is off or
// li is not a fine level.
func (s *PolytropicGas) regAt(li int) *amr.FluxRegister {
	if li < 1 || li >= len(s.regs) {
		return nil
	}
	return s.regs[li]
}

// advanceLevel performs the unsplit Godunov update of level li. regSelf
// (non-nil when li ≥ 1 and refluxing is on) accumulates this level's
// boundary fluxes as the fine side of its coarse-fine interface; regAbove
// records this level's fluxes as the coarse side of level li+1's interface.
//
// The update is Jacobi: every patch reads the level's current data through
// its ghost fill and writes its next buffer; the buffers are swapped in
// once all patches are done.
func (s *PolytropicGas) advanceLevel(li int, dt float64, regSelf, regAbove *amr.FluxRegister) int64 {
	l := s.h.Level(li)
	dx := s.dx0
	for i := 0; i < li; i++ {
		dx /= float64(s.h.Cfg.RefRatio)
	}
	lambda := dt / dx
	ls := s.scratch.level(li, l)

	var cells int64
	for _, p := range l.Patches {
		cells += p.Box.NumCells()
	}
	s.scratch.forEachPatch(len(l.Patches), func(w, pi int) {
		p := l.Patches[pi]
		g := s.h.FillGhostInto(&s.scratch.ghost[w], li, p, 2, nil, 0)
		next := field.Sized(ls.next[pi], p.Box, NumComp)
		ls.next[pi] = next
		s.sweepFaces(p, g, next, lambda, regSelf, regAbove)
		s.floorState(next)
	})
	ls.swap(l)
	return cells
}

// sweepFaces sets next to p.Data plus the flux differences of every face
// of p, read from the two-cell ghost extension g. Directions go d = 0, 1,
// 2 and the faces of a direction in row-major order, so a cell receives
// +λF of its low face before −λF of its high face: the order of floating-
// point additions into a cell is part of the solver's bit-for-bit contract.
func (s *PolytropicGas) sweepFaces(p *amr.Patch, g, next *field.BoxData, lambda float64, regSelf, regAbove *amr.FluxRegister) {
	u, n := comps(g), comps(next)
	for c, cur := range comps(p.Data) {
		copy(n[c], cur)
	}
	lo, hi := p.Box.Lo, p.Box.Hi
	gsz, nsz := g.Box.Size(), p.Box.Size()
	gstride := [3]int{1, gsz.X, gsz.X * gsz.Y}
	nstride := [3]int{1, nsz.X, nsz.X * nsz.Y}
	for d := 0; d < 3; d++ {
		// Faces between q−e_d and q for q in [lo, hi+e_d].
		gs, ns := gstride[d], nstride[d]
		loD, hiD := lo.Comp(d), hi.Comp(d)
		fhi := hi.WithComp(d, hiD+1)
		for z := lo.Z; z <= fhi.Z; z++ {
			for y := lo.Y; y <= fhi.Y; y++ {
				gi := g.Box.Offset(grid.IV(lo.X, y, z))
				ni := ((z-lo.Z)*nsz.Y + (y - lo.Y)) * nsz.X // past the patch on the hi+e_d row, where only ni−ns is used
				qd := [3]int{lo.X, y, z}[d]
				for x := lo.X; x <= fhi.X; x, gi, ni = x+1, gi+1, ni+1 {
					if d == 0 {
						qd = x
					}
					// MUSCL reconstruction with minmod slopes, per
					// component of the conserved vector (simple and robust).
					var ul, ur [NumComp]float64
					for c, uc := range u {
						um2, um1, u0, up1 := uc[gi-2*gs], uc[gi-gs], uc[gi], uc[gi+gs]
						sl := minmod(um1-um2, u0-um1)
						sr := minmod(u0-um1, up1-u0)
						ul[c] = um1 + 0.5*sl
						ur[c] = u0 - 0.5*sr
					}
					f := s.hll(s.primFromConserved(ul), s.primFromConserved(ur), d)

					// q−e_d is a cell of p unless q is on the low boundary,
					// q unless it is past the high one. Those two boundary
					// planes are the only faces a fine register can own, and
					// a coarse flux is recorded by the patch holding cell q
					// alone (one writer per register slot).
					lowIn, highIn := qd > loD, qd <= hiD
					if regAbove != nil && highIn {
						regAbove.RecordCoarse(grid.IV(x, y, z), d, f[:])
					}
					if regSelf != nil && !(lowIn && highIn) {
						regSelf.AccumFine(grid.IV(x, y, z), d, f[:])
					}
					if lowIn {
						for c := range n {
							n[c][ni-ns] += -lambda * f[c]
						}
					}
					if highIn {
						for c := range n {
							n[c][ni] += lambda * f[c]
						}
					}
				}
			}
		}
	}
}

// primFromConserved converts a conserved vector to primitives with floors.
func (s *PolytropicGas) primFromConserved(u [NumComp]float64) prim {
	rho := u[CompRho]
	if rho < 1e-12 {
		rho = 1e-12
	}
	vx, vy, vz := u[CompMx]/rho, u[CompMy]/rho, u[CompMz]/rho
	pr := (gasGamma - 1) * (u[CompE] - 0.5*rho*(vx*vx+vy*vy+vz*vz))
	if pr < 1e-12 {
		pr = 1e-12
	}
	return prim{rho, vx, vy, vz, pr}
}

// floorState enforces positive density and pressure after an update.
func (s *PolytropicGas) floorState(d *field.BoxData) {
	g1 := gasGamma - 1
	u := comps(d)
	for i, rho := range u[CompRho] {
		if rho < 1e-10 {
			rho = 1e-10
			u[CompRho][i] = rho
		}
		vx, vy, vz := u[CompMx][i]/rho, u[CompMy][i]/rho, u[CompMz][i]/rho
		ke := 0.5 * rho * (vx*vx + vy*vy + vz*vz)
		if pr := g1 * (u[CompE][i] - ke); pr < 1e-10 {
			u[CompE][i] = ke + 1e-10/g1
		}
	}
}

// TotalMass returns the integral of density over the base level — a
// conserved quantity used by the tests.
func (s *PolytropicGas) TotalMass() float64 {
	sum := 0.0
	for _, p := range s.h.Level(0).Patches {
		sum += p.Data.Sum(CompRho)
	}
	return sum
}
