package solver

import (
	"math"

	"crosslayer/internal/amr"
	"crosslayer/internal/field"
	"crosslayer/internal/grid"
)

// The closure-per-cell kernels both solvers shipped before they became flat
// strided loops, kept as oracles. They allocate every buffer afresh
// (FillGhost, Clone, NewFluxRegister per step), record the coarse flux of a
// shared face from both neighbouring patches and offer every fine face to
// the register, so they also check the scratch reuse and the one-writer
// flux-register rules of the real kernels. The reference steps mutate the
// solver they are given exactly as Step does.

func refToPrim(s *PolytropicGas, d *field.BoxData, q grid.IntVect) prim {
	rho := d.Get(q, CompRho)
	if rho < 1e-12 {
		rho = 1e-12
	}
	u := d.Get(q, CompMx) / rho
	v := d.Get(q, CompMy) / rho
	w := d.Get(q, CompMz) / rho
	e := d.Get(q, CompE)
	pr := (gasGamma - 1) * (e - 0.5*rho*(u*u+v*v+w*w))
	if pr < 1e-12 {
		pr = 1e-12
	}
	return prim{rho, u, v, w, pr}
}

func refMaxWaveSpeed(s *PolytropicGas) float64 {
	speed := 1e-12
	for _, l := range s.h.Levels {
		for _, p := range l.Patches {
			p.Box.ForEach(func(q grid.IntVect) {
				pm := refToPrim(s, p.Data, q)
				c := s.sound(pm)
				v := math.Max(math.Abs(pm.u), math.Max(math.Abs(pm.v), math.Abs(pm.w)))
				if v+c > speed {
					speed = v + c
				}
			})
		}
	}
	return speed
}

func refFloorState(s *PolytropicGas, d *field.BoxData) {
	g1 := gasGamma - 1
	d.Box.ForEach(func(q grid.IntVect) {
		rho := d.Get(q, CompRho)
		if rho < 1e-10 {
			rho = 1e-10
			d.Set(q, CompRho, rho)
		}
		u := d.Get(q, CompMx) / rho
		v := d.Get(q, CompMy) / rho
		w := d.Get(q, CompMz) / rho
		ke := 0.5 * rho * (u*u + v*v + w*w)
		if pr := g1 * (d.Get(q, CompE) - ke); pr < 1e-10 {
			d.Set(q, CompE, ke+1e-10/g1)
		}
	})
}

func refGasAdvanceLevel(s *PolytropicGas, li int, dt float64, regSelf, regAbove *amr.FluxRegister) int64 {
	l := s.h.Level(li)
	dx := s.dx0
	for i := 0; i < li; i++ {
		dx /= float64(s.h.Cfg.RefRatio)
	}
	lambda := dt / dx

	ghosts := make([]*field.BoxData, len(l.Patches))
	for i, p := range l.Patches {
		ghosts[i] = s.h.FillGhost(li, p, 2)
	}
	var cells int64
	for pi, p := range l.Patches {
		cells += p.Box.NumCells()
		g := ghosts[pi]
		next := p.Data.Clone()
		for d := 0; d < 3; d++ {
			faceBox := p.Box.GrowDir(d, 0)
			lo, hi := faceBox.Lo, faceBox.Hi.WithComp(d, faceBox.Hi.Comp(d)+1)
			grid.NewBox(lo, hi).ForEach(func(q grid.IntVect) {
				qm1 := q.WithComp(d, q.Comp(d)-1)
				qm2 := q.WithComp(d, q.Comp(d)-2)
				qp1 := q.WithComp(d, q.Comp(d)+1)
				var ul, ur [NumComp]float64
				for c := 0; c < NumComp; c++ {
					um2, um1 := g.Get(qm2, c), g.Get(qm1, c)
					u0, up1 := g.Get(q, c), g.Get(qp1, c)
					sl := minmod(um1-um2, u0-um1)
					sr := minmod(u0-um1, up1-u0)
					ul[c] = um1 + 0.5*sl
					ur[c] = u0 - 0.5*sr
				}
				f := s.hll(s.primFromConserved(ul), s.primFromConserved(ur), d)
				if regAbove != nil {
					regAbove.RecordCoarse(q, d, f[:])
				}
				if regSelf != nil {
					regSelf.AccumFine(q, d, f[:])
				}
				for c := 0; c < NumComp; c++ {
					if p.Box.Contains(qm1) {
						next.Add(qm1, c, -lambda*f[c])
					}
					if p.Box.Contains(q) {
						next.Add(q, c, lambda*f[c])
					}
				}
			})
		}
		refFloorState(s, next)
		p.Data = next
	}
	return cells
}

func refGasStep(s *PolytropicGas) StepStats {
	if s.cfg.SecondaryStep > 0 && s.step == s.cfg.SecondaryStep {
		s.injectBlast()
	}
	finest := s.h.FinestLevel()
	dxFine := s.dx0
	for i := 0; i < finest; i++ {
		dxFine /= float64(s.h.Cfg.RefRatio)
	}
	dt := gasCFL * dxFine / refMaxWaveSpeed(s)

	regs := make([]*amr.FluxRegister, finest+2)
	if s.cfg.Reflux {
		for li := 1; li <= finest; li++ {
			regs[li] = amr.NewFluxRegister(s.h, li)
		}
	}
	var cells int64
	for li := 0; li <= finest; li++ {
		cells += refGasAdvanceLevel(s, li, dt, regs[li], regs[li+1])
	}
	dx := s.dx0
	for li := 1; li <= finest; li++ {
		if regs[li] != nil {
			regs[li].Reflux(s.h.Level(li-1), dt/dx)
		}
		dx /= float64(s.h.Cfg.RefRatio)
	}
	s.h.AverageDown()

	if s.step > 0 && s.step%s.cfg.RegridInterval == 0 {
		for li := 0; li < s.cfg.AMR.MaxLevel && li <= s.h.FinestLevel(); li++ {
			s.h.Regrid(li, s.h.TagCells(li, CompRho, s.tagThresh(li)))
		}
	}
	s.step++
	return StepStats{Dt: dt, CellsUpdated: cells, FinestLevel: s.h.FinestLevel()}
}

func refAdvDiffAdvanceLevel(s *AdvectionDiffusion, li int, dt float64, fill func(*amr.Patch) *field.BoxData) int64 {
	l := s.h.Level(li)
	dx := s.dx0
	for i := 0; i < li; i++ {
		dx /= float64(s.h.Cfg.RefRatio)
	}
	ghosts := make([]*field.BoxData, len(l.Patches))
	for i, p := range l.Patches {
		ghosts[i] = fill(p)
	}
	var cells int64
	v := s.cfg.Velocity
	nu := s.cfg.Diffusion
	for pi, p := range l.Patches {
		cells += p.Box.NumCells()
		g := ghosts[pi]
		next := field.New(p.Box, 1)
		p.Box.ForEach(func(q grid.IntVect) {
			u0 := g.Get(q, 0)
			adv, lap := 0.0, 0.0
			for d := 0; d < 3; d++ {
				um := g.Get(q.WithComp(d, q.Comp(d)-1), 0)
				up := g.Get(q.WithComp(d, q.Comp(d)+1), 0)
				if v[d] >= 0 {
					adv += v[d] * (u0 - um) / dx
				} else {
					adv += v[d] * (up - u0) / dx
				}
				lap += (up - 2*u0 + um) / (dx * dx)
			}
			next.Set(q, 0, u0+dt*(-adv+nu*lap))
		})
		p.Data = next
	}
	return cells
}

func refAdvDiffStep(s *AdvectionDiffusion) StepStats {
	r := s.h.Cfg.RefRatio
	plain := func(li int) func(*amr.Patch) *field.BoxData {
		return func(p *amr.Patch) *field.BoxData { return s.h.FillGhost(li, p, 1) }
	}
	var dt float64
	var cells int64
	if s.cfg.Subcycle {
		dt = s.stableDt(s.dx0)
		dx, scale := s.dx0, 1.0
		for li := 1; li <= s.h.FinestLevel(); li++ {
			dx /= float64(r)
			scale *= float64(r)
			if lim := s.stableDt(dx) * scale; lim < dt {
				dt = lim
			}
		}
		var old []*field.BoxData
		for _, p := range s.h.Level(0).Patches {
			old = append(old, p.Data.Clone())
		}
		cells = refAdvDiffAdvanceLevel(s, 0, dt, plain(0))
		if s.h.FinestLevel() >= 1 {
			for k := 0; k < r; k++ {
				theta := float64(k) / float64(r)
				cells += refAdvDiffAdvanceLevel(s, 1, dt/float64(r), func(p *amr.Patch) *field.BoxData {
					return s.h.FillGhostBlended(1, p, 1, old, theta)
				})
			}
		}
	} else {
		dxFine := s.dx0
		for i := 0; i < s.h.FinestLevel(); i++ {
			dxFine /= float64(r)
		}
		dt = s.stableDt(dxFine)
		for li := 0; li <= s.h.FinestLevel(); li++ {
			cells += refAdvDiffAdvanceLevel(s, li, dt, plain(li))
		}
	}
	s.h.AverageDown()

	if s.step > 0 && s.step%s.cfg.RegridInterval == 0 {
		for li := 0; li < s.cfg.AMR.MaxLevel && li <= s.h.FinestLevel(); li++ {
			s.h.Regrid(li, s.h.TagCells(li, 0, advDiffGradThresh))
		}
	}
	s.step++
	return StepStats{Dt: dt, CellsUpdated: cells, FinestLevel: s.h.FinestLevel()}
}
