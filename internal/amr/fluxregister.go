package amr

import "crosslayer/internal/grid"

// FluxRegister implements Berger–Colella refluxing for one coarse–fine
// level pair: it records the coarse fluxes crossing the fine level's
// boundary and accumulates the area-averaged fine fluxes crossing the same
// faces, so that after both levels advance, the coarse cells just outside
// the fine region can be corrected to have used the (more accurate) fine
// fluxes. With refluxing plus AverageDown, a conservative solver conserves
// its invariants on the composite grid exactly, not just per level.
//
// Face convention: the face with index i along direction d separates cells
// i-1 and i and is named by its cell-i coordinate, in the coarse level's
// index space.
//
// Fluxes live in dense per-face slots with no lock. Concurrent sweeps are
// safe because each slot has one writer: a solver records the coarse flux
// of a face only from the patch that contains the face's own cell, and all
// r² fine sub-faces of a coarse face belong to one fine patch (fine patch
// boundaries lie on coarse face planes).
type FluxRegister struct {
	ncomp  int
	ratio  int
	cboxes []grid.Box // coarsened fine patch boxes the face set was built from

	// faces is in enumeration order — fine patch, direction, low then high
	// side, row-major — a function of the hierarchy only, so Reflux applies
	// its corrections in the same order on every run.
	faces  []cfFace
	bounds grid.Box   // covers the cell of every face
	slot   [3][]int32 // per direction over bounds: 1 + index into faces, 0 for none

	coarse, fine       []float64 // ncomp values per face
	hasCoarse, hasFine []bool
}

// cfFace records the uncovered coarse cell adjacent to a coarse–fine face
// and the sign with which the face's flux enters that cell's update.
type cfFace struct {
	out  grid.IntVect
	sign float64 // +1: face contributes +λF to out; -1: contributes −λF
}

// NewFluxRegister builds the register for fine level li (li ≥ 1) of h,
// enumerating the coarse–fine boundary faces: faces of the coarsened fine
// union whose outside cell is not itself covered by the fine level and
// lies inside the coarse domain.
func NewFluxRegister(h *Hierarchy, li int) *FluxRegister {
	if li < 1 || li > h.FinestLevel() {
		panic("amr: FluxRegister needs an existing fine level")
	}
	reg := &FluxRegister{ncomp: h.Cfg.NComp, ratio: h.Cfg.RefRatio, bounds: grid.Empty()}
	coarseDomain := h.Levels[li-1].Domain

	// Coarsened fine union, for coverage queries.
	for _, p := range h.Levels[li].Patches {
		cb := p.Box.Coarsen(reg.ratio)
		reg.cboxes = append(reg.cboxes, cb)
		reg.bounds = reg.bounds.Union(grid.NewBox(cb.Lo, cb.Hi.Add(grid.Unit)))
	}
	covered := func(c grid.IntVect) bool {
		for _, b := range reg.cboxes {
			if b.Contains(c) {
				return true
			}
		}
		return false
	}
	for d := range reg.slot {
		reg.slot[d] = make([]int32, reg.bounds.NumCells())
	}
	addFace := func(cell grid.IntVect, d int, out grid.IntVect, sign float64) {
		if !coarseDomain.Contains(out) || covered(out) {
			return // domain boundary or interior (fine-fine) face
		}
		reg.faces = append(reg.faces, cfFace{out: out, sign: sign})
		reg.slot[d][reg.bounds.Offset(cell)] = int32(len(reg.faces))
	}
	for _, cb := range reg.cboxes {
		for d := 0; d < 3; d++ {
			// Low-side faces: face index = cb.Lo along d; outside cell is
			// one below, and the face contributes −λF to it.
			loFace := grid.NewBox(cb.Lo, cb.Hi.WithComp(d, cb.Lo.Comp(d)))
			loFace.ForEach(func(q grid.IntVect) {
				addFace(q, d, q.WithComp(d, q.Comp(d)-1), -1)
			})
			// High-side faces: face index = cb.Hi+1 along d; outside cell
			// is the face's own index cell, contribution +λF.
			hiFace := grid.NewBox(cb.Lo.WithComp(d, cb.Hi.Comp(d)+1), cb.Hi.WithComp(d, cb.Hi.Comp(d)+1))
			hiFace.ForEach(func(q grid.IntVect) {
				addFace(q, d, q, +1)
			})
		}
	}
	n := len(reg.faces)
	reg.coarse, reg.fine = make([]float64, n*reg.ncomp), make([]float64, n*reg.ncomp)
	reg.hasCoarse, reg.hasFine = make([]bool, n), make([]bool, n)
	return reg
}

// Matches reports whether the face set still describes fine level li of h:
// it does until a regrid changes that level's boxes.
func (fr *FluxRegister) Matches(h *Hierarchy, li int) bool {
	if li > h.FinestLevel() || len(h.Levels[li].Patches) != len(fr.cboxes) {
		return false
	}
	for i, p := range h.Levels[li].Patches {
		if p.Box.Coarsen(fr.ratio) != fr.cboxes[i] {
			return false
		}
	}
	return true
}

// NumFaces returns the number of registered coarse–fine faces.
func (fr *FluxRegister) NumFaces() int { return len(fr.faces) }

// face returns the index of the registered face at cell along dir (coarse
// index space), or -1.
func (fr *FluxRegister) face(cell grid.IntVect, dir int) int {
	if !fr.bounds.Contains(cell) {
		return -1
	}
	return int(fr.slot[dir][fr.bounds.Offset(cell)]) - 1
}

// RecordCoarse stores the coarse solver's flux at a face (coarse index
// space). Faces that are not coarse–fine boundary faces are ignored, so the
// solver can call it unconditionally from its face sweep.
func (fr *FluxRegister) RecordCoarse(cell grid.IntVect, dir int, flux []float64) {
	i := fr.face(cell, dir)
	if i < 0 {
		return
	}
	copy(fr.coarse[i*fr.ncomp:(i+1)*fr.ncomp], flux)
	fr.hasCoarse[i] = true
}

// AccumFine accumulates a fine-level face flux (fine index space) onto its
// underlying coarse face, weighted by 1/r² (the area fraction; the solvers
// advance all levels with a shared dt). Fine faces that do not align with a
// registered coarse face are ignored.
func (fr *FluxRegister) AccumFine(cell grid.IntVect, dir int, flux []float64) {
	if mod(cell.Comp(dir), fr.ratio) != 0 {
		return // not aligned with a coarse face plane
	}
	i := fr.face(cell.Div(fr.ratio), dir)
	if i < 0 {
		return
	}
	w := 1.0 / float64(fr.ratio*fr.ratio)
	fp := fr.fine[i*fr.ncomp : (i+1)*fr.ncomp]
	for c := range fp {
		fp[c] += w * flux[c]
	}
	fr.hasFine[i] = true
}

func mod(a, b int) int {
	m := a % b
	if m < 0 {
		m += b
	}
	return m
}

// Reflux applies the correction ΔU = sign·λ·(<F_fine> − F_coarse) to the
// uncovered coarse cells, where λ = dt/dx on the coarse level, visiting
// faces in enumeration order. Faces that saw only one side's flux (should
// not happen in a full step) are skipped.
func (fr *FluxRegister) Reflux(coarse *Level, lambda float64) {
	for i, f := range fr.faces {
		if !fr.hasCoarse[i] || !fr.hasFine[i] {
			continue
		}
		fc, ff := fr.coarse[i*fr.ncomp:], fr.fine[i*fr.ncomp:]
		for _, p := range coarse.Patches {
			if !p.Box.Contains(f.out) {
				continue
			}
			for c := 0; c < fr.ncomp; c++ {
				p.Data.Add(f.out, c, f.sign*lambda*(ff[c]-fc[c]))
			}
			break
		}
	}
}

// Reset clears accumulated fluxes so the register can be reused for the
// next step (the face set is still valid until the next regrid).
func (fr *FluxRegister) Reset() {
	clear(fr.fine)
	clear(fr.hasCoarse)
	clear(fr.hasFine)
}
