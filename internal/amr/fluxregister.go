package amr

import (
	"sync"

	"crosslayer/internal/grid"
)

// FluxRegister implements Berger–Colella refluxing for one coarse–fine
// level pair: it records the coarse fluxes crossing the fine level's
// boundary and accumulates the area-averaged fine fluxes crossing the same
// faces, so that after both levels advance, the coarse cells just outside
// the fine region can be corrected to have used the (more accurate) fine
// fluxes. With refluxing plus AverageDown, a conservative solver conserves
// its invariants on the composite grid exactly, not just per level.
//
// Face convention: the face with index i along direction d separates cells
// i-1 and i; a face key holds the face's cell-i coordinate. All keys are in
// the coarse level's index space.
type FluxRegister struct {
	ncomp int
	ratio int

	mu     sync.Mutex
	coarse map[FaceKey][]float64 // flux the coarse solver used
	fine   map[FaceKey][]float64 // average of the fine fluxes (accumulated)
	out    map[FaceKey]cfSide    // which coarse cell the correction lands on
	order  []FaceKey             // registered faces in enumeration order (fine patch, direction, low then high side, row-major)
}

// FaceKey identifies a coarse face: the face at index Cell along Dir
// (between Cell-1 and Cell).
type FaceKey struct {
	Cell grid.IntVect
	Dir  int
}

// cfSide records the uncovered coarse cell adjacent to a coarse–fine face
// and the sign with which the face's flux enters that cell's update.
type cfSide struct {
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
	r := h.Cfg.RefRatio
	fine := h.Levels[li]
	coarseDomain := h.Levels[li-1].Domain

	// Coarsened fine union, for coverage queries.
	var cboxes []grid.Box
	for _, p := range fine.Patches {
		cboxes = append(cboxes, p.Box.Coarsen(r))
	}
	covered := func(c grid.IntVect) bool {
		for _, b := range cboxes {
			if b.Contains(c) {
				return true
			}
		}
		return false
	}

	reg := &FluxRegister{
		ncomp:  h.Cfg.NComp,
		ratio:  r,
		coarse: make(map[FaceKey][]float64),
		fine:   make(map[FaceKey][]float64),
		out:    make(map[FaceKey]cfSide),
	}
	addFace := func(key FaceKey, out grid.IntVect, sign float64) {
		if !coarseDomain.Contains(out) || covered(out) {
			return // domain boundary or interior (fine-fine) face
		}
		reg.out[key] = cfSide{out: out, sign: sign}
		reg.order = append(reg.order, key)
	}
	for _, cb := range cboxes {
		for d := 0; d < 3; d++ {
			// Low-side faces: face index = cb.Lo along d; outside cell is
			// one below, and the face contributes −λF to it.
			loFace := grid.NewBox(cb.Lo, cb.Hi.WithComp(d, cb.Lo.Comp(d)))
			loFace.ForEach(func(q grid.IntVect) {
				key := FaceKey{Cell: q, Dir: d}
				addFace(key, q.WithComp(d, q.Comp(d)-1), -1)
			})
			// High-side faces: face index = cb.Hi+1 along d; outside cell
			// is the face's own index cell, contribution +λF.
			hiFace := grid.NewBox(cb.Lo.WithComp(d, cb.Hi.Comp(d)+1), cb.Hi.WithComp(d, cb.Hi.Comp(d)+1))
			hiFace.ForEach(func(q grid.IntVect) {
				key := FaceKey{Cell: q, Dir: d}
				addFace(key, q, +1)
			})
		}
	}
	return reg
}

// NumFaces returns the number of registered coarse–fine faces.
func (fr *FluxRegister) NumFaces() int { return len(fr.out) }

// RecordCoarse stores the coarse solver's flux at a face (coarse index
// space). Faces that are not coarse–fine boundary faces are ignored, so the
// solver can call it unconditionally from its face sweep.
func (fr *FluxRegister) RecordCoarse(cell grid.IntVect, dir int, flux []float64) {
	key := FaceKey{Cell: cell, Dir: dir}
	if _, ok := fr.out[key]; !ok {
		return
	}
	fr.mu.Lock()
	defer fr.mu.Unlock()
	cp := fr.coarse[key]
	if cp == nil {
		cp = make([]float64, fr.ncomp)
		fr.coarse[key] = cp
	}
	copy(cp, flux)
}

// AccumFine accumulates a fine-level face flux (fine index space) onto its
// underlying coarse face, weighted by 1/r² (the area fraction; the solvers
// advance all levels with a shared dt). Fine faces that do not align with a
// registered coarse face are ignored.
func (fr *FluxRegister) AccumFine(cell grid.IntVect, dir int, flux []float64) {
	if mod(cell.Comp(dir), fr.ratio) != 0 {
		return // not aligned with a coarse face plane
	}
	key := FaceKey{Cell: cell.Div(fr.ratio), Dir: dir}
	if _, ok := fr.out[key]; !ok {
		return
	}
	w := 1.0 / float64(fr.ratio*fr.ratio)
	fr.mu.Lock()
	defer fr.mu.Unlock()
	fp := fr.fine[key]
	if fp == nil {
		fp = make([]float64, fr.ncomp)
		fr.fine[key] = fp
	}
	for c := range fp {
		fp[c] += w * flux[c]
	}
}

func mod(a, b int) int {
	m := a % b
	if m < 0 {
		m += b
	}
	return m
}

// Reflux applies the correction ΔU = sign·λ·(<F_fine> − F_coarse) to the
// uncovered coarse cells, where λ = dt/dx on the coarse level. Faces that
// saw only one side's flux (should not happen in a full step) are skipped.
// Faces are visited in registration order, a function of the hierarchy
// only: a coarse cell touching two coarse–fine faces receives its two
// corrections in the same order on every run.
func (fr *FluxRegister) Reflux(coarse *Level, lambda float64) {
	fr.mu.Lock()
	defer fr.mu.Unlock()
	for _, key := range fr.order {
		side := fr.out[key]
		fc, okC := fr.coarse[key]
		ff, okF := fr.fine[key]
		if !okC || !okF {
			continue
		}
		for _, p := range coarse.Patches {
			if !p.Box.Contains(side.out) {
				continue
			}
			for c := 0; c < fr.ncomp; c++ {
				p.Data.Add(side.out, c, side.sign*lambda*(ff[c]-fc[c]))
			}
			break
		}
	}
}

// Reset clears accumulated fluxes so the register can be reused for the
// next step (the face set is still valid until the next regrid).
func (fr *FluxRegister) Reset() {
	fr.mu.Lock()
	defer fr.mu.Unlock()
	fr.coarse = make(map[FaceKey][]float64)
	fr.fine = make(map[FaceKey][]float64)
}
