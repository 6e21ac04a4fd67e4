package amr

import (
	"crosslayer/internal/field"
	"crosslayer/internal/grid"
)

// GhostScratch holds the buffers of one ghost fill. A caller keeps one per
// goroutine that fills and passes it to FillGhostInto; every fill reshapes
// the buffers to the patch it is given and rewrites all of them, so one
// scratch serves patches of any shape and is safe to reuse across a
// regrid. The zero value is ready to use.
type GhostScratch struct {
	data   *field.BoxData // the ghost-extended patch
	coarse *field.BoxData // coarse level gathered under the ghost box
	filled []bool         // per ghost-box cell: already has its value
}

// FillGhostInto returns patch data extended by ng ghost cells, written
// into s's buffers, filled in priority order from (1) same-level patches,
// including periodic images when the domain is periodic, (2) the next
// coarser level by piecewise-constant interpolation, and (3) for
// non-periodic domains, clamped extrapolation of the nearest interior cell
// (outflow boundary). The result covers p.Box.Grow(ng), its interior equals
// p.Data, and it is owned by s and valid until s is filled again.
//
// A non-nil oldCoarse replaces the coarse source by a time blend: ghost
// cells interpolated from the coarse level use
// (1−theta)·oldCoarse[j] + theta·current for each coarse patch j. This is
// the coarse-ghost interpolation Berger–Oliger subcycling needs: a fine
// substep at time t within a coarse step [T, T+Δ] fills its coarse ghosts
// at theta = (t−T)/Δ. oldCoarse must parallel the coarse level's patches
// (a snapshot taken before the coarse level advanced); level 0 has no
// coarse level and ignores it.
func (h *Hierarchy) FillGhostInto(s *GhostScratch, li int, p *Patch, ng int, oldCoarse []*field.BoxData, theta float64) *field.BoxData {
	if oldCoarse != nil && li > 0 && len(oldCoarse) != len(h.Levels[li-1].Patches) {
		panic("amr: FillGhostInto snapshot does not match the coarse level")
	}
	return h.fillGhost(s, li, p, ng, 0, h.Cfg.NComp, oldCoarse, theta)
}

// fillGhost fills components [c0, c0+nc) of the ghost-extended patch. All
// copying is by rows of the x-fastest layout; nothing is done per cell
// except the two fallback fills, which touch only cells no patch covers.
func (h *Hierarchy) fillGhost(s *GhostScratch, li int, p *Patch, ng, c0, nc int, oldCoarse []*field.BoxData, theta float64) *field.BoxData {
	l := h.Levels[li]
	gb := p.Box.Grow(ng)
	out := field.Sized(s.data, gb, nc)
	s.data = out
	if n := int(gb.NumCells()); cap(s.filled) < n {
		s.filled = make([]bool, n)
	} else {
		s.filled = s.filled[:n]
		clear(s.filled)
	}
	filled := s.filled
	copyRows := func(sp *Patch, shift grid.IntVect) {
		if is := gb.Intersect(sp.Box.Shift(shift)); !is.IsEmpty() {
			out.CopyRegion(sp.Data, is, shift, 0, c0, nc)
			markRows(filled, gb, is)
		}
	}

	// (1) same-level copies.
	for _, sp := range l.Patches {
		copyRows(sp, grid.Zero)
	}

	// (1b) periodic images: copy each patch shifted by all non-zero
	// combinations of the domain extent. Every image under a shift lies in
	// the shifted domain, so a shift whose domain misses the ghost box
	// copies nothing and is skipped: an interior patch makes no image pass,
	// a face patch one, a corner patch seven.
	if h.Cfg.Periodic {
		ext := l.Domain.Size()
		for sz := -1; sz <= 1; sz++ {
			for sy := -1; sy <= 1; sy++ {
				for sx := -1; sx <= 1; sx++ {
					if sx == 0 && sy == 0 && sz == 0 {
						continue
					}
					shift := grid.IV(sx*ext.X, sy*ext.Y, sz*ext.Z)
					if !gb.Intersects(l.Domain.Shift(shift)) {
						continue
					}
					for _, sp := range l.Patches {
						copyRows(sp, shift)
					}
				}
			}
		}
	}

	// (2) coarse interpolation for unfilled in-domain cells.
	if li > 0 {
		r := h.Cfg.RefRatio
		cgb := gb.Coarsen(r)
		cdata := field.Sized(s.coarse, cgb, nc)
		s.coarse = cdata
		cdata.FillAll(0) // cells under no coarse patch read as zero
		for j, cp := range h.Levels[li-1].Patches {
			is := cgb.Intersect(cp.Box)
			if is.IsEmpty() {
				continue
			}
			if oldCoarse == nil {
				cdata.CopyRegion(cp.Data, is, grid.Zero, 0, c0, nc)
				continue
			}
			cdata.CopyRegion(oldCoarse[j], is, grid.Zero, 0, c0, nc)
			nx := is.Size().X
			for c := 0; c < nc; c++ {
				cd, cur := cdata.Comp(c), cp.Data.Comp(c0+c)
				for z := is.Lo.Z; z <= is.Hi.Z; z++ {
					for y := is.Lo.Y; y <= is.Hi.Y; y++ {
						o, so := cgb.Offset(grid.IV(is.Lo.X, y, z)), cp.Box.Offset(grid.IV(is.Lo.X, y, z))
						for i := 0; i < nx; i++ {
							cd[o+i] = cd[o+i]*(1-theta) + theta*cur[so+i]
						}
					}
				}
			}
		}
		dom := gb.Intersect(l.Domain)
		for c := 0; c < nc; c++ {
			oc, cc := out.Comp(c), cdata.Comp(c)
			for z := dom.Lo.Z; z <= dom.Hi.Z; z++ {
				for y := dom.Lo.Y; y <= dom.Hi.Y; y++ {
					// co walks the coarse row under this fine row; sub is
					// the fine cell's position inside its coarse cell.
					first := grid.IV(dom.Lo.X, y, z).Div(r)
					co, sub := cgb.Offset(first), dom.Lo.X-first.X*r
					o := gb.Offset(grid.IV(dom.Lo.X, y, z))
					for x := dom.Lo.X; x <= dom.Hi.X; x, o = x+1, o+1 {
						if !filled[o] {
							oc[o] = cc[co]
						}
						if sub++; sub == r {
							sub, co = 0, co+1
						}
					}
				}
			}
		}
		markRows(filled, gb, dom)
	}

	// (3) clamped extrapolation for anything left (out-of-domain cells of
	// non-periodic problems, or corner cells with no periodic image).
	for c := 0; c < nc; c++ {
		oc := out.Comp(c)
		for z := gb.Lo.Z; z <= gb.Hi.Z; z++ {
			for y := gb.Lo.Y; y <= gb.Hi.Y; y++ {
				o := gb.Offset(grid.IV(gb.Lo.X, y, z))
				src := gb.Offset(grid.IV(gb.Lo.X, min(max(y, p.Box.Lo.Y), p.Box.Hi.Y), min(max(z, p.Box.Lo.Z), p.Box.Hi.Z))) - gb.Lo.X
				for x := gb.Lo.X; x <= gb.Hi.X; x, o = x+1, o+1 {
					if !filled[o] {
						oc[o] = oc[src+min(max(x, p.Box.Lo.X), p.Box.Hi.X)]
					}
				}
			}
		}
	}
	return out
}

// markRows sets filled over region, a sub-box of gb, one row at a time.
func markRows(filled []bool, gb, region grid.Box) {
	nx := region.Size().X
	for z := region.Lo.Z; z <= region.Hi.Z; z++ {
		for y := region.Lo.Y; y <= region.Hi.Y; y++ {
			o := gb.Offset(grid.IV(region.Lo.X, y, z))
			row := filled[o : o+nx]
			for i := range row {
				row[i] = true
			}
		}
	}
}
