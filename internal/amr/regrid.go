package amr

import (
	"math"

	"crosslayer/internal/field"
	"crosslayer/internal/grid"
)

// TagCells returns the cells of level li whose undivided gradient of
// component c exceeds thresh. The undivided difference
// max_d |u(i+e_d) - u(i-e_d)| is the standard Chombo-style refinement
// criterion for tracking steep features and shocks.
//
// The returned slice is the hierarchy's own and valid until the next
// TagCells call; a caller that keeps tags across calls copies them. Calls
// on one hierarchy must not overlap: they share its ghost scratch.
func (h *Hierarchy) TagCells(li, c int, thresh float64) []grid.IntVect {
	tags := h.tags[:0]
	for _, p := range h.Levels[li].Patches {
		g := h.fillGhost(&h.tagGhost, li, p, 1, c, 1, nil, 0)
		u, gsz := g.Comp(0), g.Box.Size()
		strides := [3]int{1, gsz.X, gsz.X * gsz.Y}
		for z := p.Box.Lo.Z; z <= p.Box.Hi.Z; z++ {
			for y := p.Box.Lo.Y; y <= p.Box.Hi.Y; y++ {
				o := g.Box.Offset(grid.IV(p.Box.Lo.X, y, z))
				for x := p.Box.Lo.X; x <= p.Box.Hi.X; x, o = x+1, o+1 {
					diff := 0.0
					for _, st := range strides {
						if a := math.Abs(u[o+st] - u[o-st]); a > diff {
							diff = a
						}
					}
					if diff > thresh {
						tags = append(tags, grid.IV(x, y, z))
					}
				}
			}
		}
	}
	h.tags = tags
	return tags
}

// Cluster groups tagged cells into boxes with fill ratio at least
// fillRatio, by recursive bisection in the spirit of Berger–Rigoutsos: the
// bounding box of the tags is accepted if efficient or small, otherwise it
// is split at the largest gap (or the midpoint of the longest axis) of the
// tag signature, and each side recurses.
//
// Cluster reorders tags: each split partitions them in place around the
// split plane. The boxes depend only on the set of tags, not their order.
func Cluster(tags []grid.IntVect, fillRatio float64, minSize int) []grid.Box {
	if len(tags) == 0 {
		return nil
	}
	bb := grid.BoxFromSize(tags[0], grid.Unit)
	for _, t := range tags[1:] {
		bb = bb.Union(grid.BoxFromSize(t, grid.Unit))
	}
	fill := float64(len(tags)) / float64(bb.NumCells())
	if fill >= fillRatio || bb.Size().MaxComp() <= minSize {
		return []grid.Box{bb}
	}

	// Signature along the longest axis: count of tags per plane. It lives
	// on the stack unless the axis is longer than sigBuf.
	d := bb.Size().MaxDim()
	n := bb.Size().Comp(d)
	var sigBuf [64]int
	var sig []int
	if n <= len(sigBuf) {
		sig = sigBuf[:n]
	} else {
		sig = make([]int, n)
	}
	for _, t := range tags {
		sig[t.Comp(d)-bb.Lo.Comp(d)]++
	}

	// Prefer splitting at a zero-signature gap nearest the middle;
	// otherwise split at the midpoint.
	split := -1
	bestDist := n
	for i := 1; i < n; i++ {
		if sig[i] == 0 {
			if dist := abs(i - n/2); dist < bestDist {
				split, bestDist = i, dist
			}
		}
	}
	if split < 0 {
		split = n / 2
	}
	at := bb.Lo.Comp(d) + split

	// Partition in place: tags[:lo] lie below the split plane.
	lo := 0
	for i, t := range tags {
		if t.Comp(d) < at {
			tags[i], tags[lo] = tags[lo], t
			lo++
		}
	}
	if lo == 0 || lo == len(tags) {
		// Degenerate split (all tags on one side of the midpoint): accept
		// the bounding box rather than recurse forever.
		return []grid.Box{bb}
	}
	return append(Cluster(tags[:lo], fillRatio, minSize), Cluster(tags[lo:], fillRatio, minSize)...)
}

func abs(v int) int {
	if v < 0 {
		return -v
	}
	return v
}

// Regrid rebuilds level li+1 from cells tagged on level li: tags are
// buffered, clustered into boxes, refined, clipped to the fine domain,
// made disjoint, chopped to MaxBoxSize, load-balanced, and filled with
// data prolonged from level li (and copied from the previous level li+1
// where it overlapped). Passing no tags removes level li+1 and any finer
// levels. Levels finer than li+1 are discarded (the driver regrids
// coarsest-first each regrid cycle).
func (h *Hierarchy) Regrid(li int, tags []grid.IntVect) {
	if li >= h.Cfg.MaxLevel {
		return
	}
	coarse := h.Levels[li]

	if len(tags) == 0 {
		h.Levels = h.Levels[:li+1]
		return
	}

	// Buffer tags by one cell so features cannot escape the refined region
	// between regrids, then cluster. A mask over the bounding box of the
	// buffered cells merges overlapping neighbourhoods; draining it row by
	// row lists each cell once, in domain order, and leaves it all false.
	near := func(t grid.IntVect) grid.Box {
		return grid.BoxFromSize(t, grid.Unit).Grow(1).Intersect(coarse.Domain)
	}
	bb := grid.Empty()
	for _, t := range tags {
		bb = bb.Union(near(t))
	}
	if n := int(bb.NumCells()); cap(h.tagMask) < n {
		h.tagMask = make([]bool, n)
	} else {
		h.tagMask = h.tagMask[:n]
	}
	for _, t := range tags {
		if b := near(t); !b.IsEmpty() {
			markRows(h.tagMask, bb, b)
		}
	}
	buffered := h.buffered[:0]
	for z := bb.Lo.Z; z <= bb.Hi.Z; z++ {
		for y := bb.Lo.Y; y <= bb.Hi.Y; y++ {
			o := bb.Offset(grid.IV(bb.Lo.X, y, z))
			for x := bb.Lo.X; x <= bb.Hi.X; x, o = x+1, o+1 {
				if h.tagMask[o] {
					h.tagMask[o] = false
					buffered = append(buffered, grid.IV(x, y, z))
				}
			}
		}
	}
	h.buffered = buffered
	boxes := Cluster(buffered, h.Cfg.FillRatio, 2)

	// Refine to the fine index space, clipping against the coarse patch
	// union so the new level is properly nested. Cluster boxes are mutually
	// disjoint (every recursion partitions tags by a plane) and coarse
	// patches are disjoint, so the clipped pieces are disjoint too.
	fineDomain := coarse.Domain.Refine(h.Cfg.RefRatio)
	var fineBoxes []grid.Box
	for _, b := range boxes {
		for _, cp := range coarse.Patches {
			part := b.Intersect(cp.Box)
			if part.IsEmpty() {
				continue
			}
			fb := part.Refine(h.Cfg.RefRatio)
			// Ratio-aligned chopping keeps every fine patch boundary on a
			// coarse face plane (restriction and flux registers rely on it).
			fineBoxes = append(fineBoxes, grid.DecomposeAligned(fb, h.Cfg.MaxBoxSize, h.Cfg.RefRatio)...)
		}
	}
	if len(fineBoxes) == 0 {
		h.Levels = h.Levels[:li+1]
		return
	}

	grid.MortonSort(fineBoxes)
	owners := grid.Assign(fineBoxes, h.Cfg.NRanks)

	// Prolong each fine box from the coarse patch it was cut from, the one
	// patch its coarsening lies in: ratio-aligned chopping keeps every
	// piece of a refined part inside that part's patch.
	fine := &Level{Domain: fineDomain}
	var old *Level
	if len(h.Levels) > li+1 {
		old = h.Levels[li+1]
	}
	for i, fb := range fineBoxes {
		cb := fb.Coarsen(h.Cfg.RefRatio)
		var src *Patch
		for _, cp := range coarse.Patches {
			if cp.Box.ContainsBox(cb) {
				src = cp
				break
			}
		}
		data := field.Prolong(src.Data, fb, h.Cfg.RefRatio)
		if old != nil {
			for _, op := range old.Patches {
				data.CopyFrom(op.Data)
			}
		}
		fine.Patches = append(fine.Patches, &Patch{Box: fb, Data: data, Owner: owners[i]})
	}

	h.Levels = append(h.Levels[:li+1], fine)
}
