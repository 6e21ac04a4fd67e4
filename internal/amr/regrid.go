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
func (h *Hierarchy) TagCells(li, c int, thresh float64) []grid.IntVect {
	var tags []grid.IntVect
	var scratch GhostScratch // one-component ghost fill, reshaped per patch
	for _, p := range h.Levels[li].Patches {
		g := h.fillGhost(&scratch, li, p, 1, c, 1, nil, 0)
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
	return tags
}

// Cluster groups tagged cells into boxes with fill ratio at least
// fillRatio, by recursive bisection in the spirit of Berger–Rigoutsos: the
// bounding box of the tags is accepted if efficient or small, otherwise it
// is split at the largest gap (or the midpoint of the longest axis) of the
// tag signature, and each side recurses.
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

	// Signature along the longest axis: count of tags per plane.
	d := bb.Size().MaxDim()
	n := bb.Size().Comp(d)
	sig := make([]int, n)
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

	var loTags, hiTags []grid.IntVect
	for _, t := range tags {
		if t.Comp(d) < at {
			loTags = append(loTags, t)
		} else {
			hiTags = append(hiTags, t)
		}
	}
	if len(loTags) == 0 || len(hiTags) == 0 {
		// Degenerate split (all tags on one side of the midpoint): accept
		// the bounding box rather than recurse forever.
		return []grid.Box{bb}
	}
	return append(Cluster(loTags, fillRatio, minSize), Cluster(hiTags, fillRatio, minSize)...)
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
	// between regrids, then cluster.
	seen := make(map[grid.IntVect]bool, len(tags)*4)
	for _, t := range tags {
		b := grid.BoxFromSize(t, grid.Unit).Grow(1).Intersect(coarse.Domain)
		b.ForEach(func(q grid.IntVect) { seen[q] = true })
	}
	buffered := make([]grid.IntVect, 0, len(seen))
	for q := range seen {
		buffered = append(buffered, q)
	}
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

	// Gather a coarse snapshot once to prolong from.
	fine := &Level{Domain: fineDomain}
	var old *Level
	if len(h.Levels) > li+1 {
		old = h.Levels[li+1]
	}
	for i, fb := range fineBoxes {
		cb := fb.Coarsen(h.Cfg.RefRatio).Grow(1).Intersect(coarse.Domain)
		cdata := field.New(cb, h.Cfg.NComp)
		for _, cp := range coarse.Patches {
			cdata.CopyFrom(cp.Data)
		}
		data := field.Prolong(cdata, fb, h.Cfg.RefRatio)
		if old != nil {
			for _, op := range old.Patches {
				data.CopyFrom(op.Data)
			}
		}
		fine.Patches = append(fine.Patches, &Patch{Box: fb, Data: data, Owner: owners[i]})
	}

	h.Levels = append(h.Levels[:li+1], fine)
}
