package amr

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"crosslayer/internal/field"
	"crosslayer/internal/grid"
)

// The closure-per-cell ghost fill and tagging this package shipped before
// its kernels became flat strided loops, kept as oracles: the kernels must
// reproduce them bit for bit.

func refBlend(h *Hierarchy, li int, oldCoarse []*field.BoxData, theta float64) func(*field.BoxData) {
	coarse := h.Levels[li-1]
	return func(cdata *field.BoxData) {
		for j, cp := range coarse.Patches {
			if !cp.Box.Intersects(cdata.Box) {
				continue
			}
			is := cp.Box.Intersect(cdata.Box)
			tmp := field.New(is, h.Cfg.NComp)
			tmp.CopyFrom(oldCoarse[j])
			for c := 0; c < h.Cfg.NComp; c++ {
				for i := range tmp.Comp(c) {
					tmp.Comp(c)[i] *= 1 - theta
				}
				tmp.Axpy(theta, cp.Data, c, c)
			}
			cdata.CopyFrom(tmp)
		}
	}
}

func refFillGhost(h *Hierarchy, li int, p *Patch, ng int, coarseFill func(*field.BoxData)) *field.BoxData {
	l := h.Levels[li]
	gb := p.Box.Grow(ng)
	out := field.New(gb, h.Cfg.NComp)
	filled := make([]bool, gb.NumCells())

	markCopied := func(src grid.Box) {
		is := gb.Intersect(src)
		is.ForEach(func(q grid.IntVect) { filled[gb.Offset(q)] = true })
	}
	for _, sp := range l.Patches {
		if sp.Box.Intersects(gb) {
			out.CopyFrom(sp.Data)
			markCopied(sp.Box)
		}
	}
	if h.Cfg.Periodic {
		ext := l.Domain.Size()
		for sz := -1; sz <= 1; sz++ {
			for sy := -1; sy <= 1; sy++ {
				for sx := -1; sx <= 1; sx++ {
					if sx == 0 && sy == 0 && sz == 0 {
						continue
					}
					shift := grid.IV(sx*ext.X, sy*ext.Y, sz*ext.Z)
					for _, sp := range l.Patches {
						sb := sp.Box.Shift(shift)
						if !sb.Intersects(gb) {
							continue
						}
						is := gb.Intersect(sb)
						is.ForEach(func(q grid.IntVect) {
							out.CopyCell(q, sp.Data, q.Sub(shift))
							filled[gb.Offset(q)] = true
						})
					}
				}
			}
		}
	}
	if li > 0 {
		r := h.Cfg.RefRatio
		coarse := h.Levels[li-1]
		cgb := gb.Coarsen(r)
		cdata := field.New(cgb, h.Cfg.NComp)
		if coarseFill != nil {
			coarseFill(cdata)
		} else {
			for _, cp := range coarse.Patches {
				cdata.CopyFrom(cp.Data)
			}
		}
		gb.ForEach(func(q grid.IntVect) {
			if filled[gb.Offset(q)] || !l.Domain.Contains(q) {
				return
			}
			cq := q.Div(r)
			for c := 0; c < h.Cfg.NComp; c++ {
				out.Set(q, c, cdata.Get(cq, c))
			}
			filled[gb.Offset(q)] = true
		})
	}
	gb.ForEach(func(q grid.IntVect) {
		if filled[gb.Offset(q)] {
			return
		}
		cq := q.Max(p.Box.Lo).Min(p.Box.Hi)
		for c := 0; c < h.Cfg.NComp; c++ {
			out.Set(q, c, out.Get(cq, c))
		}
	})
	return out
}

func refTagCells(h *Hierarchy, li, c int, thresh float64) []grid.IntVect {
	var tags []grid.IntVect
	for _, p := range h.Levels[li].Patches {
		g := refFillGhost(h, li, p, 1, nil)
		p.Box.ForEach(func(q grid.IntVect) {
			diff := 0.0
			for d := 0; d < 3; d++ {
				hi := g.Get(q.WithComp(d, q.Comp(d)+1), c)
				lo := g.Get(q.WithComp(d, q.Comp(d)-1), c)
				if a := math.Abs(hi - lo); a > diff {
					diff = a
				}
			}
			if diff > thresh {
				tags = append(tags, q)
			}
		})
	}
	return tags
}

// randomize fills every patch of h with seeded noise.
func randomize(h *Hierarchy, rng *rand.Rand) {
	for _, l := range h.Levels {
		for _, p := range l.Patches {
			for c := 0; c < p.Data.NComp; c++ {
				s := p.Data.Comp(c)
				for i := range s {
					s[i] = rng.NormFloat64()
				}
			}
		}
	}
}

// refHierarchy builds a non-cubic domain (so a stride mix-up cannot cancel)
// with, when fine is set, an L-shaped refined region: the coarse cell in
// the notch touches two coarse–fine faces and the fine level has several
// patches of different shapes, some abutting, some not. On a periodic
// domain the base patches all touch the domain boundary (the corner ones
// keep seven image shifts at ng=2) while most fine patches lie so far
// inside that every shift is pruned.
func refHierarchy(t *testing.T, periodic, fine bool, ncomp int) *Hierarchy {
	t.Helper()
	maxLevel := 0
	if fine {
		maxLevel = 1
	}
	h := NewHierarchy(Config{
		Domain:     grid.NewBox(grid.IV(0, 0, 0), grid.IV(19, 13, 9)),
		NComp:      ncomp,
		MaxLevel:   maxLevel,
		MaxBoxSize: 8,
		NRanks:     3,
		Periodic:   periodic,
		FillRatio:  0.95,
	})
	if fine {
		var tags []grid.IntVect
		add := func(b grid.Box) { b.ForEach(func(q grid.IntVect) { tags = append(tags, q) }) }
		add(grid.NewBox(grid.IV(0, 3, 2), grid.IV(11, 6, 6)))  // touches the low-x domain face
		add(grid.NewBox(grid.IV(7, 7, 2), grid.IV(11, 11, 6))) // the other arm of the L
		h.Regrid(0, tags)
		if h.FinestLevel() != 1 || len(h.Level(1).Patches) < 3 {
			t.Fatalf("setup: fine level has %d patches", len(h.Level(h.FinestLevel()).Patches))
		}
	}
	return h
}

func equalBits(a, b *field.BoxData) error {
	if a.Box != b.Box || a.NComp != b.NComp {
		return fmt.Errorf("shape %v×%d vs %v×%d", a.Box, a.NComp, b.Box, b.NComp)
	}
	for c := 0; c < a.NComp; c++ {
		ac, bc := a.Comp(c), b.Comp(c)
		for i := range ac {
			if math.Float64bits(ac[i]) != math.Float64bits(bc[i]) {
				return fmt.Errorf("comp %d cell %v: %v vs %v", c, a.Box.Cell(i), ac[i], bc[i])
			}
		}
	}
	return nil
}

// imageShifts counts the periodic shifts whose shifted domain meets gb:
// the image passes the ghost fill makes for a patch with ghost box gb.
func imageShifts(l *Level, gb grid.Box) int {
	ext, n := l.Domain.Size(), 0
	for sz := -1; sz <= 1; sz++ {
		for sy := -1; sy <= 1; sy++ {
			for sx := -1; sx <= 1; sx++ {
				shift := grid.IV(sx*ext.X, sy*ext.Y, sz*ext.Z)
				if shift != grid.Zero && gb.Intersects(l.Domain.Shift(shift)) {
					n++
				}
			}
		}
	}
	return n
}

func TestFillGhostMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	// passes counts the periodic ng=2 fills by image passes made: the
	// fills must include an interior patch (every shift pruned) and a
	// patch spanning a domain corner (seven shifts kept).
	passes := map[int]int{}
	for _, periodic := range []bool{false, true} {
		for _, fine := range []bool{false, true} {
			h := refHierarchy(t, periodic, fine, 3)
			randomize(h, rng)
			for li, l := range h.Levels {
				for _, ng := range []int{1, 2} {
					// One scratch across every patch of the level: shapes
					// differ, so each fill reshapes what the last one left.
					var scratch GhostScratch
					for pi, p := range l.Patches {
						if periodic && ng == 2 {
							passes[imageShifts(l, p.Box.Grow(ng))]++
						}
						want := refFillGhost(h, li, p, ng, nil)
						name := fmt.Sprintf("periodic=%v level=%d ng=%d patch=%d", periodic, li, ng, pi)
						if err := equalBits(h.FillGhostInto(&GhostScratch{}, li, p, ng, nil, 0), want); err != nil {
							t.Errorf("%s: FillGhostInto on a fresh scratch: %v", name, err)
						}
						if err := equalBits(h.FillGhostInto(&scratch, li, p, ng, nil, 0), want); err != nil {
							t.Errorf("%s: FillGhostInto on a reused scratch: %v", name, err)
						}
					}
				}
			}
		}
	}
	if passes[0] == 0 || passes[7] == 0 {
		t.Errorf("periodic ng=2 fills by image passes made: %v; want an interior patch (0) and a corner patch (7)", passes)
	}
}

func TestFillGhostBlendedMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, periodic := range []bool{false, true} {
		h := refHierarchy(t, periodic, true, 2)
		randomize(h, rng)
		var old []*field.BoxData
		for _, p := range h.Level(0).Patches {
			old = append(old, p.Data.Clone())
		}
		randomize(h, rng)
		for _, theta := range []float64{0, 0.5, 1} {
			for _, ng := range []int{1, 2} {
				var scratch GhostScratch
				for pi, p := range h.Level(1).Patches {
					want := refFillGhost(h, 1, p, ng, refBlend(h, 1, old, theta))
					name := fmt.Sprintf("periodic=%v theta=%v ng=%d patch=%d", periodic, theta, ng, pi)
					if err := equalBits(h.FillGhostInto(&GhostScratch{}, 1, p, ng, old, theta), want); err != nil {
						t.Errorf("%s: fresh scratch: %v", name, err)
					}
					if err := equalBits(h.FillGhostInto(&scratch, 1, p, ng, old, theta), want); err != nil {
						t.Errorf("%s: reused scratch: %v", name, err)
					}
				}
			}
		}
	}
}

// TestTagCellsReusesScratch tags every level of a hierarchy twice: the
// second pass finds the ghost scratch and the tag slice the first one
// sized, and allocates nothing.
func TestTagCellsReusesScratch(t *testing.T) {
	h := refHierarchy(t, true, true, 2)
	randomize(h, rand.New(rand.NewSource(23)))
	tagged := 0
	tagAll := func() {
		tagged = 0
		for li := range h.Levels {
			tagged += len(h.TagCells(li, 1, 1.5))
		}
	}
	tagAll()
	if allocs := testing.AllocsPerRun(5, tagAll); allocs != 0 {
		t.Errorf("repeated TagCells allocated %v times a pass; want 0", allocs)
	}
	if tagged == 0 {
		t.Fatal("setup: nothing tagged")
	}
}

func TestTagCellsMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for _, periodic := range []bool{false, true} {
		h := refHierarchy(t, periodic, true, 3)
		randomize(h, rng)
		for li := range h.Levels {
			for c := 0; c < 3; c++ {
				got, want := h.TagCells(li, c, 1.5), refTagCells(h, li, c, 1.5)
				if len(want) == 0 || len(got) != len(want) {
					t.Fatalf("periodic=%v level=%d comp=%d: %d tags, reference %d", periodic, li, c, len(got), len(want))
				}
				for i := range want {
					if got[i] != want[i] {
						t.Fatalf("periodic=%v level=%d comp=%d: tag %d is %v, reference %v", periodic, li, c, i, got[i], want[i])
					}
				}
			}
		}
	}
}

// refCluster and refRegrid are the clustering and regrid this package
// shipped before Regrid kept its working memory on the Hierarchy: tags
// buffered through a map, a signature and two tag copies per bisection,
// and a fresh coarse snapshot per fine box. Regrid must reproduce them bit
// for bit.

func refCluster(tags []grid.IntVect, fillRatio float64, minSize int) []grid.Box {
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
	d := bb.Size().MaxDim()
	n := bb.Size().Comp(d)
	sig := make([]int, n)
	for _, t := range tags {
		sig[t.Comp(d)-bb.Lo.Comp(d)]++
	}
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
		return []grid.Box{bb}
	}
	return append(refCluster(loTags, fillRatio, minSize), refCluster(hiTags, fillRatio, minSize)...)
}

func refRegrid(h *Hierarchy, li int, tags []grid.IntVect) {
	if li >= h.Cfg.MaxLevel {
		return
	}
	coarse := h.Levels[li]
	if len(tags) == 0 {
		h.Levels = h.Levels[:li+1]
		return
	}
	seen := make(map[grid.IntVect]bool, len(tags)*4)
	for _, t := range tags {
		b := grid.BoxFromSize(t, grid.Unit).Grow(1).Intersect(coarse.Domain)
		b.ForEach(func(q grid.IntVect) { seen[q] = true })
	}
	buffered := make([]grid.IntVect, 0, len(seen))
	for q := range seen {
		buffered = append(buffered, q)
	}
	boxes := refCluster(buffered, h.Cfg.FillRatio, 2)
	fineDomain := coarse.Domain.Refine(h.Cfg.RefRatio)
	var fineBoxes []grid.Box
	for _, b := range boxes {
		for _, cp := range coarse.Patches {
			part := b.Intersect(cp.Box)
			if part.IsEmpty() {
				continue
			}
			fb := part.Refine(h.Cfg.RefRatio)
			fineBoxes = append(fineBoxes, grid.DecomposeAligned(fb, h.Cfg.MaxBoxSize, h.Cfg.RefRatio)...)
		}
	}
	if len(fineBoxes) == 0 {
		h.Levels = h.Levels[:li+1]
		return
	}
	grid.MortonSort(fineBoxes)
	owners := grid.Assign(fineBoxes, h.Cfg.NRanks)
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

// setBumps fills every level of h with a sharp spherical bump centred at
// c (base-level coordinates), at the level's own resolution, so each level
// tags a shell around it.
func setBumps(h *Hierarchy, c [3]float64) {
	scale := 1.0
	for _, l := range h.Levels {
		for _, p := range l.Patches {
			p.Box.ForEach(func(q grid.IntVect) {
				dx, dy, dz := (float64(q.X)+0.5)/scale-c[0], (float64(q.Y)+0.5)/scale-c[1], (float64(q.Z)+0.5)/scale-c[2]
				for comp := 0; comp < p.Data.NComp; comp++ {
					p.Data.Set(q, comp, float64(comp+1)*math.Exp(-(dx*dx+dy*dy+dz*dz)/8))
				}
			})
		}
		scale *= float64(h.Cfg.RefRatio)
	}
}

func sameHierarchy(got, want *Hierarchy) error {
	if len(got.Levels) != len(want.Levels) {
		return fmt.Errorf("%d levels, reference %d", len(got.Levels), len(want.Levels))
	}
	for li := range want.Levels {
		gl, wl := got.Levels[li], want.Levels[li]
		if gl.Domain != wl.Domain || len(gl.Patches) != len(wl.Patches) {
			return fmt.Errorf("level %d: domain %v with %d patches, reference %v with %d", li, gl.Domain, len(gl.Patches), wl.Domain, len(wl.Patches))
		}
		for pi, wp := range wl.Patches {
			gp := gl.Patches[pi]
			if gp.Box != wp.Box || gp.Owner != wp.Owner {
				return fmt.Errorf("level %d patch %d: %v on rank %d, reference %v on rank %d", li, pi, gp.Box, gp.Owner, wp.Box, wp.Owner)
			}
			if err := equalBits(gp.Data, wp.Data); err != nil {
				return fmt.Errorf("level %d patch %d: %v", li, pi, err)
			}
		}
	}
	return nil
}

// sourcePatches counts the patches of level li that the patches of level
// li+1 were cut from: those their coarsenings lie in.
func sourcePatches(h *Hierarchy, li int) int {
	sources := map[*Patch]bool{}
	for _, fp := range h.Levels[li+1].Patches {
		cb := fp.Box.Coarsen(h.Cfg.RefRatio)
		for _, cp := range h.Levels[li].Patches {
			if cp.Box.ContainsBox(cb) {
				sources[cp] = true
			}
		}
	}
	return len(sources)
}

// TestRegridMatchesReference regrids level 0 and then level 1 around a
// seeded moving bump, periodic and not, several rounds on one hierarchy,
// so later regrids run on the buffers earlier ones left (a larger or
// smaller tag box, an old fine level to copy from). Some round must cut
// its fine level from several coarse patches, so each fine box has to be
// prolonged from its own one.
func TestRegridMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for _, periodic := range []bool{false, true} {
		cfg := testCfg()
		cfg.NComp = 2
		cfg.Periodic = periodic
		got, want := NewHierarchy(cfg), NewHierarchy(cfg)
		regridded := map[int]bool{}
		mostSources := 0
		for round := 0; round < 4; round++ {
			c := [3]float64{4 + 24*rng.Float64(), 4 + 24*rng.Float64(), 4 + 24*rng.Float64()}
			setBumps(got, c)
			setBumps(want, c)
			for li := 0; li < cfg.MaxLevel && li <= want.FinestLevel(); li++ {
				thresh := 0.05 / float64(int(1)<<li)
				tags := got.TagCells(li, 1, thresh)
				got.Regrid(li, tags)
				refRegrid(want, li, want.TagCells(li, 1, thresh))
				if err := sameHierarchy(got, want); err != nil {
					t.Fatalf("periodic=%v round %d, regrid of level %d (%d tags): %v", periodic, round, li, len(tags), err)
				}
				if len(tags) > 0 {
					regridded[li] = true
				}
				if got.FinestLevel() > li {
					mostSources = max(mostSources, sourcePatches(got, li))
				}
			}
		}
		if !regridded[0] || !regridded[1] {
			t.Errorf("periodic=%v: regridded levels %v; want 0 and 1", periodic, regridded)
		}
		if mostSources < 2 {
			t.Errorf("periodic=%v: every fine level was cut from %d coarse patch(es); want one cut from two or more", periodic, mostSources)
		}
	}
}

// TestClusterIgnoresTagOrder clusters seeded shuffles of the buffered tags
// of a bump: Cluster reorders its argument, and its boxes must not depend
// on the order it was given.
func TestClusterIgnoresTagOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	h := NewHierarchy(testCfg())
	setBumps(h, [3]float64{13.5, 17.25, 15})
	var tags []grid.IntVect
	seen := map[grid.IntVect]bool{}
	for _, tag := range h.TagCells(0, 0, 0.05) {
		grid.BoxFromSize(tag, grid.Unit).Grow(1).Intersect(h.Cfg.Domain).ForEach(func(q grid.IntVect) {
			if !seen[q] {
				seen[q] = true
				tags = append(tags, q)
			}
		})
	}
	want := refCluster(tags, 0.7, 2)
	if len(want) < 2 {
		t.Fatalf("setup: %d tags cluster into %d box(es); want a split", len(tags), len(want))
	}
	for trial := 0; trial < 8; trial++ {
		shuffled := append([]grid.IntVect(nil), tags...)
		rng.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
		got := Cluster(shuffled, 0.7, 2)
		if len(got) != len(want) {
			t.Fatalf("trial %d: %d boxes, reference %d", trial, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("trial %d: box %d is %v, reference %v", trial, i, got[i], want[i])
			}
		}
	}
}
