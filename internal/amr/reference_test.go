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
						if err := equalBits(h.FillGhost(li, p, ng), want); err != nil {
							t.Errorf("%s: FillGhost: %v", name, err)
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
					if err := equalBits(h.FillGhostBlended(1, p, ng, old, theta), want); err != nil {
						t.Errorf("%s: %v", name, err)
					}
					if err := equalBits(h.FillGhostInto(&scratch, 1, p, ng, old, theta), want); err != nil {
						t.Errorf("%s: reused scratch: %v", name, err)
					}
				}
			}
		}
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
