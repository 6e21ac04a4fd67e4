package amr

import (
	"math"
	"testing"

	"crosslayer/internal/field"
	"crosslayer/internal/grid"
)

// blendSetup builds a two-level hierarchy with distinct "old" and "new"
// coarse states for blended ghost-fill testing.
func blendSetup(t *testing.T) (*Hierarchy, []*field.BoxData) {
	t.Helper()
	h := NewHierarchy(Config{
		Domain:     grid.NewBox(grid.IV(0, 0, 0), grid.IV(15, 15, 15)),
		NComp:      1,
		MaxLevel:   1,
		RefRatio:   2,
		MaxBoxSize: 8,
		NRanks:     2,
	})
	for _, p := range h.Level(0).Patches {
		p.Data.FillAll(10) // old state
	}
	var tags []grid.IntVect
	grid.NewBox(grid.IV(6, 6, 6), grid.IV(9, 9, 9)).ForEach(func(q grid.IntVect) {
		tags = append(tags, q)
	})
	h.Regrid(0, tags)
	if h.FinestLevel() != 1 {
		t.Fatal("setup: no fine level")
	}
	// Snapshot the "old" coarse state, then advance coarse to a new state.
	var old []*field.BoxData
	for _, p := range h.Level(0).Patches {
		old = append(old, p.Data.Clone())
		p.Data.FillAll(30) // new state
	}
	return h, old
}

// ghostCellOutsideFine returns a ghost cell of patch p that is outside the
// fine level (so it must be coarse-interpolated).
func ghostCellOutsideFine(h *Hierarchy, p *Patch, ng int) (grid.IntVect, bool) {
	gb := p.Box.Grow(ng)
	found := grid.IV(0, 0, 0)
	ok := false
	gb.ForEach(func(q grid.IntVect) {
		if ok || p.Box.Contains(q) || !h.Level(1).Domain.Contains(q) {
			return
		}
		for _, fp := range h.Level(1).Patches {
			if fp.Box.Contains(q) {
				return
			}
		}
		found, ok = q, true
	})
	return found, ok
}

func TestFillGhostBlendedEndpoints(t *testing.T) {
	h, old := blendSetup(t)
	p := h.Level(1).Patches[0]
	q, ok := ghostCellOutsideFine(h, p, 2)
	if !ok {
		t.Skip("no coarse-interpolated ghost cell for this layout")
	}
	// θ=0 must reproduce the old coarse state, θ=1 the new one, θ=0.5 the
	// midpoint.
	cases := []struct {
		theta float64
		want  float64
	}{{0, 10}, {1, 30}, {0.5, 20}}
	for _, c := range cases {
		g := h.FillGhostInto(&GhostScratch{}, 1, p, 2, old, c.theta)
		if got := g.Get(q, 0); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("theta=%v: ghost at %v = %v, want %v", c.theta, q, got, c.want)
		}
	}
}

func TestFillGhostBlendedInteriorUntouched(t *testing.T) {
	h, old := blendSetup(t)
	p := h.Level(1).Patches[0]
	p.Data.FillAll(7)
	g := h.FillGhostInto(&GhostScratch{}, 1, p, 1, old, 0.25)
	p.Box.ForEach(func(q grid.IntVect) {
		if g.Get(q, 0) != 7 {
			t.Fatalf("interior value changed at %v", q)
		}
	})
}

func TestFillGhostBlendedLevelZeroFallsBack(t *testing.T) {
	h, old := blendSetup(t)
	p := h.Level(0).Patches[0]
	g := h.FillGhostInto(&GhostScratch{}, 0, p, 1, old, 0.5)
	// Level 0 has no coarser level; the blend must change nothing.
	ref := h.FillGhostInto(&GhostScratch{}, 0, p, 1, nil, 0)
	if !g.Equal(ref) {
		t.Error("level-0 blended fill differs from plain fill")
	}
}

func TestFillGhostBlendedValidatesSnapshot(t *testing.T) {
	h, _ := blendSetup(t)
	p := h.Level(1).Patches[0]
	defer func() {
		if recover() == nil {
			t.Error("mismatched snapshot should panic")
		}
	}()
	h.FillGhostInto(&GhostScratch{}, 1, p, 1, []*field.BoxData{}, 0.5)
}
