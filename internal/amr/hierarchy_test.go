package amr

import (
	"math"
	"testing"

	"crosslayer/internal/grid"
)

func testCfg() Config {
	return Config{
		Domain:     grid.NewBox(grid.IV(0, 0, 0), grid.IV(31, 31, 31)),
		NComp:      1,
		MaxLevel:   2,
		RefRatio:   2,
		MaxBoxSize: 16,
		NRanks:     4,
	}
}

func TestNewHierarchyCoversDomain(t *testing.T) {
	h := NewHierarchy(testCfg())
	if h.FinestLevel() != 0 {
		t.Fatalf("FinestLevel = %d", h.FinestLevel())
	}
	base := h.Level(0)
	if base.NumCells() != h.Cfg.Domain.NumCells() {
		t.Errorf("base covers %d cells, want %d", base.NumCells(), h.Cfg.Domain.NumCells())
	}
	if err := h.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	for _, p := range base.Patches {
		if p.Box.Size().MaxComp() > h.Cfg.MaxBoxSize {
			t.Errorf("patch %v exceeds MaxBoxSize", p.Box)
		}
	}
}

func TestNewHierarchyBalances(t *testing.T) {
	h := NewHierarchy(testCfg())
	cells := h.CellsPerRank()
	ideal := float64(h.Cfg.Domain.NumCells()) / float64(h.Cfg.NRanks)
	for r, c := range cells {
		if float64(c) < 0.5*ideal || float64(c) > 1.5*ideal {
			t.Errorf("rank %d has %d cells, ideal %.0f", r, c, ideal)
		}
	}
}

func TestBytesAccounting(t *testing.T) {
	h := NewHierarchy(testCfg())
	want := h.Cfg.Domain.NumCells() * 8 // 1 comp, float64
	if got := h.TotalBytes(); got != want {
		t.Errorf("TotalBytes = %d, want %d", got, want)
	}
	var sum int64
	for _, b := range h.BytesPerRank() {
		sum += b
	}
	if sum != want {
		t.Errorf("BytesPerRank sums to %d, want %d", sum, want)
	}
}

// setRadialBump fills level 0 with a sharp spherical bump centered at c.
func setRadialBump(h *Hierarchy, cx, cy, cz float64) {
	for _, p := range h.Level(0).Patches {
		p.Box.ForEach(func(q grid.IntVect) {
			dx, dy, dz := float64(q.X)-cx, float64(q.Y)-cy, float64(q.Z)-cz
			r := math.Sqrt(dx*dx + dy*dy + dz*dz)
			p.Data.Set(q, 0, math.Exp(-r*r/8))
		})
	}
}

func TestTagCellsFindsFeature(t *testing.T) {
	h := NewHierarchy(testCfg())
	setRadialBump(h, 16, 16, 16)
	tags := h.TagCells(0, 0, 0.05)
	if len(tags) == 0 {
		t.Fatal("no tags on a sharp bump")
	}
	for _, tag := range tags {
		d := math.Sqrt(float64((tag.X-16)*(tag.X-16) + (tag.Y-16)*(tag.Y-16) + (tag.Z-16)*(tag.Z-16)))
		if d > 12 {
			t.Errorf("tag %v far from feature (d=%.1f)", tag, d)
		}
	}
}

func TestTagCellsFlatFieldEmpty(t *testing.T) {
	h := NewHierarchy(testCfg())
	for _, p := range h.Level(0).Patches {
		p.Data.FillAll(1)
	}
	if tags := h.TagCells(0, 0, 1e-6); len(tags) != 0 {
		t.Errorf("flat field produced %d tags", len(tags))
	}
}

func TestClusterCoversTags(t *testing.T) {
	tags := []grid.IntVect{
		grid.IV(1, 1, 1), grid.IV(2, 1, 1), grid.IV(2, 2, 1),
		grid.IV(20, 20, 20), grid.IV(21, 20, 20),
	}
	boxes := Cluster(tags, 0.7, 2)
	if len(boxes) < 2 {
		t.Errorf("expected clustering to separate the two groups, got %d box(es)", len(boxes))
	}
	for _, tag := range tags {
		covered := false
		for _, b := range boxes {
			if b.Contains(tag) {
				covered = true
				break
			}
		}
		if !covered {
			t.Errorf("tag %v not covered", tag)
		}
	}
	for i := range boxes {
		for j := i + 1; j < len(boxes); j++ {
			if boxes[i].Intersects(boxes[j]) {
				t.Errorf("cluster boxes %v and %v overlap", boxes[i], boxes[j])
			}
		}
	}
}

func TestClusterEfficiency(t *testing.T) {
	// A dense cube of tags must come back as (nearly) one box.
	var tags []grid.IntVect
	grid.NewBox(grid.IV(4, 4, 4), grid.IV(9, 9, 9)).ForEach(func(q grid.IntVect) {
		tags = append(tags, q)
	})
	boxes := Cluster(tags, 0.7, 2)
	if len(boxes) != 1 {
		t.Errorf("dense cube clustered into %d boxes", len(boxes))
	}
	var cells int64
	for _, b := range boxes {
		cells += b.NumCells()
	}
	if fill := float64(len(tags)) / float64(cells); fill < 0.7 {
		t.Errorf("overall fill ratio %.2f < 0.7", fill)
	}
}

func TestClusterEmpty(t *testing.T) {
	if got := Cluster(nil, 0.7, 2); got != nil {
		t.Errorf("Cluster(nil) = %v", got)
	}
}

func TestRegridCreatesNestedLevel(t *testing.T) {
	h := NewHierarchy(testCfg())
	setRadialBump(h, 16, 16, 16)
	tags := h.TagCells(0, 0, 0.05)
	h.Regrid(0, tags)
	if h.FinestLevel() != 1 {
		t.Fatalf("FinestLevel = %d after regrid", h.FinestLevel())
	}
	if err := h.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	fine := h.Level(1)
	if fine.NumCells() == 0 {
		t.Fatal("empty fine level")
	}
	// Every tag must be covered by the fine level (coarsened).
	for _, tag := range tags {
		covered := false
		for _, p := range fine.Patches {
			if p.Box.Coarsen(2).Contains(tag) {
				covered = true
				break
			}
		}
		if !covered {
			t.Errorf("tag %v not covered by fine level", tag)
		}
	}
}

func TestRegridDataProlonged(t *testing.T) {
	h := NewHierarchy(testCfg())
	// Piecewise-constant coarse data: fine data must copy the value.
	for _, p := range h.Level(0).Patches {
		p.Data.FillAll(7)
	}
	h.Regrid(0, []grid.IntVect{grid.IV(16, 16, 16), grid.IV(17, 16, 16)})
	for _, p := range h.Level(1).Patches {
		p.Box.ForEach(func(q grid.IntVect) {
			if got := p.Data.Get(q, 0); got != 7 {
				t.Fatalf("fine data at %v = %v, want 7", q, got)
			}
		})
	}
}

func TestRegridEmptyTagsRemovesLevel(t *testing.T) {
	h := NewHierarchy(testCfg())
	setRadialBump(h, 16, 16, 16)
	h.Regrid(0, h.TagCells(0, 0, 0.05))
	if h.FinestLevel() != 1 {
		t.Fatal("setup failed")
	}
	h.Regrid(0, nil)
	if h.FinestLevel() != 0 {
		t.Errorf("FinestLevel = %d after empty regrid", h.FinestLevel())
	}
}

func TestRegridPreservesOldFineData(t *testing.T) {
	h := NewHierarchy(testCfg())
	setRadialBump(h, 16, 16, 16)
	h.Regrid(0, h.TagCells(0, 0, 0.05))
	// Stamp fine data with a sentinel, regrid with the same tags, and the
	// overlapping region must keep the sentinel (copied, not re-prolonged).
	sentinel := 123.0
	for _, p := range h.Level(1).Patches {
		p.Data.FillAll(sentinel)
	}
	h.Regrid(0, h.TagCells(0, 0, 0.05))
	found := false
	for _, p := range h.Level(1).Patches {
		if p.Data.Get(p.Box.Lo, 0) == sentinel {
			found = true
		}
	}
	if !found {
		t.Error("no fine data survived an identical regrid")
	}
}

func TestRegridAtMaxLevelNoop(t *testing.T) {
	cfg := testCfg()
	cfg.MaxLevel = 0
	h := NewHierarchy(cfg)
	h.Regrid(0, []grid.IntVect{grid.IV(1, 1, 1)})
	if h.FinestLevel() != 0 {
		t.Error("Regrid at MaxLevel created a level")
	}
}

func TestAverageDown(t *testing.T) {
	h := NewHierarchy(testCfg())
	setRadialBump(h, 16, 16, 16)
	h.Regrid(0, h.TagCells(0, 0, 0.05))
	for _, p := range h.Level(1).Patches {
		p.Data.FillAll(42)
	}
	h.AverageDown()
	// Coarse cells under fine patches must now read 42.
	fineCover := h.Level(1).Patches[0].Box.Coarsen(2)
	for _, p := range h.Level(0).Patches {
		is := p.Box.Intersect(fineCover)
		is.ForEach(func(q grid.IntVect) {
			if got := p.Data.Get(q, 0); got != 42 {
				t.Fatalf("coarse under fine at %v = %v, want 42", q, got)
			}
		})
	}
}

func TestFillGhostInterior(t *testing.T) {
	h := NewHierarchy(testCfg())
	for _, p := range h.Level(0).Patches {
		p.Box.ForEach(func(q grid.IntVect) {
			p.Data.Set(q, 0, float64(q.X+100*q.Y+10000*q.Z))
		})
	}
	p := h.Level(0).Patches[0]
	g := h.FillGhostInto(&GhostScratch{}, 0, p, 2, nil, 0)
	// All in-domain cells must hold the global function value.
	g.Box.Intersect(h.Cfg.Domain).ForEach(func(q grid.IntVect) {
		want := float64(q.X + 100*q.Y + 10000*q.Z)
		if got := g.Get(q, 0); got != want {
			t.Fatalf("ghost at %v = %v, want %v", q, got, want)
		}
	})
}

func TestFillGhostClampBoundary(t *testing.T) {
	cfg := testCfg()
	cfg.Periodic = false
	h := NewHierarchy(cfg)
	for _, p := range h.Level(0).Patches {
		p.Data.FillAll(9)
	}
	p := h.Level(0).Patches[0] // touches the low domain corner
	g := h.FillGhostInto(&GhostScratch{}, 0, p, 1, nil, 0)
	g.Box.ForEach(func(q grid.IntVect) {
		if got := g.Get(q, 0); got != 9 {
			t.Fatalf("clamped ghost at %v = %v, want 9", q, got)
		}
	})
}

func TestFillGhostPeriodic(t *testing.T) {
	cfg := testCfg()
	cfg.Periodic = true
	h := NewHierarchy(cfg)
	// f(q) = x: the ghost cell at x=-1 must wrap to x=31.
	for _, p := range h.Level(0).Patches {
		p.Box.ForEach(func(q grid.IntVect) { p.Data.Set(q, 0, float64(q.X)) })
	}
	var corner *Patch
	for _, p := range h.Level(0).Patches {
		if p.Box.Contains(grid.IV(0, 0, 0)) {
			corner = p
			break
		}
	}
	g := h.FillGhostInto(&GhostScratch{}, 0, corner, 1, nil, 0)
	if got := g.Get(grid.IV(-1, 0, 0), 0); got != 31 {
		t.Errorf("periodic ghost at x=-1 = %v, want 31", got)
	}
	if got := g.Get(grid.IV(0, -1, 0), 0); got != 0 {
		t.Errorf("periodic ghost at y=-1 = %v, want 0", got)
	}
}

func TestFillGhostFromCoarse(t *testing.T) {
	h := NewHierarchy(testCfg())
	for _, p := range h.Level(0).Patches {
		p.Data.FillAll(5)
	}
	h.Regrid(0, []grid.IntVect{grid.IV(16, 16, 16), grid.IV(17, 17, 17)})
	fp := h.Level(1).Patches[0]
	g := h.FillGhostInto(&GhostScratch{}, 1, fp, 2, nil, 0)
	// Ghost cells outside the fine level but inside the domain must read
	// the coarse value 5 (prolonged), as must the interior.
	g.Box.Intersect(h.Level(1).Domain).ForEach(func(q grid.IntVect) {
		if got := g.Get(q, 0); got != 5 {
			t.Fatalf("fine ghost at %v = %v, want 5", q, got)
		}
	})
}

func TestCheckInvariantsDetectsOverlap(t *testing.T) {
	h := NewHierarchy(testCfg())
	// Force an overlap.
	h.Level(0).Patches[1].Box = h.Level(0).Patches[0].Box
	h.Level(0).Patches[1].Data = h.Level(0).Patches[0].Data
	if err := h.CheckInvariants(); err == nil {
		t.Error("CheckInvariants missed an overlap")
	}
}

func TestMultiLevelRefinement(t *testing.T) {
	cfg := testCfg()
	h := NewHierarchy(cfg)
	setRadialBump(h, 16, 16, 16)
	h.Regrid(0, h.TagCells(0, 0, 0.05))
	if h.FinestLevel() != 1 {
		t.Fatal("level 1 missing")
	}
	tags1 := h.TagCells(1, 0, 0.02)
	if len(tags1) == 0 {
		t.Skip("no level-1 tags for this threshold")
	}
	h.Regrid(1, tags1)
	if h.FinestLevel() != 2 {
		t.Fatalf("FinestLevel = %d, want 2", h.FinestLevel())
	}
	if err := h.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}
