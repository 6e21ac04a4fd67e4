package analysis

import (
	"math"
	"math/rand"
	"testing"

	"crosslayer/internal/field"
	"crosslayer/internal/grid"
	"crosslayer/internal/viz"
)

// sphereBlock is one n³ block of the distance from its center in units of
// n/16 cells, so the sphere at a given isovalue spans the same share of
// the block at every n.
func sphereBlock(n int) []*field.BoxData {
	d := field.New(grid.BoxFromSize(grid.IV(0, 0, 0), grid.IV(n, n, n)), 1)
	c := float64(n-1) / 2
	d.Box.ForEach(func(q grid.IntVect) {
		dx, dy, dz := float64(q.X)-c, float64(q.Y)-c, float64(q.Z)-c
		d.Set(q, 0, math.Sqrt(dx*dx+dy*dy+dz*dz)*16/float64(n))
	})
	return []*field.BoxData{d}
}

func TestIsosurfaceService(t *testing.T) {
	s := NewIsosurface(4.0, 6.0)
	if s.SweepsPerCell() != 2 {
		t.Errorf("SweepsPerCell = %v", s.SweepsPerCell())
	}
	blocks := sphereBlock(16)
	rep := s.Analyze(blocks, 0, 1)
	if rep.Metrics["triangles"] <= 0 {
		t.Fatal("no triangles")
	}
	if rep.CellsSwept != blocks[0].NumCells()*2 {
		t.Errorf("CellsSwept = %d", rep.CellsSwept)
	}
	m, st := viz.NewService(4.0, 6.0).ExtractBlocks(blocks, 0, 1)
	if rep.Metrics["triangles"] != float64(m.Count()) ||
		math.Float64bits(rep.Metrics["area"]) != math.Float64bits(m.Area()) || rep.CellsSwept != st.CellsSwept {
		t.Errorf("Analyze %+v; the extracted mesh has %d triangles, area %v over %d cells",
			rep, m.Count(), m.Area(), st.CellsSwept)
	}
}

// TestIsosurfaceAnalyzeAllocsFlat holds Analyze to allocations that do not
// grow with the surface: it keeps no triangles, so a sphere block of 32³,
// with four times the triangles, costs the same few allocations (the
// Metrics map) as one of 16³.
func TestIsosurfaceAnalyzeAllocsFlat(t *testing.T) {
	s := NewIsosurface(4.0, 6.0)
	small, large := sphereBlock(16), sphereBlock(32)
	a16 := testing.AllocsPerRun(20, func() { s.Analyze(small, 0, 1) })
	a32 := testing.AllocsPerRun(20, func() { s.Analyze(large, 0, 1) })
	if a16 != a32 || a32 > 4 {
		t.Errorf("Analyze allocates %v times on a 16³ sphere and %v on a 32³ one; want the same few", a16, a32)
	}
}

func TestStatisticsService(t *testing.T) {
	s := NewStatistics(0)
	if s.Bins != 64 {
		t.Errorf("default bins = %d", s.Bins)
	}
	d := field.New(grid.BoxFromSize(grid.IV(0, 0, 0), grid.IV(4, 4, 4)), 1)
	for i := range d.Comp(0) {
		d.Comp(0)[i] = float64(i % 8)
	}
	rep := s.Analyze([]*field.BoxData{d}, 0, 1)
	if rep.Metrics["min"] != 0 || rep.Metrics["max"] != 7 {
		t.Errorf("range = [%v, %v]", rep.Metrics["min"], rep.Metrics["max"])
	}
	if got := rep.Metrics["mean"]; math.Abs(got-3.5) > 1e-12 {
		t.Errorf("mean = %v", got)
	}
	// Uniform over 8 values → 3 bits.
	if got := rep.Metrics["entropy"]; math.Abs(got-3) > 1e-9 {
		t.Errorf("entropy = %v", got)
	}
	if rep.CellsSwept != 2*d.NumCells() {
		t.Errorf("CellsSwept = %d", rep.CellsSwept)
	}
	if rep.Metrics["variance"] < 0 {
		t.Error("negative variance")
	}
}

func TestStatisticsMultiBlock(t *testing.T) {
	a := field.New(grid.BoxFromSize(grid.IV(0, 0, 0), grid.IV(2, 2, 2)), 1)
	a.FillAll(1)
	b := field.New(grid.BoxFromSize(grid.IV(4, 0, 0), grid.IV(2, 2, 2)), 1)
	b.FillAll(3)
	rep := NewStatistics(8).Analyze([]*field.BoxData{a, b}, 0, 1)
	if rep.Metrics["mean"] != 2 {
		t.Errorf("cross-block mean = %v", rep.Metrics["mean"])
	}
	if rep.Metrics["min"] != 1 || rep.Metrics["max"] != 3 {
		t.Error("cross-block range wrong")
	}
}

func TestStatisticsEmpty(t *testing.T) {
	rep := NewStatistics(8).Analyze(nil, 0, 1)
	if rep.CellsSwept != 0 || rep.Metrics["mean"] != 0 {
		t.Errorf("empty stats = %+v", rep)
	}
}

func TestSubsetService(t *testing.T) {
	region := grid.NewBox(grid.IV(2, 2, 2), grid.IV(5, 5, 5))
	s := NewSubset(region)
	if s.SweepsPerCell() != 1 {
		t.Error("metadata")
	}
	d := field.New(grid.BoxFromSize(grid.IV(0, 0, 0), grid.IV(8, 8, 8)), 1)
	rng := rand.New(rand.NewSource(3))
	for i := range d.Comp(0) {
		d.Comp(0)[i] = rng.Float64()
	}
	out := field.New(grid.BoxFromSize(grid.IV(16, 0, 0), grid.IV(4, 4, 4)), 1) // disjoint from region
	rep := s.Analyze([]*field.BoxData{d, out}, 0, 1)
	if got := rep.Metrics["subset_bytes"]; got != float64(region.NumCells()*8) {
		t.Errorf("subset bytes = %v, want %d", got, region.NumCells()*8)
	}
}

func TestServiceInterfaceCompliance(t *testing.T) {
	var _ Service = (*Isosurface)(nil)
	var _ Service = (*Statistics)(nil)
	var _ Service = (*Subset)(nil)
}
