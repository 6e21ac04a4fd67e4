package viz

import (
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"testing"

	"crosslayer/internal/amr"
	"crosslayer/internal/field"
	"crosslayer/internal/grid"
)

// sphereField fills an n³ block with f(p) = |p - c| (distance field), whose
// isosurface at r is a sphere of radius r.
func sphereField(n int) *field.BoxData {
	d := field.New(grid.BoxFromSize(grid.IV(0, 0, 0), grid.IV(n, n, n)), 1)
	c := float64(n-1) / 2
	d.Box.ForEach(func(q grid.IntVect) {
		dx, dy, dz := float64(q.X)-c, float64(q.Y)-c, float64(q.Z)-c
		d.Set(q, 0, math.Sqrt(dx*dx+dy*dy+dz*dz))
	})
	return d
}

func TestTriangleArea(t *testing.T) {
	tri := Triangle{Vec3{0, 0, 0}, Vec3{1, 0, 0}, Vec3{0, 1, 0}}
	if got := tri.Area(); math.Abs(got-0.5) > 1e-14 {
		t.Errorf("Area = %v", got)
	}
	degenerate := Triangle{Vec3{0, 0, 0}, Vec3{1, 1, 1}, Vec3{2, 2, 2}}
	if got := degenerate.Area(); got != 0 {
		t.Errorf("degenerate area = %v", got)
	}
}

func TestExtractEmptyWhenNoCrossing(t *testing.T) {
	d := field.New(grid.BoxFromSize(grid.IV(0, 0, 0), grid.IV(8, 8, 8)), 1)
	d.FillAll(1)
	m := ExtractBlock(d, 0, 5, Vec3{}, 1)
	if m.Count() != 0 {
		t.Errorf("flat field produced %d triangles", m.Count())
	}
	m = ExtractBlock(d, 0, 0.5, Vec3{}, 1)
	if m.Count() != 0 {
		t.Errorf("all-inside field produced %d triangles", m.Count())
	}
}

func TestExtractTinyBlock(t *testing.T) {
	d := field.New(grid.BoxFromSize(grid.IV(0, 0, 0), grid.IV(1, 1, 1)), 1)
	if m := ExtractBlock(d, 0, 0.5, Vec3{}, 1); m.Count() != 0 {
		t.Errorf("single-cell block produced %d triangles", m.Count())
	}
}

func TestExtractSphereAreaConverges(t *testing.T) {
	// The extracted area of a radius-r sphere must approach 4πr².
	d := sphereField(32)
	r := 10.0
	m := ExtractBlock(d, 0, r, Vec3{}, 1)
	if m.Count() == 0 {
		t.Fatal("no surface extracted")
	}
	want := 4 * math.Pi * r * r
	if rel := math.Abs(m.Area()-want) / want; rel > 0.05 {
		t.Errorf("sphere area %.1f, want %.1f (rel err %.3f)", m.Area(), want, rel)
	}
}

func TestExtractAreaScalesWithDx(t *testing.T) {
	d := sphereField(16)
	m1 := ExtractBlock(d, 0, 5, Vec3{}, 1)
	m2 := ExtractBlock(d, 0, 5, Vec3{}, 2)
	if m1.Count() != m2.Count() {
		t.Fatalf("dx changed topology: %d vs %d triangles", m1.Count(), m2.Count())
	}
	if rel := math.Abs(m2.Area()-4*m1.Area()) / (4 * m1.Area()); rel > 1e-9 {
		t.Errorf("area did not scale by dx²: %v vs %v", m2.Area(), m1.Area())
	}
}

func TestExtractVerticesOnIsosurface(t *testing.T) {
	// For the distance field, every emitted vertex must lie (nearly) on the
	// r-sphere: linear interpolation error only.
	d := sphereField(24)
	r := 8.0
	c := float64(23) / 2
	m := ExtractBlock(d, 0, r, Vec3{}, 1)
	for _, tri := range m.Triangles {
		for _, v := range []Vec3{tri.A, tri.B, tri.C} {
			// cell-center convention adds 0.5 to each coordinate
			dx, dy, dz := v.X-0.5-c, v.Y-0.5-c, v.Z-0.5-c
			dist := math.Sqrt(dx*dx + dy*dy + dz*dz)
			if math.Abs(dist-r) > 0.1 {
				t.Fatalf("vertex %v at distance %.3f, want %.1f", v, dist, r)
			}
		}
	}
}

func TestMeshBytesAndAppend(t *testing.T) {
	m := &Mesh{Triangles: make([]Triangle, 10)}
	if m.Bytes() != 720 {
		t.Errorf("Bytes = %d", m.Bytes())
	}
	other := &Mesh{Triangles: make([]Triangle, 5)}
	m.Append(other)
	if m.Count() != 15 {
		t.Errorf("Append count = %d", m.Count())
	}
}

func TestWatertightSphere(t *testing.T) {
	// Tetrahedral marching produces a closed surface for a sphere strictly
	// inside the block: every edge must be shared by exactly two triangles.
	d := sphereField(20)
	m := ExtractBlock(d, 0, 6, Vec3{}, 1)
	if m.Count() == 0 {
		t.Fatal("no surface")
	}
	type edge [2]Vec3
	canon := func(a, b Vec3) edge {
		if a.X < b.X || (a.X == b.X && (a.Y < b.Y || (a.Y == b.Y && a.Z <= b.Z))) {
			return edge{a, b}
		}
		return edge{b, a}
	}
	counts := map[edge]int{}
	for _, tri := range m.Triangles {
		if tri.Area() == 0 {
			continue // degenerate slivers from vertices exactly on the iso
		}
		counts[canon(tri.A, tri.B)]++
		counts[canon(tri.B, tri.C)]++
		counts[canon(tri.C, tri.A)]++
	}
	odd := 0
	for _, n := range counts {
		if n%2 != 0 {
			odd++
		}
	}
	if frac := float64(odd) / float64(len(counts)); frac > 0.01 {
		t.Errorf("%.1f%% of edges have odd incidence; surface not watertight", 100*frac)
	}
}

func TestServiceExtractHierarchy(t *testing.T) {
	h := amr.NewHierarchy(amr.Config{
		Domain:     grid.NewBox(grid.IV(0, 0, 0), grid.IV(15, 15, 15)),
		NComp:      1,
		MaxLevel:   1,
		MaxBoxSize: 8,
		NRanks:     2,
	})
	for _, p := range h.Level(0).Patches {
		p.Box.ForEach(func(q grid.IntVect) {
			dx, dy, dz := float64(q.X)-7.5, float64(q.Y)-7.5, float64(q.Z)-7.5
			p.Data.Set(q, 0, math.Sqrt(dx*dx+dy*dy+dz*dz))
		})
	}
	svc := NewService(3.0, 5.0)
	mesh, st := svc.ExtractHierarchy(h, 0, 1.0/16)
	if mesh.Count() == 0 {
		t.Fatal("hierarchy extraction produced no triangles")
	}
	if err := sameStats(st, meshStats(mesh, 2*h.TotalCells())); err != nil {
		t.Error(err)
	}
}

func TestServiceTwoIsovaluesSweepTwice(t *testing.T) {
	d := sphereField(12)
	svc := NewService(3.0, 5.0)
	_, st := svc.ExtractBlocks([]*field.BoxData{d}, 0, 1)
	if st.CellsSwept != d.NumCells()*2 {
		t.Errorf("CellsSwept = %d, want %d", st.CellsSwept, d.NumCells()*2)
	}
	one := NewService(3.0)
	_, st1 := one.ExtractBlocks([]*field.BoxData{d}, 0, 1)
	if st.Triangles <= st1.Triangles {
		t.Error("two isovalues should produce more triangles than one")
	}
}

// refExtractBlock is the per-cube body ExtractBlock shipped before it read
// corner values through strides and built positions only for cubes that
// cross iso, kept as an oracle: the kernel must reproduce it bit for bit.
func refExtractBlock(d *field.BoxData, c int, iso float64, origin Vec3, dx float64) *Mesh {
	m := &Mesh{}
	b := d.Box
	if b.Size().MinComp() < 2 {
		return m // no complete cube fits
	}
	// Iterate cubes whose low corner is q; corners q..q+1 must be in-box.
	cubeBox := grid.NewBox(b.Lo, b.Hi.Sub(grid.Unit))
	var vals [8]float64
	var pos [8]Vec3
	cubeBox.ForEach(func(q grid.IntVect) {
		inside := 0
		for i, off := range corner {
			p := q.Add(off)
			vals[i] = d.Get(p, c)
			pos[i] = Vec3{
				origin.X + (float64(p.X)+0.5)*dx,
				origin.Y + (float64(p.Y)+0.5)*dx,
				origin.Z + (float64(p.Z)+0.5)*dx,
			}
			if vals[i] >= iso {
				inside++
			}
		}
		if inside == 0 || inside == 8 {
			return // fast reject: cube entirely on one side
		}
		for _, tet := range tets {
			marchTet(&sink{mesh: m}, iso,
				vals[tet[0]], vals[tet[1]], vals[tet[2]], vals[tet[3]],
				pos[tet[0]], pos[tet[1]], pos[tet[2]], pos[tet[3]])
		}
	})
	return m
}

// sameTriangles compares two meshes vertex by vertex on the float bits.
func sameTriangles(got, want *Mesh) error {
	if len(got.Triangles) != len(want.Triangles) {
		return fmt.Errorf("%d triangles, reference %d", len(got.Triangles), len(want.Triangles))
	}
	for i, g := range got.Triangles {
		w := want.Triangles[i]
		gv, wv := [3]Vec3{g.A, g.B, g.C}, [3]Vec3{w.A, w.B, w.C}
		for j := range gv {
			for k, pair := range [3][2]float64{{gv[j].X, wv[j].X}, {gv[j].Y, wv[j].Y}, {gv[j].Z, wv[j].Z}} {
				if math.Float64bits(pair[0]) != math.Float64bits(pair[1]) {
					return fmt.Errorf("triangle %d vertex %d axis %d: %v, reference %v", i, j, k, pair[0], pair[1])
				}
			}
		}
	}
	return nil
}

// meshChecksum is the FNV-1a hash of every vertex coordinate's bits, in
// triangle order.
func meshChecksum(m *Mesh) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	for _, t := range m.Triangles {
		for _, v := range [3]Vec3{t.A, t.B, t.C} {
			for _, f := range [3]float64{v.X, v.Y, v.Z} {
				u := math.Float64bits(f)
				for i := range buf {
					buf[i] = byte(u >> (8 * i))
				}
				h.Write(buf[:])
			}
		}
	}
	return h.Sum64()
}

// extractCase is one seeded block for the reference comparison. Values are
// small integers, so iso = 2 equals many samples and the >= tie decides
// which side a corner is on.
type extractCase struct {
	name   string
	lo     grid.IntVect
	size   grid.IntVect
	ncomp  int
	c      int
	iso    float64
	origin Vec3
	dx     float64
}

var extractCases = []extractCase{
	{"origin-box", grid.IV(0, 0, 0), grid.IV(9, 7, 6), 1, 0, 1.5, Vec3{}, 1},
	{"shifted-box", grid.IV(3, -2, 5), grid.IV(8, 6, 7), 1, 0, 2, Vec3{}, 0.5},
	{"comp2-of-3", grid.IV(-4, 1, 2), grid.IV(7, 9, 5), 3, 2, 1.5, Vec3{0.25, -1.5, 3}, 0.125},
	{"tie-iso", grid.IV(1, 2, 3), grid.IV(6, 6, 6), 2, 1, 2, Vec3{-2, 0.75, 1}, 0.3},
	{"2-thick-z", grid.IV(5, 0, -1), grid.IV(7, 6, 2), 1, 0, 2, Vec3{1, 1, 1}, 1},
	{"2-thick-x", grid.IV(0, 3, 0), grid.IV(2, 5, 9), 2, 0, 1.5, Vec3{}, 0.25},
	{"1-thick-y", grid.IV(0, 0, 0), grid.IV(6, 1, 6), 1, 0, 2, Vec3{}, 1},
	{"1-thick-x", grid.IV(2, 2, 2), grid.IV(1, 5, 5), 1, 0, 1.5, Vec3{}, 1},
}

// seededBlock fills a block of the case's shape with integers in [0, 4].
func (ec extractCase) seededBlock(rng *rand.Rand) *field.BoxData {
	d := field.New(grid.BoxFromSize(ec.lo, ec.size), ec.ncomp)
	for c := 0; c < ec.ncomp; c++ {
		s := d.Comp(c)
		for i := range s {
			s[i] = float64(rng.Intn(5))
		}
	}
	return d
}

func TestExtractBlockMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for _, ec := range extractCases {
		d := ec.seededBlock(rng)
		want := refExtractBlock(d, ec.c, ec.iso, ec.origin, ec.dx)
		if err := sameTriangles(ExtractBlock(d, ec.c, ec.iso, ec.origin, ec.dx), want); err != nil {
			t.Errorf("%s: %v", ec.name, err)
		}
		if ec.size.MinComp() >= 2 && want.Count() == 0 {
			t.Errorf("%s: the reference extracted nothing; the case tests nothing", ec.name)
		}
	}
	// A smooth field at a non-sample iso, and the same field at iso equal
	// to one of its samples.
	d := sphereField(16)
	for _, iso := range []float64{5, d.Get(grid.IV(3, 7, 7), 0)} {
		if err := sameTriangles(ExtractBlock(d, 0, iso, Vec3{0.5, 0.5, 0.5}, 0.1), refExtractBlock(d, 0, iso, Vec3{0.5, 0.5, 0.5}, 0.1)); err != nil {
			t.Errorf("sphere iso=%v: %v", iso, err)
		}
	}
}

// TestServiceMatchesPerBlockAppend holds ExtractBlocks, which extracts into
// one mesh, to the per-block reference meshes appended block by block and
// isovalue by isovalue, and pins the result's vertex checksum.
func TestServiceMatchesPerBlockAppend(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	var blocks []*field.BoxData
	for _, ec := range extractCases {
		if ec.ncomp == 1 {
			blocks = append(blocks, ec.seededBlock(rng))
		}
	}
	svc := NewService(1.5, 2, 3)
	got, st := svc.ExtractBlocks(blocks, 0, 0.25)
	want := &Mesh{}
	for _, b := range blocks {
		for _, iso := range svc.Isovalues {
			want.Append(refExtractBlock(b, 0, iso, Vec3{}, 0.25))
		}
	}
	if err := sameTriangles(got, want); err != nil {
		t.Fatal(err)
	}
	if math.Float64bits(st.Area) != math.Float64bits(want.Area()) || st.Triangles != want.Count() {
		t.Errorf("stats %d triangles area %v, reference %d area %v", st.Triangles, st.Area, want.Count(), want.Area())
	}
	const pinned = 0x7893ba23831b871
	if sum := meshChecksum(got); sum != pinned {
		t.Errorf("vertex checksum %#x over %d triangles, pinned %#x", sum, got.Count(), uint64(pinned))
	}
}

// meshStats is what Stats must read for mesh m built by sweeping cells:
// the mesh's own count, payload and area, the area summed over m in order.
func meshStats(m *Mesh, cells int64) Stats {
	return Stats{Triangles: m.Count(), Area: m.Area(), CellsSwept: cells, MeshBytes: m.Bytes()}
}

// sameStats compares two Stats exactly, the area on its float bits.
func sameStats(got, want Stats) error {
	if got.Triangles != want.Triangles || got.CellsSwept != want.CellsSwept || got.MeshBytes != want.MeshBytes ||
		math.Float64bits(got.Area) != math.Float64bits(want.Area) {
		return fmt.Errorf("stats %+v, want %+v", got, want)
	}
	return nil
}

// TestMeasureMatchesMesh holds the one-pass statistics — Measure, which
// keeps no triangles, and the Stats ExtractBlocks returns beside its mesh
// — to the statistics of the mesh itself, over the reference cases one
// block at a time and over multi-block lists at two isovalues.
// TestServiceExtractHierarchy does the same for ExtractHierarchy.
func TestMeasureMatchesMesh(t *testing.T) {
	check := func(name string, svc *Service, blocks []*field.BoxData, c int, dx float64) {
		t.Helper()
		m, st := svc.ExtractBlocks(blocks, c, dx)
		if m.Count() == 0 {
			t.Errorf("%s: nothing extracted; the case tests nothing", name)
		}
		want := meshStats(m, st.CellsSwept)
		if err := sameStats(svc.Measure(blocks, c, dx), want); err != nil {
			t.Errorf("%s: Measure: %v", name, err)
		}
		if err := sameStats(st, want); err != nil {
			t.Errorf("%s: ExtractBlocks: %v", name, err)
		}
	}
	rng := rand.New(rand.NewSource(17))
	var blocks []*field.BoxData
	for _, ec := range extractCases {
		d := ec.seededBlock(rng)
		if ec.size.MinComp() >= 2 {
			check(ec.name, NewService(ec.iso), []*field.BoxData{d}, ec.c, ec.dx)
		}
		blocks = append(blocks, d)
	}
	blocks = append(blocks, sphereField(16), sphereField(12))
	check("all-blocks", NewService(1.5, 2), blocks, 0, 0.25)
	check("all-blocks-sphere-iso", NewService(3, 5.5), blocks, 0, 0.1)
}
