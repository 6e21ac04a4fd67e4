// Package viz implements the paper's visualization service: isosurface
// extraction from AMR data (the de-facto standard marching-cubes family).
// Cells are processed independently — triangulation depends only on the
// values at the cell's own corners — so, exactly as the paper notes, the
// construction is local and needs (nearly) no communication, which is what
// makes it placeable either in-situ or in-transit.
//
// The extractor uses the tetrahedral decomposition of each cube (six
// tetrahedra around the main diagonal). Marching tetrahedra triangulates
// each case unambiguously, so the resulting surface is watertight without
// the classic marching-cubes ambiguity fixups, while the per-cell cost and
// output statistics (triangle counts, area) match what the adaptation
// policies need to model analysis cost.
package viz

import (
	"math"

	"crosslayer/internal/field"
	"crosslayer/internal/grid"
)

// Vec3 is a point in physical space.
type Vec3 struct {
	X, Y, Z float64
}

func (a Vec3) sub(b Vec3) Vec3 { return Vec3{a.X - b.X, a.Y - b.Y, a.Z - b.Z} }

func (a Vec3) cross(b Vec3) Vec3 {
	return Vec3{a.Y*b.Z - a.Z*b.Y, a.Z*b.X - a.X*b.Z, a.X*b.Y - a.Y*b.X}
}

func (a Vec3) norm() float64 { return math.Sqrt(a.X*a.X + a.Y*a.Y + a.Z*a.Z) }

// Triangle is one oriented surface triangle.
type Triangle struct {
	A, B, C Vec3
}

// Area returns the triangle's area.
func (t Triangle) Area() float64 {
	return 0.5 * t.B.sub(t.A).cross(t.C.sub(t.A)).norm()
}

// Mesh is an extracted isosurface as a triangle soup.
type Mesh struct {
	Triangles []Triangle
}

// Count returns the number of triangles.
func (m *Mesh) Count() int { return len(m.Triangles) }

// Area returns the total surface area.
func (m *Mesh) Area() float64 {
	sum := 0.0
	for _, t := range m.Triangles {
		sum += t.Area()
	}
	return sum
}

// Append merges other into m.
func (m *Mesh) Append(other *Mesh) {
	m.Triangles = append(m.Triangles, other.Triangles...)
}

// triangleBytes is one triangle's payload: 3 vertices × 3 coordinates ×
// 8 bytes.
const triangleBytes = 9 * 8

// Bytes estimates the in-memory size of the mesh payload.
func (m *Mesh) Bytes() int64 { return int64(len(m.Triangles)) * triangleBytes }

// sink receives every triangle the extractor emits. It counts the triangle
// and adds its area to a running sum in emission order — the additions
// Mesh.Area makes, in the same order — and keeps the triangle only when
// mesh is set.
type sink struct {
	mesh *Mesh
	n    int
	area float64
}

func (s *sink) add(t Triangle) {
	s.n++
	s.area += t.Area()
	if s.mesh != nil {
		s.mesh.Triangles = append(s.mesh.Triangles, t)
	}
}

// cube corner offsets, standard ordering.
var corner = [8]grid.IntVect{
	grid.IV(0, 0, 0), grid.IV(1, 0, 0), grid.IV(1, 1, 0), grid.IV(0, 1, 0),
	grid.IV(0, 0, 1), grid.IV(1, 0, 1), grid.IV(1, 1, 1), grid.IV(0, 1, 1),
}

// six tetrahedra covering the cube, all sharing the 0–6 diagonal.
var tets = [6][4]int{
	{0, 5, 1, 6}, {0, 1, 2, 6}, {0, 2, 3, 6},
	{0, 3, 7, 6}, {0, 7, 4, 6}, {0, 4, 5, 6},
}

// ExtractBlock extracts the isosurface of component c at isovalue iso from
// one data block, treating cell centers as lattice vertices. origin is the
// physical position of cell (0,0,0)'s center and dx the cell spacing at
// this block's resolution (so meshes from different AMR levels line up in
// physical space).
func ExtractBlock(d *field.BoxData, c int, iso float64, origin Vec3, dx float64) *Mesh {
	m := &Mesh{}
	extractInto(&sink{mesh: m}, d, c, iso, origin, dx)
	return m
}

// extractInto writes ExtractBlock's triangles to s. Cubes are visited in
// Box.ForEach order by their low corner; a cube's corner values are read
// through fixed strides of the component slice, and its corner positions
// are computed only when the cube is not entirely on one side of iso.
func extractInto(s *sink, d *field.BoxData, c int, iso float64, origin Vec3, dx float64) {
	b := d.Box
	sz := b.Size()
	if sz.MinComp() < 2 {
		return // no complete cube fits
	}
	v := d.Comp(c)
	var off [8]int
	for i, k := range corner {
		off[i] = (k.Z*sz.Y+k.Y)*sz.X + k.X
	}
	var vals [8]float64
	var pos [8]Vec3
	for z := b.Lo.Z; z < b.Hi.Z; z++ {
		for y := b.Lo.Y; y < b.Hi.Y; y++ {
			o := b.Offset(grid.IV(b.Lo.X, y, z))
			for x := b.Lo.X; x < b.Hi.X; x, o = x+1, o+1 {
				inside := 0
				for i, k := range off {
					vals[i] = v[o+k]
					if vals[i] >= iso {
						inside++
					}
				}
				if inside == 0 || inside == 8 {
					continue // fast reject: cube entirely on one side
				}
				for i, k := range corner {
					pos[i] = Vec3{
						origin.X + (float64(x+k.X)+0.5)*dx,
						origin.Y + (float64(y+k.Y)+0.5)*dx,
						origin.Z + (float64(z+k.Z)+0.5)*dx,
					}
				}
				for _, tet := range tets {
					marchTet(s, iso,
						vals[tet[0]], vals[tet[1]], vals[tet[2]], vals[tet[3]],
						pos[tet[0]], pos[tet[1]], pos[tet[2]], pos[tet[3]])
				}
			}
		}
	}
}

// interp returns the iso-crossing point on the edge between (pa,va) and
// (pb,vb).
func interp(iso float64, pa, pb Vec3, va, vb float64) Vec3 {
	if math.Abs(vb-va) < 1e-300 {
		return pa
	}
	t := (iso - va) / (vb - va)
	if t < 0 {
		t = 0
	}
	if t > 1 {
		t = 1
	}
	return Vec3{pa.X + t*(pb.X-pa.X), pa.Y + t*(pb.Y-pa.Y), pa.Z + t*(pb.Z-pa.Z)}
}

// marchTet emits the triangles of the isosurface crossing one tetrahedron
// to s.
func marchTet(s *sink, iso float64, v0, v1, v2, v3 float64, p0, p1, p2, p3 Vec3) {
	var code int
	if v0 >= iso {
		code |= 1
	}
	if v1 >= iso {
		code |= 2
	}
	if v2 >= iso {
		code |= 4
	}
	if v3 >= iso {
		code |= 8
	}
	v := [4]float64{v0, v1, v2, v3}
	p := [4]Vec3{p0, p1, p2, p3}
	edge := func(a, b int) Vec3 { return interp(iso, p[a], p[b], v[a], v[b]) }

	switch code {
	case 0x0, 0xF:
		// entirely outside or inside
	case 0x1, 0xE: // vertex 0 separated
		s.add(Triangle{edge(0, 1), edge(0, 2), edge(0, 3)})
	case 0x2, 0xD: // vertex 1 separated
		s.add(Triangle{edge(1, 0), edge(1, 3), edge(1, 2)})
	case 0x4, 0xB: // vertex 2 separated
		s.add(Triangle{edge(2, 0), edge(2, 1), edge(2, 3)})
	case 0x8, 0x7: // vertex 3 separated
		s.add(Triangle{edge(3, 0), edge(3, 2), edge(3, 1)})
	case 0x3, 0xC: // vertices {0,1} vs {2,3}
		a, b, c, d := edge(0, 2), edge(0, 3), edge(1, 3), edge(1, 2)
		s.add(Triangle{a, b, c})
		s.add(Triangle{a, c, d})
	case 0x5, 0xA: // vertices {0,2} vs {1,3}
		a, b, c, d := edge(0, 1), edge(2, 1), edge(2, 3), edge(0, 3)
		s.add(Triangle{a, b, c})
		s.add(Triangle{a, c, d})
	case 0x6, 0x9: // vertices {1,2} vs {0,3}
		a, b, c, d := edge(1, 0), edge(1, 3), edge(2, 3), edge(2, 0)
		s.add(Triangle{a, b, c})
		s.add(Triangle{a, c, d})
	}
}
