package viz

import (
	"crosslayer/internal/amr"
	"crosslayer/internal/field"
)

// Stats summarizes one isosurface-extraction run; the Monitor feeds these
// into the cost models the placement and resource policies use.
type Stats struct {
	Triangles  int     // total triangles produced
	Area       float64 // total surface area
	CellsSwept int64   // cells scanned (the cost driver)
	MeshBytes  int64   // output payload size
}

// Service is the visualization analysis component of the coupled workflow:
// marching-cubes isosurface extraction at configured isovalues.
type Service struct {
	Isovalues []float64 // surfaces to extract (the paper uses two, e.g. 1.23 and 4.18)
}

// NewService builds a visualization service for the given isovalues.
func NewService(isovalues ...float64) *Service {
	return &Service{Isovalues: isovalues}
}

// ExtractHierarchy runs extraction of component c over every patch of every
// level of h, at each configured isovalue. Finer levels use their finer
// spacing so surfaces align in physical space. dx0 is the base-level cell
// spacing. Triangles go into the one returned mesh patch by patch, and
// isovalue by isovalue within a patch.
func (s *Service) ExtractHierarchy(h *amr.Hierarchy, c int, dx0 float64) (*Mesh, Stats) {
	mesh := &Mesh{}
	k := &sink{mesh: mesh}
	var cells int64
	dx := dx0
	for _, l := range h.Levels {
		for _, p := range l.Patches {
			for _, iso := range s.Isovalues {
				extractInto(k, p.Data, c, iso, Vec3{}, dx)
			}
			cells += p.Box.NumCells() * int64(len(s.Isovalues))
		}
		dx /= float64(h.Cfg.RefRatio)
	}
	return mesh, k.stats(cells)
}

// ExtractBlocks runs extraction of component c over a list of standalone
// blocks (e.g. reduced data received in-transit) at spacing dx.
func (s *Service) ExtractBlocks(blocks []*field.BoxData, c int, dx float64) (*Mesh, Stats) {
	mesh := &Mesh{}
	return mesh, s.extract(&sink{mesh: mesh}, blocks, c, dx)
}

// Measure is ExtractBlocks without the mesh: the same extraction, counting
// the triangles and summing their area as it finds them, keeping none.
func (s *Service) Measure(blocks []*field.BoxData, c int, dx float64) Stats {
	return s.extract(&sink{}, blocks, c, dx)
}

// extract writes the triangles of every block, isovalue by isovalue within
// a block, to k.
func (s *Service) extract(k *sink, blocks []*field.BoxData, c int, dx float64) Stats {
	var cells int64
	for _, b := range blocks {
		for _, iso := range s.Isovalues {
			extractInto(k, b, c, iso, Vec3{}, dx)
		}
		cells += b.NumCells() * int64(len(s.Isovalues))
	}
	return k.stats(cells)
}

// stats reports what k received over an extraction that swept cells.
func (k *sink) stats(cells int64) Stats {
	return Stats{Triangles: k.n, Area: k.area, CellsSwept: cells, MeshBytes: int64(k.n) * triangleBytes}
}
