// Package amr implements a block-structured adaptive-mesh-refinement
// substrate in the style of Chombo: a hierarchy of levels, each a union of
// rectangular patches at a fixed resolution, with tagging, point
// clustering, regridding, intergrid transfer, ghost-cell exchange and a
// Morton-curve load balancer that assigns patches to virtual ranks.
//
// The workflow runtime drives simulations built on this package; the
// dynamic, imbalanced per-rank data volumes that AMR produces are exactly
// the signal the paper's cross-layer adaptations respond to.
package amr

import (
	"fmt"

	"crosslayer/internal/field"
	"crosslayer/internal/grid"
)

// Patch is one rectangular block of a level, owned by a virtual rank.
type Patch struct {
	Box   grid.Box
	Data  *field.BoxData
	Owner int // virtual rank that owns (computes and stores) this patch
}

// Level is a union of non-overlapping patches at one resolution.
type Level struct {
	Domain  grid.Box // problem domain in this level's index space
	Patches []*Patch
}

// NumCells returns the total number of cells across the level's patches.
func (l *Level) NumCells() int64 {
	var n int64
	for _, p := range l.Patches {
		n += p.Box.NumCells()
	}
	return n
}

// Bytes returns the total payload bytes of the level.
func (l *Level) Bytes() int64 {
	var n int64
	for _, p := range l.Patches {
		n += p.Data.Bytes()
	}
	return n
}

// Config fixes the shape of a Hierarchy.
type Config struct {
	Domain     grid.Box // base-level problem domain
	NComp      int      // components per cell
	MaxLevel   int      // finest allowed level index (0 = no refinement)
	RefRatio   int      // refinement ratio between consecutive levels
	MaxBoxSize int      // patches are chopped to at most this many cells per side
	NRanks     int      // virtual ranks for load balancing
	FillRatio  float64  // clustering efficiency target (default 0.70)
	Periodic   bool     // periodic domain boundaries (else outflow/extrapolation)
}

func (c *Config) withDefaults() Config {
	out := *c
	if out.RefRatio == 0 {
		out.RefRatio = 2
	}
	if out.MaxBoxSize == 0 {
		out.MaxBoxSize = 32
	}
	if out.NRanks == 0 {
		out.NRanks = 1
	}
	if out.FillRatio == 0 {
		out.FillRatio = 0.70
	}
	return out
}

// Hierarchy is a stack of levels with level 0 covering Config.Domain.
type Hierarchy struct {
	Cfg    Config
	Levels []*Level

	// TagCells' and Regrid's working memory, reused across calls. Every
	// use reshapes it and rewrites what it reads, and tagMask is all false
	// between calls.
	tagGhost GhostScratch   // TagCells' one-component ghost fill
	tags     []grid.IntVect // TagCells' result
	tagMask  []bool         // per cell of the buffered tags' bounding box
	buffered []grid.IntVect // the buffered tags, handed to Cluster
}

// NewHierarchy builds a hierarchy whose base level covers cfg.Domain,
// decomposed into patches of at most cfg.MaxBoxSize per side and
// distributed over cfg.NRanks ranks. Finer levels appear through Regrid.
func NewHierarchy(cfg Config) *Hierarchy {
	c := cfg.withDefaults()
	if c.NComp < 1 {
		panic("amr: Config.NComp must be >= 1")
	}
	if c.Domain.IsEmpty() {
		panic("amr: empty domain")
	}
	h := &Hierarchy{Cfg: c}
	base := &Level{Domain: c.Domain}
	boxes := grid.Decompose(c.Domain, c.MaxBoxSize)
	grid.MortonSort(boxes)
	owners := grid.Assign(boxes, c.NRanks)
	for i, b := range boxes {
		base.Patches = append(base.Patches, &Patch{
			Box:   b,
			Data:  field.New(b, c.NComp),
			Owner: owners[i],
		})
	}
	h.Levels = []*Level{base}
	return h
}

// FinestLevel returns the index of the current finest level.
func (h *Hierarchy) FinestLevel() int { return len(h.Levels) - 1 }

// Level returns level l (which must exist).
func (h *Hierarchy) Level(l int) *Level { return h.Levels[l] }

// TotalCells returns the cell count summed over all levels.
func (h *Hierarchy) TotalCells() int64 {
	var n int64
	for _, l := range h.Levels {
		n += l.NumCells()
	}
	return n
}

// TotalBytes returns the payload bytes summed over all levels.
func (h *Hierarchy) TotalBytes() int64 {
	var n int64
	for _, l := range h.Levels {
		n += l.Bytes()
	}
	return n
}

// BytesPerRank returns payload bytes per rank, indexed by rank id. The
// distribution becomes imbalanced as refinement concentrates — the Fig. 1
// phenomenon the adaptations respond to.
func (h *Hierarchy) BytesPerRank() []int64 {
	out := make([]int64, h.Cfg.NRanks)
	for _, l := range h.Levels {
		for _, p := range l.Patches {
			out[p.Owner] += p.Data.Bytes()
		}
	}
	return out
}

// CellsPerRank returns cell counts per rank across all levels.
func (h *Hierarchy) CellsPerRank() []int64 {
	out := make([]int64, h.Cfg.NRanks)
	for _, l := range h.Levels {
		for _, p := range l.Patches {
			out[p.Owner] += p.Box.NumCells()
		}
	}
	return out
}

// CheckInvariants validates structural invariants: patches within domain,
// non-overlapping within a level, fine levels properly nested in coarse
// ones, and data boxes matching patch boxes. It returns the first
// violation found.
func (h *Hierarchy) CheckInvariants() error {
	for li, l := range h.Levels {
		for i, p := range l.Patches {
			if !l.Domain.ContainsBox(p.Box) {
				return fmt.Errorf("amr: level %d patch %v outside domain %v", li, p.Box, l.Domain)
			}
			if p.Data.Box != p.Box {
				return fmt.Errorf("amr: level %d patch %v has data box %v", li, p.Box, p.Data.Box)
			}
			for j := i + 1; j < len(l.Patches); j++ {
				if p.Box.Intersects(l.Patches[j].Box) {
					return fmt.Errorf("amr: level %d patches %v and %v overlap", li, p.Box, l.Patches[j].Box)
				}
			}
		}
		if li == 0 {
			continue
		}
		coarse := h.Levels[li-1]
		for _, p := range l.Patches {
			// Every fine patch must be covered by the union of coarse
			// patches when coarsened.
			remaining := []grid.Box{p.Box.Coarsen(h.Cfg.RefRatio)}
			for _, cp := range coarse.Patches {
				var next []grid.Box
				for _, r := range remaining {
					next = append(next, r.Subtract(cp.Box)...)
				}
				remaining = next
				if len(remaining) == 0 {
					break
				}
			}
			if len(remaining) != 0 {
				return fmt.Errorf("amr: level %d patch %v not nested in level %d", li, p.Box, li-1)
			}
		}
	}
	return nil
}

// AverageDown restricts every fine level onto the next coarser level
// (finest first), keeping coarse data consistent with covering fine data.
func (h *Hierarchy) AverageDown() {
	for li := h.FinestLevel(); li >= 1; li-- {
		fine, coarse := h.Levels[li], h.Levels[li-1]
		r := h.Cfg.RefRatio
		for _, fp := range fine.Patches {
			// Only coarse cells whose children are all present may be
			// replaced; chopping can misalign fine boxes with the ratio.
			full := grid.Box{
				Lo: fp.Box.Lo.Add(grid.IV(r-1, r-1, r-1)).Div(r),
				Hi: fp.Box.Hi.Add(grid.Unit).Div(r).Sub(grid.Unit),
			}
			for _, cp := range coarse.Patches {
				field.RestrictInto(cp.Data, fp.Data, r, cp.Box.Intersect(full))
			}
		}
	}
}
