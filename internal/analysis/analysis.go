// Package analysis defines the pluggable analysis services the workflow
// can place in-situ or in-transit. The paper's evaluation uses marching-
// cubes isosurface extraction, and its §5.2.4 conclusion argues the
// approach extends to "other scalable analysis approaches with no/rare
// communications, such as descriptive statistic analysis, data subsetting,
// etc." — this package implements all three behind one interface so the
// placement machinery is agnostic to which analysis runs.
package analysis

import (
	"crosslayer/internal/entropy"
	"crosslayer/internal/field"
	"crosslayer/internal/grid"
	"crosslayer/internal/viz"
)

// Report is the outcome of one analysis execution.
type Report struct {
	CellsSwept int64              // cost driver: cells scanned (× passes)
	Metrics    map[string]float64 // service-specific results
}

// Service is a communication-free analysis kernel operating block-locally,
// which is what makes it placeable either in-situ or in-transit.
type Service interface {
	// SweepsPerCell is the number of passes over each cell, the factor the
	// Adaptation Engine's cost estimates multiply cell counts by. It must
	// match what Analyze actually does.
	SweepsPerCell() float64
	// Analyze runs the kernel over the blocks' component comp at grid
	// spacing dx.
	Analyze(blocks []*field.BoxData, comp int, dx float64) Report
}

// Isosurface is the paper's visualization service: marching-cubes
// extraction at one or more isovalues.
type Isosurface struct {
	svc *viz.Service
}

// NewIsosurface builds the service for the given isovalues.
func NewIsosurface(isovalues ...float64) *Isosurface {
	return &Isosurface{svc: viz.NewService(isovalues...)}
}

// SweepsPerCell implements Service: one sweep per isovalue.
func (s *Isosurface) SweepsPerCell() float64 { return float64(len(s.svc.Isovalues)) }

// Analyze implements Service.
func (s *Isosurface) Analyze(blocks []*field.BoxData, comp int, dx float64) Report {
	st := s.svc.Measure(blocks, comp, dx)
	return Report{
		CellsSwept: st.CellsSwept,
		Metrics: map[string]float64{
			"triangles": float64(st.Triangles),
			"area":      st.Area,
		},
	}
}

// Statistics is the descriptive-statistics service: global min/max, mean,
// variance, L2 norm and a histogram-based entropy of the swept data.
type Statistics struct {
	Bins int // histogram resolution (default 64)
}

// NewStatistics builds the service.
func NewStatistics(bins int) *Statistics {
	if bins <= 0 {
		bins = 64
	}
	return &Statistics{Bins: bins}
}

// SweepsPerCell implements Service: two passes (range, then moments +
// histogram).
func (s *Statistics) SweepsPerCell() float64 { return 2 }

// Analyze implements Service.
func (s *Statistics) Analyze(blocks []*field.BoxData, comp int, dx float64) Report {
	var cells int64
	lo, hi := 0.0, 0.0
	first := true
	for _, b := range blocks {
		blo, bhi := b.MinMax(comp)
		if first {
			lo, hi, first = blo, bhi, false
		} else {
			if blo < lo {
				lo = blo
			}
			if bhi > hi {
				hi = bhi
			}
		}
		cells += b.NumCells()
	}
	var sum, sumSq float64
	counts := make([]int64, s.Bins)
	for _, b := range blocks {
		for _, v := range b.Comp(comp) {
			sum += v
			sumSq += v * v
		}
		for i, n := range entropy.Histogram(b, comp, s.Bins, lo, hi) {
			counts[i] += n
		}
	}
	mean, variance := 0.0, 0.0
	if cells > 0 {
		mean = sum / float64(cells)
		variance = sumSq/float64(cells) - mean*mean
		if variance < 0 {
			variance = 0
		}
	}
	return Report{
		CellsSwept: 2 * cells,
		Metrics: map[string]float64{
			"min":      lo,
			"max":      hi,
			"mean":     mean,
			"variance": variance,
			"entropy":  entropy.FromCounts(counts),
		},
	}
}

// Subset is the data-subsetting service: it extracts the portion of the
// data inside a region of interest (what a scientist pulls out for closer
// inspection).
type Subset struct {
	Region grid.Box
}

// NewSubset builds the service for a region of interest.
func NewSubset(region grid.Box) *Subset { return &Subset{Region: region} }

// SweepsPerCell implements Service.
func (s *Subset) SweepsPerCell() float64 { return 1 }

// Analyze implements Service.
func (s *Subset) Analyze(blocks []*field.BoxData, comp int, dx float64) Report {
	var cells, outBytes int64
	for _, b := range blocks {
		cells += b.NumCells()
		is := b.Box.Intersect(s.Region)
		if !is.IsEmpty() {
			outBytes += is.NumCells() * 8
		}
	}
	return Report{
		CellsSwept: cells,
		Metrics:    map[string]float64{"subset_bytes": float64(outBytes)},
	}
}
