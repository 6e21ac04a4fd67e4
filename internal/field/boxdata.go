// Package field provides multi-component floating-point data defined on
// integer boxes (the analogue of Chombo's FArrayBox), plus the intergrid
// transfer operators — restriction, prolongation and strided downsampling —
// that both the AMR solvers and the application-layer data-reduction
// mechanism are built on.
package field

import (
	"fmt"
	"math"

	"crosslayer/internal/grid"
)

// BoxData holds NComp components of float64 data over every cell of Box,
// stored row-major (X fastest), component-major (all of component 0, then
// component 1, ...). The layout keeps per-component slices contiguous so
// stencil sweeps and downsampling stay cache-friendly.
type BoxData struct {
	Box   grid.Box
	NComp int
	data  []float64
}

// New allocates zero-initialized data over box with ncomp components.
func New(box grid.Box, ncomp int) *BoxData {
	if ncomp < 1 {
		panic("field: ncomp must be >= 1")
	}
	n := box.NumCells()
	if n < 0 {
		n = 0
	}
	return &BoxData{Box: box, NComp: ncomp, data: make([]float64, n*int64(ncomp))}
}

// Wrap returns data over box with ncomp components backed by values, laid out
// as New lays them out; the block takes ownership of values. It panics unless
// len(values) is exactly ncomp × box.NumCells().
func Wrap(box grid.Box, ncomp int, values []float64) *BoxData {
	if ncomp < 1 || int64(len(values)) != box.NumCells()*int64(ncomp) {
		panic(fmt.Sprintf("field: %d values for %v × %d components", len(values), box, ncomp))
	}
	return &BoxData{Box: box, NComp: ncomp, data: values}
}

// NumCells returns the number of cells covered per component.
func (d *BoxData) NumCells() int64 { return d.Box.NumCells() }

// Bytes returns the in-memory size of the payload in bytes.
func (d *BoxData) Bytes() int64 { return int64(len(d.data)) * 8 }

// Comp returns the contiguous slice holding component c.
func (d *BoxData) Comp(c int) []float64 {
	n := int(d.NumCells())
	return d.data[c*n : (c+1)*n]
}

// Get returns component c at cell p. p must be inside the box.
func (d *BoxData) Get(p grid.IntVect, c int) float64 {
	return d.data[c*int(d.NumCells())+d.Box.Offset(p)]
}

// Set assigns component c at cell p.
func (d *BoxData) Set(p grid.IntVect, c int, v float64) {
	d.data[c*int(d.NumCells())+d.Box.Offset(p)] = v
}

// Add accumulates v into component c at cell p.
func (d *BoxData) Add(p grid.IntVect, c int, v float64) {
	d.data[c*int(d.NumCells())+d.Box.Offset(p)] += v
}

// Fill sets every value of component c to v.
func (d *BoxData) Fill(c int, v float64) {
	s := d.Comp(c)
	for i := range s {
		s[i] = v
	}
}

// FillAll sets every value of every component to v.
func (d *BoxData) FillAll(v float64) {
	for i := range d.data {
		d.data[i] = v
	}
}

// Clone returns a deep copy.
func (d *BoxData) Clone() *BoxData {
	c := New(d.Box, d.NComp)
	copy(c.data, d.data)
	return c
}

// Sized returns data over box with ncomp components and unspecified
// contents: d itself, reshaped, when its backing array is large enough (d
// may be nil), otherwise a fresh allocation. It is how per-step scratch is
// kept across steps: a buffer whose patch changed shape under a regrid is
// reshaped or replaced here, never read at its old shape.
func Sized(d *BoxData, box grid.Box, ncomp int) *BoxData {
	n := int(box.NumCells()) * ncomp
	if d == nil || cap(d.data) < n {
		return New(box, ncomp)
	}
	d.Box, d.NComp, d.data = box, ncomp, d.data[:n]
	return d
}

// CopyFrom copies the values of src over the region where the two boxes
// intersect, for all components. Both must have the same NComp.
func (d *BoxData) CopyFrom(src *BoxData) {
	if d.NComp != src.NComp {
		panic(fmt.Sprintf("field: component mismatch %d vs %d", d.NComp, src.NComp))
	}
	d.CopyRegion(src, d.Box.Intersect(src.Box), grid.Zero, 0, 0, d.NComp)
}

// CopyRegion copies n components of src starting at sc into the components
// of d starting at dc, over region (in d's index space, inside d.Box), one
// row copy per (y, z). The source cell of q is q−shift, which must lie
// inside src.Box: a non-zero shift is how periodic images are copied.
func (d *BoxData) CopyRegion(src *BoxData, region grid.Box, shift grid.IntVect, dc, sc, n int) {
	if region.IsEmpty() {
		return
	}
	dn, sn := int(d.NumCells()), int(src.NumCells())
	dsz, ssz := d.Box.Size(), src.Box.Size()
	slo := region.Lo.Sub(shift).Sub(src.Box.Lo)
	nx := region.Size().X
	for c := 0; c < n; c++ {
		dcomp, scomp := d.data[(dc+c)*dn:(dc+c+1)*dn], src.data[(sc+c)*sn:(sc+c+1)*sn]
		for z := region.Lo.Z; z <= region.Hi.Z; z++ {
			for y := region.Lo.Y; y <= region.Hi.Y; y++ {
				do := ((z-d.Box.Lo.Z)*dsz.Y+(y-d.Box.Lo.Y))*dsz.X + (region.Lo.X - d.Box.Lo.X)
				so := ((z-region.Lo.Z+slo.Z)*ssz.Y+(y-region.Lo.Y+slo.Y))*ssz.X + slo.X
				copy(dcomp[do:do+nx], scomp[so:so+nx])
			}
		}
	}
}

// CopyCell copies all components of src at cell sp into d at cell p.
func (d *BoxData) CopyCell(p grid.IntVect, src *BoxData, sp grid.IntVect) {
	if d.NComp != src.NComp {
		panic(fmt.Sprintf("field: component mismatch %d vs %d", d.NComp, src.NComp))
	}
	dn, sn := int(d.NumCells()), int(src.NumCells())
	do, so := d.Box.Offset(p), src.Box.Offset(sp)
	for c := 0; c < d.NComp; c++ {
		d.data[c*dn+do] = src.data[c*sn+so]
	}
}

// Sum returns the sum of component c.
func (d *BoxData) Sum(c int) float64 {
	sum := 0.0
	for _, v := range d.Comp(c) {
		sum += v
	}
	return sum
}

// MinMax returns the smallest and largest value of component c. It returns
// (+Inf, -Inf) for empty data.
func (d *BoxData) MinMax(c int) (lo, hi float64) {
	lo, hi = math.Inf(1), math.Inf(-1)
	for _, v := range d.Comp(c) {
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	return lo, hi
}
