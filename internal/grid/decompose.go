package grid

import "sort"

// Decompose chops domain into boxes no larger than maxSize cells along any
// dimension by recursive bisection of the longest axis. The result covers
// the domain exactly with disjoint boxes. maxSize must be >= 1.
func Decompose(domain Box, maxSize int) []Box {
	if domain.IsEmpty() {
		return nil
	}
	if maxSize < 1 {
		panic("grid: Decompose maxSize must be >= 1")
	}
	if domain.Size().MaxComp() <= maxSize {
		return []Box{domain}
	}
	d := domain.Size().MaxDim()
	mid := domain.Lo.Comp(d) + domain.Size().Comp(d)/2
	lower, upper := domain.ChopDim(d, mid)
	return append(Decompose(lower, maxSize), Decompose(upper, maxSize)...)
}

// DecomposeAligned chops domain into boxes no larger than maxSize cells
// along any dimension, like Decompose, but only at plane indices that are
// multiples of align — so the pieces of a refined region stay aligned with
// the refinement ratio (which flux registers and restriction rely on).
// When no aligned plane strictly inside the box exists, the box is
// accepted as-is even if oversized.
func DecomposeAligned(domain Box, maxSize, align int) []Box {
	if domain.IsEmpty() {
		return nil
	}
	if maxSize < 1 || align < 1 {
		panic("grid: DecomposeAligned needs maxSize >= 1 and align >= 1")
	}
	if domain.Size().MaxComp() <= maxSize {
		return []Box{domain}
	}
	d := domain.Size().MaxDim()
	mid := domain.Lo.Comp(d) + domain.Size().Comp(d)/2
	// Snap to the nearest multiple of align inside (Lo, Hi]; floor division
	// keeps the snap correct for negative indices.
	at := floorDiv(mid, align) * align
	if at <= domain.Lo.Comp(d) {
		at += align
	}
	if at > domain.Hi.Comp(d) {
		return []Box{domain} // no aligned chop plane fits
	}
	lower, upper := domain.ChopDim(d, at)
	return append(DecomposeAligned(lower, maxSize, align), DecomposeAligned(upper, maxSize, align)...)
}

// MortonSort orders boxes by the Morton code of their low corner (offset so
// all coordinates are non-negative). Boxes adjacent in the returned order
// tend to be adjacent in space.
func MortonSort(boxes []Box) {
	if len(boxes) == 0 {
		return
	}
	off := boxes[0].Lo
	for _, b := range boxes[1:] {
		off = off.Min(b.Lo)
	}
	sort.SliceStable(boxes, func(i, j int) bool {
		return MortonCode(boxes[i].Lo.Sub(off)) < MortonCode(boxes[j].Lo.Sub(off))
	})
}

// Assign distributes boxes (assumed Morton-sorted for locality) over n
// ranks, balancing total cell count with a greedy contiguous-segment sweep.
// It returns rank assignments aligned with boxes. n must be >= 1.
func Assign(boxes []Box, n int) []int {
	if n < 1 {
		panic("grid: Assign n must be >= 1")
	}
	owner := make([]int, len(boxes))
	var total int64
	for _, b := range boxes {
		total += b.NumCells()
	}
	if total == 0 {
		return owner
	}
	perRank := float64(total) / float64(n)
	var acc int64
	rank := 0
	for i, b := range boxes {
		// Advance to the next rank when the running total passes the ideal
		// boundary, keeping each rank's segment contiguous on the curve.
		for rank < n-1 && float64(acc) >= perRank*float64(rank+1) {
			rank++
		}
		owner[i] = rank
		acc += b.NumCells()
	}
	return owner
}
