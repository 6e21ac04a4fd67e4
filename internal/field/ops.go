package field

import "crosslayer/internal/grid"

// Axpy computes d[c] += a * src[c] over the intersection of the two boxes,
// for one component pair.
func (d *BoxData) Axpy(a float64, src *BoxData, dc, sc int) {
	is := d.Box.Intersect(src.Box)
	if is.IsEmpty() {
		return
	}
	is.ForEach(func(p grid.IntVect) {
		d.Set(p, dc, d.Get(p, dc)+a*src.Get(p, sc))
	})
}

// Equal reports whether two containers hold identical boxes, component
// counts and values (exact float comparison).
func (d *BoxData) Equal(o *BoxData) bool {
	if d.Box != o.Box || d.NComp != o.NComp {
		return false
	}
	for c := 0; c < d.NComp; c++ {
		a, b := d.Comp(c), o.Comp(c)
		for i := range a {
			if a[i] != b[i] {
				return false
			}
		}
	}
	return true
}
