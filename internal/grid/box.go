package grid

import "fmt"

// Box is a closed axis-aligned integer box [Lo, Hi] in cell-index space.
// A Box with any Hi component strictly less than the matching Lo component
// is empty. The zero Box is the single cell at the origin; use Empty() for
// an explicitly empty box.
type Box struct {
	Lo, Hi IntVect
}

// NewBox builds the box [lo, hi].
func NewBox(lo, hi IntVect) Box { return Box{lo, hi} }

// BoxFromSize builds the box with low corner lo and the given extent,
// i.e. [lo, lo+size-1].
func BoxFromSize(lo, size IntVect) Box {
	return Box{lo, lo.Add(size).Sub(Unit)}
}

// Empty returns a canonical empty box.
func Empty() Box { return Box{Unit, Zero} }

// IsEmpty reports whether b contains no cells.
func (b Box) IsEmpty() bool { return b.Hi.X < b.Lo.X || b.Hi.Y < b.Lo.Y || b.Hi.Z < b.Lo.Z }

// Size returns the extent vector Hi-Lo+1. Empty boxes report a zero or
// negative component.
func (b Box) Size() IntVect { return b.Hi.Sub(b.Lo).Add(Unit) }

// NumCells returns the number of cells in the box (0 when empty).
func (b Box) NumCells() int64 {
	if b.IsEmpty() {
		return 0
	}
	return int64(b.Hi.X-b.Lo.X+1) * int64(b.Hi.Y-b.Lo.Y+1) * int64(b.Hi.Z-b.Lo.Z+1)
}

// Contains reports whether cell p lies inside b.
func (b Box) Contains(p IntVect) bool { return p.AllGE(b.Lo) && p.AllLE(b.Hi) }

// ContainsBox reports whether every cell of o lies inside b. An empty o is
// contained in every box.
func (b Box) ContainsBox(o Box) bool {
	if o.IsEmpty() {
		return true
	}
	return o.Lo.AllGE(b.Lo) && o.Hi.AllLE(b.Hi)
}

// Intersect returns the intersection of b and o (possibly empty).
func (b Box) Intersect(o Box) Box { return Box{b.Lo.Max(o.Lo), b.Hi.Min(o.Hi)} }

// Intersects reports whether b and o share at least one cell.
func (b Box) Intersects(o Box) bool { return !b.Intersect(o).IsEmpty() }

// Union returns the smallest box covering both b and o. An empty operand is
// ignored.
func (b Box) Union(o Box) Box {
	if b.IsEmpty() {
		return o
	}
	if o.IsEmpty() {
		return b
	}
	return Box{b.Lo.Min(o.Lo), b.Hi.Max(o.Hi)}
}

// Grow expands the box by n cells in every direction (negative n shrinks).
func (b Box) Grow(n int) Box {
	g := IntVect{n, n, n}
	return Box{b.Lo.Sub(g), b.Hi.Add(g)}
}

// GrowDir expands the box by n cells in both directions along dimension d.
func (b Box) GrowDir(d, n int) Box {
	return Box{b.Lo.WithComp(d, b.Lo.Comp(d)-n), b.Hi.WithComp(d, b.Hi.Comp(d)+n)}
}

// Shift translates the box by v.
func (b Box) Shift(v IntVect) Box { return Box{b.Lo.Add(v), b.Hi.Add(v)} }

// Refine maps the box to a finer index space: cell i becomes cells
// [i*r, i*r+r-1]. r must be >= 1.
func (b Box) Refine(r int) Box {
	if r < 1 {
		panic(fmt.Sprintf("grid: invalid refinement ratio %d", r))
	}
	if b.IsEmpty() {
		return b
	}
	return Box{b.Lo.Scale(r), b.Hi.Scale(r).Add(IntVect{r - 1, r - 1, r - 1})}
}

// Coarsen maps the box to a coarser index space with floor division, so
// that b.Coarsen(r).Refine(r) covers b. r must be >= 1.
func (b Box) Coarsen(r int) Box {
	if r < 1 {
		panic(fmt.Sprintf("grid: invalid coarsening ratio %d", r))
	}
	if b.IsEmpty() {
		return b
	}
	return Box{b.Lo.Div(r), b.Hi.Div(r)}
}

// ChopDim splits b along dimension d at index at: the returned lower part
// covers indices < at and the upper part covers indices >= at. at must lie
// strictly inside (Lo.Comp(d), Hi.Comp(d)].
func (b Box) ChopDim(d, at int) (lower, upper Box) {
	if at <= b.Lo.Comp(d) || at > b.Hi.Comp(d) {
		panic(fmt.Sprintf("grid: chop index %d outside box %v dim %d", at, b, d))
	}
	lower = Box{b.Lo, b.Hi.WithComp(d, at-1)}
	upper = Box{b.Lo.WithComp(d, at), b.Hi}
	return lower, upper
}

// Subtract returns b minus o as a set of disjoint boxes. The result is empty
// when o covers b and is {b} when they do not intersect.
func (b Box) Subtract(o Box) []Box {
	is := b.Intersect(o)
	if is.IsEmpty() {
		return []Box{b}
	}
	if is == b {
		return nil
	}
	var out []Box
	rem := b
	for d := 0; d < 3; d++ {
		if rem.Lo.Comp(d) < is.Lo.Comp(d) {
			lower, upper := rem.ChopDim(d, is.Lo.Comp(d))
			out = append(out, lower)
			rem = upper
		}
		if rem.Hi.Comp(d) > is.Hi.Comp(d) {
			lower, upper := rem.ChopDim(d, is.Hi.Comp(d)+1)
			out = append(out, upper)
			rem = lower
		}
	}
	return out
}

// Offset returns the linear row-major offset of cell p within b, ordering
// X fastest. p must be inside b. Like NumCells it is written out on the
// corner coordinates so that it inlines: both sit under every BoxData
// access.
func (b Box) Offset(p IntVect) int {
	nx, ny := b.Hi.X-b.Lo.X+1, b.Hi.Y-b.Lo.Y+1
	return ((p.Z-b.Lo.Z)*ny+(p.Y-b.Lo.Y))*nx + (p.X - b.Lo.X)
}

// Cell returns the cell at linear row-major offset i within b (inverse of
// Offset).
func (b Box) Cell(i int) IntVect {
	sz := b.Size()
	z := i / (sz.X * sz.Y)
	r := i % (sz.X * sz.Y)
	y := r / sz.X
	x := r % sz.X
	return IntVect{b.Lo.X + x, b.Lo.Y + y, b.Lo.Z + z}
}

// ForEach invokes f for every cell of b in row-major order (X fastest).
func (b Box) ForEach(f func(p IntVect)) {
	for z := b.Lo.Z; z <= b.Hi.Z; z++ {
		for y := b.Lo.Y; y <= b.Hi.Y; y++ {
			for x := b.Lo.X; x <= b.Hi.X; x++ {
				f(IntVect{x, y, z})
			}
		}
	}
}

// Center returns the (floor) center cell of the box.
func (b Box) Center() IntVect {
	return IntVect{(b.Lo.X + b.Hi.X) / 2, (b.Lo.Y + b.Hi.Y) / 2, (b.Lo.Z + b.Hi.Z) / 2}
}

// String renders the box as "[lo..hi]".
func (b Box) String() string { return fmt.Sprintf("[%v..%v]", b.Lo, b.Hi) }
