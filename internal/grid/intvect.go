// Package grid provides the integer-lattice geometry substrate used by the
// block-structured AMR machinery: integer vectors, axis-aligned integer
// boxes, refinement/coarsening algebra, space-filling-curve orderings and
// domain decomposition helpers.
//
// The design follows the conventions of block-structured AMR libraries such
// as Chombo: a Box is a closed integer interval [Lo, Hi] in index space, a
// refinement by factor r maps cell i to cells [i*r, i*r+r-1], and coarsening
// uses floor division so that refine∘coarsen is a covering operation.
package grid

import "fmt"

// IntVect is a point on the 3-D integer lattice. It is used both as a cell
// index and as an extent (size) vector.
type IntVect struct {
	X, Y, Z int
}

// IV is shorthand for constructing an IntVect.
func IV(x, y, z int) IntVect { return IntVect{x, y, z} }

// Unit is the IntVect with all components equal to 1.
var Unit = IntVect{1, 1, 1}

// Zero is the zero IntVect.
var Zero = IntVect{0, 0, 0}

// Add returns the componentwise sum v+w.
func (v IntVect) Add(w IntVect) IntVect { return IntVect{v.X + w.X, v.Y + w.Y, v.Z + w.Z} }

// Sub returns the componentwise difference v-w.
func (v IntVect) Sub(w IntVect) IntVect { return IntVect{v.X - w.X, v.Y - w.Y, v.Z - w.Z} }

// Scale returns the componentwise product v*s.
func (v IntVect) Scale(s int) IntVect { return IntVect{v.X * s, v.Y * s, v.Z * s} }

// Div returns the componentwise floor division v/s for positive s.
// Floor (not truncating) division keeps coarsening correct for negative
// indices: -1/2 must coarsen to -1, not 0.
func (v IntVect) Div(s int) IntVect {
	return IntVect{floorDiv(v.X, s), floorDiv(v.Y, s), floorDiv(v.Z, s)}
}

func floorDiv(a, b int) int {
	q := a / b
	if (a%b != 0) && ((a < 0) != (b < 0)) {
		q--
	}
	return q
}

// Min returns the componentwise minimum of v and w.
func (v IntVect) Min(w IntVect) IntVect {
	return IntVect{min(v.X, w.X), min(v.Y, w.Y), min(v.Z, w.Z)}
}

// Max returns the componentwise maximum of v and w.
func (v IntVect) Max(w IntVect) IntVect {
	return IntVect{max(v.X, w.X), max(v.Y, w.Y), max(v.Z, w.Z)}
}

// Comp returns component d (0=X, 1=Y, 2=Z). It panics for other d.
func (v IntVect) Comp(d int) int {
	switch d {
	case 0:
		return v.X
	case 1:
		return v.Y
	case 2:
		return v.Z
	}
	panic(fmt.Sprintf("grid: invalid dimension %d", d))
}

// WithComp returns a copy of v with component d replaced by val.
func (v IntVect) WithComp(d, val int) IntVect {
	switch d {
	case 0:
		v.X = val
	case 1:
		v.Y = val
	case 2:
		v.Z = val
	default:
		panic(fmt.Sprintf("grid: invalid dimension %d", d))
	}
	return v
}

// Product returns X*Y*Z; for an extent vector this is the cell count.
func (v IntVect) Product() int64 { return int64(v.X) * int64(v.Y) * int64(v.Z) }

// AllGE reports whether every component of v is >= the matching component
// of w.
func (v IntVect) AllGE(w IntVect) bool { return v.X >= w.X && v.Y >= w.Y && v.Z >= w.Z }

// AllLE reports whether every component of v is <= the matching component
// of w.
func (v IntVect) AllLE(w IntVect) bool { return v.X <= w.X && v.Y <= w.Y && v.Z <= w.Z }

// MaxComp returns the largest component.
func (v IntVect) MaxComp() int { return max(v.X, max(v.Y, v.Z)) }

// MinComp returns the smallest component.
func (v IntVect) MinComp() int { return min(v.X, min(v.Y, v.Z)) }

// MaxDim returns the dimension (0, 1, or 2) holding the largest component;
// ties resolve to the lowest dimension.
func (v IntVect) MaxDim() int {
	d := 0
	if v.Y > v.Comp(d) {
		d = 1
	}
	if v.Z > v.Comp(d) {
		d = 2
	}
	return d
}

// String renders the vector as "(x,y,z)".
func (v IntVect) String() string { return fmt.Sprintf("(%d,%d,%d)", v.X, v.Y, v.Z) }
