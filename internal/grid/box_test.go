package grid

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestIntVectArithmetic(t *testing.T) {
	a, b := IV(1, 2, 3), IV(4, 5, 6)
	if got := a.Add(b); got != IV(5, 7, 9) {
		t.Errorf("Add = %v", got)
	}
	if got := b.Sub(a); got != IV(3, 3, 3) {
		t.Errorf("Sub = %v", got)
	}
	if got := a.Scale(3); got != IV(3, 6, 9) {
		t.Errorf("Scale = %v", got)
	}
	if got := a.Product(); got != 6 {
		t.Errorf("Product = %d", got)
	}
}

func TestIntVectDivFloors(t *testing.T) {
	// Floor division is load-bearing for Coarsen with negative indices.
	cases := []struct {
		in   IntVect
		s    int
		want IntVect
	}{
		{IV(-1, -2, -3), 2, IV(-1, -1, -2)},
		{IV(4, 5, 6), 2, IV(2, 2, 3)},
		{IV(-4, 0, 7), 4, IV(-1, 0, 1)},
	}
	for _, c := range cases {
		if got := c.in.Div(c.s); got != c.want {
			t.Errorf("%v.Div(%d) = %v, want %v", c.in, c.s, got, c.want)
		}
	}
}

func TestIntVectMinMaxComp(t *testing.T) {
	v := IV(3, -7, 5)
	if v.MaxComp() != 5 || v.MinComp() != -7 {
		t.Errorf("MaxComp/MinComp = %d/%d", v.MaxComp(), v.MinComp())
	}
	if v.MaxDim() != 2 {
		t.Errorf("MaxDim = %d", v.MaxDim())
	}
	if IV(9, 2, 9).MaxDim() != 0 {
		t.Errorf("MaxDim tie should pick lowest dim")
	}
	for d := 0; d < 3; d++ {
		if v.WithComp(d, 42).Comp(d) != 42 {
			t.Errorf("WithComp dim %d failed", d)
		}
	}
}

func TestBoxBasics(t *testing.T) {
	b := NewBox(IV(0, 0, 0), IV(3, 1, 0))
	if b.IsEmpty() {
		t.Fatal("box should not be empty")
	}
	if got := b.NumCells(); got != 8 {
		t.Errorf("NumCells = %d, want 8", got)
	}
	if got := b.Size(); got != IV(4, 2, 1) {
		t.Errorf("Size = %v", got)
	}
	if !b.Contains(IV(3, 1, 0)) || b.Contains(IV(4, 0, 0)) {
		t.Error("Contains wrong at boundary")
	}
	if Empty().NumCells() != 0 || !Empty().IsEmpty() {
		t.Error("Empty() is not empty")
	}
	if got := BoxFromSize(IV(2, 2, 2), IV(3, 3, 3)); got != NewBox(IV(2, 2, 2), IV(4, 4, 4)) {
		t.Errorf("BoxFromSize = %v", got)
	}
}

func TestBoxIntersectUnion(t *testing.T) {
	a := NewBox(IV(0, 0, 0), IV(7, 7, 7))
	b := NewBox(IV(4, 4, 4), IV(11, 11, 11))
	is := a.Intersect(b)
	if is != NewBox(IV(4, 4, 4), IV(7, 7, 7)) {
		t.Errorf("Intersect = %v", is)
	}
	if !a.Intersects(b) {
		t.Error("Intersects = false")
	}
	u := a.Union(b)
	if u != NewBox(IV(0, 0, 0), IV(11, 11, 11)) {
		t.Errorf("Union = %v", u)
	}
	far := NewBox(IV(100, 0, 0), IV(101, 1, 1))
	if a.Intersects(far) {
		t.Error("disjoint boxes reported intersecting")
	}
	if got := a.Union(Empty()); got != a {
		t.Errorf("Union with empty = %v", got)
	}
	if got := Empty().Union(a); got != a {
		t.Errorf("empty Union box = %v", got)
	}
}

func TestBoxRefineCoarsenRoundTrip(t *testing.T) {
	b := NewBox(IV(-2, 0, 3), IV(5, 7, 9))
	for _, r := range []int{1, 2, 4, 8} {
		rb := b.Refine(r)
		if got := rb.Coarsen(r); got != b {
			t.Errorf("Refine(%d).Coarsen(%d) = %v, want %v", r, r, got, b)
		}
		if rb.NumCells() != b.NumCells()*int64(r*r*r) {
			t.Errorf("Refine(%d) cell count %d, want %d", r, rb.NumCells(), b.NumCells()*int64(r*r*r))
		}
	}
}

func TestBoxCoarsenCovers(t *testing.T) {
	// coarsen then refine must cover the original box, including negative
	// corners.
	f := func(lox, loy, loz int8, sx, sy, sz uint8) bool {
		lo := IV(int(lox), int(loy), int(loz))
		b := BoxFromSize(lo, IV(int(sx%16)+1, int(sy%16)+1, int(sz%16)+1))
		c := b.Coarsen(4).Refine(4)
		return c.ContainsBox(b)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestBoxGrowShift(t *testing.T) {
	b := NewBox(IV(2, 2, 2), IV(4, 4, 4))
	if got := b.Grow(1); got != NewBox(IV(1, 1, 1), IV(5, 5, 5)) {
		t.Errorf("Grow = %v", got)
	}
	if got := b.Grow(1).Grow(-1); got != b {
		t.Errorf("Grow inverse = %v", got)
	}
	if got := b.GrowDir(1, 2); got != NewBox(IV(2, 0, 2), IV(4, 6, 4)) {
		t.Errorf("GrowDir = %v", got)
	}
	if got := b.Shift(IV(1, -1, 0)); got != NewBox(IV(3, 1, 2), IV(5, 3, 4)) {
		t.Errorf("Shift = %v", got)
	}
}

func TestBoxChop(t *testing.T) {
	b := NewBox(IV(0, 0, 0), IV(9, 9, 9))
	lo, hi := b.ChopDim(0, 4)
	if lo != NewBox(IV(0, 0, 0), IV(3, 9, 9)) || hi != NewBox(IV(4, 0, 0), IV(9, 9, 9)) {
		t.Errorf("ChopDim = %v / %v", lo, hi)
	}
	if lo.NumCells()+hi.NumCells() != b.NumCells() {
		t.Error("chop does not conserve cells")
	}
	defer func() {
		if recover() == nil {
			t.Error("ChopDim at Lo should panic")
		}
	}()
	b.ChopDim(0, 0)
}

func TestBoxSubtract(t *testing.T) {
	b := NewBox(IV(0, 0, 0), IV(7, 7, 7))
	hole := NewBox(IV(2, 2, 2), IV(5, 5, 5))
	parts := b.Subtract(hole)
	var cells int64
	for i, p := range parts {
		cells += p.NumCells()
		if p.Intersects(hole) {
			t.Errorf("part %d %v intersects hole", i, p)
		}
		for j := i + 1; j < len(parts); j++ {
			if p.Intersects(parts[j]) {
				t.Errorf("parts %d and %d overlap", i, j)
			}
		}
	}
	if cells != b.NumCells()-hole.NumCells() {
		t.Errorf("Subtract cells = %d, want %d", cells, b.NumCells()-hole.NumCells())
	}
	if got := b.Subtract(b); got != nil {
		t.Errorf("self-subtract = %v, want nil", got)
	}
	off := NewBox(IV(100, 100, 100), IV(101, 101, 101))
	if got := b.Subtract(off); len(got) != 1 || got[0] != b {
		t.Errorf("disjoint subtract = %v", got)
	}
}

func TestBoxSubtractProperty(t *testing.T) {
	// For random box pairs: subtraction parts are disjoint from the
	// subtrahend, mutually disjoint, and conserve cell count.
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 200; i++ {
		b := BoxFromSize(IV(rng.Intn(8)-4, rng.Intn(8)-4, rng.Intn(8)-4),
			IV(rng.Intn(8)+1, rng.Intn(8)+1, rng.Intn(8)+1))
		o := BoxFromSize(IV(rng.Intn(8)-4, rng.Intn(8)-4, rng.Intn(8)-4),
			IV(rng.Intn(8)+1, rng.Intn(8)+1, rng.Intn(8)+1))
		parts := b.Subtract(o)
		var cells int64
		for j, p := range parts {
			if p.IsEmpty() {
				t.Fatalf("empty part from %v - %v", b, o)
			}
			if p.Intersects(o) {
				t.Fatalf("part %v intersects subtrahend %v", p, o)
			}
			cells += p.NumCells()
			for k := j + 1; k < len(parts); k++ {
				if p.Intersects(parts[k]) {
					t.Fatalf("overlapping parts %v %v", p, parts[k])
				}
			}
		}
		want := b.NumCells() - b.Intersect(o).NumCells()
		if cells != want {
			t.Fatalf("cells %d want %d for %v - %v", cells, want, b, o)
		}
	}
}

func TestBoxOffsetCellRoundTrip(t *testing.T) {
	b := NewBox(IV(-1, 2, 3), IV(3, 5, 7))
	n := int(b.NumCells())
	seen := make(map[IntVect]bool, n)
	for i := 0; i < n; i++ {
		p := b.Cell(i)
		if !b.Contains(p) {
			t.Fatalf("Cell(%d) = %v outside box", i, p)
		}
		if got := b.Offset(p); got != i {
			t.Fatalf("Offset(Cell(%d)) = %d", i, got)
		}
		seen[p] = true
	}
	if len(seen) != n {
		t.Errorf("Cell enumerated %d distinct cells, want %d", len(seen), n)
	}
}

func TestBoxForEachOrder(t *testing.T) {
	b := NewBox(IV(0, 0, 0), IV(1, 1, 1))
	var got []IntVect
	b.ForEach(func(p IntVect) { got = append(got, p) })
	want := []IntVect{
		IV(0, 0, 0), IV(1, 0, 0), IV(0, 1, 0), IV(1, 1, 0),
		IV(0, 0, 1), IV(1, 0, 1), IV(0, 1, 1), IV(1, 1, 1),
	}
	if len(got) != len(want) {
		t.Fatalf("ForEach visited %d cells", len(got))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("ForEach[%d] = %v, want %v", i, got[i], want[i])
		}
	}
}

func TestMortonOrdersLocally(t *testing.T) {
	// The code of a point must be strictly between codes of the octant
	// corners it lies between — a weak but useful locality sanity check.
	if MortonCode(IV(0, 0, 0)) >= MortonCode(IV(1, 0, 0)) {
		t.Error("Morton ordering broken at origin")
	}
	if MortonCode(IV(1, 1, 1)) >= MortonCode(IV(0, 0, 2)) {
		t.Error("Morton octant ordering broken")
	}
}

func TestDecompose(t *testing.T) {
	dom := NewBox(IV(0, 0, 0), IV(31, 15, 15))
	boxes := Decompose(dom, 8)
	var cells int64
	for i, b := range boxes {
		if b.Size().MaxComp() > 8 {
			t.Errorf("box %v exceeds max size", b)
		}
		if !dom.ContainsBox(b) {
			t.Errorf("box %v outside domain", b)
		}
		cells += b.NumCells()
		for j := i + 1; j < len(boxes); j++ {
			if b.Intersects(boxes[j]) {
				t.Errorf("boxes %v and %v overlap", b, boxes[j])
			}
		}
	}
	if cells != dom.NumCells() {
		t.Errorf("Decompose covers %d cells, want %d", cells, dom.NumCells())
	}
	if got := Decompose(Empty(), 8); got != nil {
		t.Errorf("Decompose empty = %v", got)
	}
}

func TestAssignBalances(t *testing.T) {
	dom := NewBox(IV(0, 0, 0), IV(31, 31, 31))
	boxes := Decompose(dom, 8)
	MortonSort(boxes)
	n := 8
	owner := Assign(boxes, n)
	load := make([]int64, n)
	for i, b := range boxes {
		if owner[i] < 0 || owner[i] >= n {
			t.Fatalf("owner out of range: %d", owner[i])
		}
		load[owner[i]] += b.NumCells()
	}
	ideal := float64(dom.NumCells()) / float64(n)
	for r, l := range load {
		if float64(l) < 0.5*ideal || float64(l) > 1.5*ideal {
			t.Errorf("rank %d load %d far from ideal %.0f", r, l, ideal)
		}
	}
	// ownership must be monotone along the curve (contiguous segments)
	for i := 1; i < len(owner); i++ {
		if owner[i] < owner[i-1] {
			t.Errorf("owner sequence not monotone at %d", i)
		}
	}
}

func TestAssignEmptyAndSingle(t *testing.T) {
	if got := Assign(nil, 4); len(got) != 0 {
		t.Errorf("Assign(nil) = %v", got)
	}
	one := []Box{NewBox(IV(0, 0, 0), IV(3, 3, 3))}
	got := Assign(one, 4)
	if len(got) != 1 || got[0] != 0 {
		t.Errorf("Assign single = %v", got)
	}
}
