package field

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"crosslayer/internal/grid"
)

func box(l0, l1, l2, h0, h1, h2 int) grid.Box {
	return grid.NewBox(grid.IV(l0, l1, l2), grid.IV(h0, h1, h2))
}

func TestNewAndAccessors(t *testing.T) {
	b := box(0, 0, 0, 3, 3, 3)
	d := New(b, 2)
	if d.NumCells() != 64 {
		t.Fatalf("NumCells = %d", d.NumCells())
	}
	if d.Bytes() != 64*2*8 {
		t.Errorf("Bytes = %d", d.Bytes())
	}
	p := grid.IV(2, 1, 3)
	d.Set(p, 1, 4.5)
	if got := d.Get(p, 1); got != 4.5 {
		t.Errorf("Get = %v", got)
	}
	if got := d.Get(p, 0); got != 0 {
		t.Errorf("component 0 contaminated: %v", got)
	}
	d.Add(p, 1, 0.5)
	if got := d.Get(p, 1); got != 5.0 {
		t.Errorf("Add = %v", got)
	}
	d.Fill(0, 7)
	if d.Get(grid.IV(0, 0, 0), 0) != 7 || d.Get(p, 1) != 5 {
		t.Error("Fill crossed components")
	}
	d.FillAll(1)
	if d.Sum(0) != 64 || d.Sum(1) != 64 {
		t.Error("FillAll wrong")
	}
}

func TestCompSliceAliases(t *testing.T) {
	d := New(box(0, 0, 0, 1, 1, 1), 2)
	d.Comp(1)[3] = 9
	if got := d.Get(d.Box.Cell(3), 1); got != 9 {
		t.Errorf("Comp slice does not alias storage: %v", got)
	}
}

func TestCloneIsDeep(t *testing.T) {
	d := New(box(0, 0, 0, 2, 2, 2), 1)
	d.FillAll(3)
	c := d.Clone()
	c.Set(grid.IV(1, 1, 1), 0, -1)
	if d.Get(grid.IV(1, 1, 1), 0) != 3 {
		t.Error("Clone shares storage")
	}
}

func TestCopyFromIntersection(t *testing.T) {
	src := New(box(0, 0, 0, 7, 7, 7), 1)
	src.Box.ForEach(func(p grid.IntVect) {
		src.Set(p, 0, float64(p.X+10*p.Y+100*p.Z))
	})
	dst := New(box(4, 4, 4, 11, 11, 11), 1)
	dst.FillAll(-1)
	dst.CopyFrom(src)
	dst.Box.ForEach(func(p grid.IntVect) {
		want := -1.0
		if src.Box.Contains(p) {
			want = float64(p.X + 10*p.Y + 100*p.Z)
		}
		if got := dst.Get(p, 0); got != want {
			t.Fatalf("CopyFrom at %v = %v, want %v", p, got, want)
		}
	})
}

func TestCopyFromDisjointNoop(t *testing.T) {
	src := New(box(0, 0, 0, 1, 1, 1), 1)
	src.FillAll(5)
	dst := New(box(10, 10, 10, 11, 11, 11), 1)
	dst.CopyFrom(src)
	if dst.Sum(0) != 0 {
		t.Error("CopyFrom disjoint changed destination")
	}
}

// TestSubset copies a sub-box out of a larger container with CopyFrom.
func TestSubset(t *testing.T) {
	d := New(box(0, 0, 0, 7, 7, 7), 1)
	d.Box.ForEach(func(p grid.IntVect) { d.Set(p, 0, float64(p.X)) })
	s := New(box(2, 2, 2, 5, 5, 5), 1)
	s.CopyFrom(d)
	if s.NumCells() != 64 {
		t.Fatalf("Subset cells = %d", s.NumCells())
	}
	s.Box.ForEach(func(p grid.IntVect) {
		if s.Get(p, 0) != float64(p.X) {
			t.Fatalf("Subset value at %v = %v", p, s.Get(p, 0))
		}
	})
}

func TestNorms(t *testing.T) {
	d := New(box(0, 0, 0, 1, 0, 0), 1)
	d.Set(grid.IV(0, 0, 0), 0, 3)
	d.Set(grid.IV(1, 0, 0), 0, -4)
	lo, hi := d.MinMax(0)
	if lo != -4 || hi != 3 {
		t.Errorf("MinMax = %v %v", lo, hi)
	}
}

// restrict restricts all of fine into a fresh coarse block whose cells
// start as NaN, so a cell RestrictInto skips cannot pass for a mean.
func restrict(fine *BoxData, r int) *BoxData {
	coarse := New(fine.Box.Coarsen(r), fine.NComp)
	coarse.FillAll(math.NaN())
	RestrictInto(coarse, fine, r, coarse.Box)
	return coarse
}

func TestRestrictConstant(t *testing.T) {
	// Restriction of a constant field is the same constant: conservation.
	fine := New(box(0, 0, 0, 7, 7, 7), 2)
	fine.Fill(0, 2.5)
	fine.Fill(1, -1)
	coarse := restrict(fine, 2)
	coarse.Box.ForEach(func(p grid.IntVect) {
		if coarse.Get(p, 0) != 2.5 || coarse.Get(p, 1) != -1 {
			t.Fatalf("Restrict not constant-preserving at %v", p)
		}
	})
}

func TestRestrictConserves(t *testing.T) {
	// sum(coarse)*r^3 == sum(fine) for averaging restriction.
	rng := rand.New(rand.NewSource(3))
	fine := New(box(0, 0, 0, 7, 7, 7), 1)
	for i := range fine.Comp(0) {
		fine.Comp(0)[i] = rng.Float64()
	}
	for _, r := range []int{2, 4} {
		coarse := restrict(fine, r)
		if math.Abs(coarse.Sum(0)*float64(r*r*r)-fine.Sum(0)) > 1e-9 {
			t.Errorf("Restrict(r=%d) not conservative", r)
		}
	}
}

func TestProlongRestrictIdentity(t *testing.T) {
	// Restrict∘Prolong is the identity on the coarse data.
	rng := rand.New(rand.NewSource(4))
	coarse := New(box(0, 0, 0, 3, 3, 3), 1)
	for i := range coarse.Comp(0) {
		coarse.Comp(0)[i] = rng.Float64()
	}
	fine := Prolong(coarse, coarse.Box.Refine(2), 2)
	back := restrict(fine, 2)
	coarse.Box.ForEach(func(p grid.IntVect) {
		if math.Abs(back.Get(p, 0)-coarse.Get(p, 0)) > 1e-12 {
			t.Fatalf("Restrict(Prolong) != id at %v", p)
		}
	})
}

func TestProlongSubBox(t *testing.T) {
	coarse := New(box(0, 0, 0, 3, 3, 3), 1)
	coarse.Box.ForEach(func(p grid.IntVect) { coarse.Set(p, 0, float64(p.Z)) })
	fineBox := box(2, 2, 2, 5, 5, 5) // covers coarse cells (1,1,1)-(2,2,2)
	fine := Prolong(coarse, fineBox, 2)
	fine.Box.ForEach(func(p grid.IntVect) {
		if got, want := fine.Get(p, 0), float64(p.Z/2); got != want {
			t.Fatalf("Prolong at %v = %v, want %v", p, got, want)
		}
	})
}

func TestProlongPanicsOutside(t *testing.T) {
	coarse := New(box(0, 0, 0, 3, 3, 3), 1)
	defer func() {
		if recover() == nil {
			t.Error("Prolong outside coarse box should panic")
		}
	}()
	Prolong(coarse, box(0, 0, 0, 15, 15, 15), 2)
}

func TestDownsampleFactor1Clones(t *testing.T) {
	d := New(box(0, 0, 0, 3, 3, 3), 1)
	d.FillAll(2)
	out := Downsample(d, 1)
	if out.Box != d.Box || out.Sum(0) != d.Sum(0) {
		t.Error("Downsample(1) should clone")
	}
	out.FillAll(0)
	if d.Sum(0) == 0 {
		t.Error("Downsample(1) aliased input")
	}
}

func TestDownsampleStride(t *testing.T) {
	d := New(box(0, 0, 0, 7, 7, 7), 1)
	d.Box.ForEach(func(p grid.IntVect) { d.Set(p, 0, float64(p.X+8*p.Y+64*p.Z)) })
	out := Downsample(d, 2)
	if out.Box != box(0, 0, 0, 3, 3, 3) {
		t.Fatalf("Downsample box = %v", out.Box)
	}
	out.Box.ForEach(func(p grid.IntVect) {
		want := float64(2*p.X + 8*2*p.Y + 64*2*p.Z)
		if got := out.Get(p, 0); got != want {
			t.Fatalf("Downsample at %v = %v, want %v", p, got, want)
		}
	})
}

func TestDownsampleReducesBytesByX3(t *testing.T) {
	d := New(box(0, 0, 0, 15, 15, 15), 1)
	for _, x := range []int{2, 4, 8} {
		out := Downsample(d, x)
		if got, want := out.Bytes(), d.Bytes()/int64(x*x*x); got != want {
			t.Errorf("factor %d: bytes %d, want %d", x, got, want)
		}
	}
}

func TestDownsampleMeanConstant(t *testing.T) {
	d := New(box(0, 0, 0, 7, 7, 7), 1)
	d.FillAll(3)
	out := DownsampleMean(d, 4)
	out.Box.ForEach(func(p grid.IntVect) {
		if out.Get(p, 0) != 3 {
			t.Fatalf("mean downsample of constant != constant")
		}
	})
}

func TestDownsampleProperty(t *testing.T) {
	// Strided downsampling never invents values: every output value must
	// exist in the input.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		d := New(box(0, 0, 0, 7, 7, 7), 1)
		for i := range d.Comp(0) {
			d.Comp(0)[i] = rng.Float64()
		}
		present := make(map[float64]bool, len(d.Comp(0)))
		for _, v := range d.Comp(0) {
			present[v] = true
		}
		out := Downsample(d, 2)
		for _, v := range out.Comp(0) {
			if !present[v] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

func TestUpsampleRMSError(t *testing.T) {
	// A linear ramp downsampled then upsampled has bounded, nonzero error;
	// a constant field has zero error.
	d := New(box(0, 0, 0, 7, 7, 7), 1)
	d.FillAll(5)
	r := Downsample(d, 2)
	u := Upsample(r, 2, d.Box)
	if got := RMSError(d, u, 0); got != 0 {
		t.Errorf("constant field error = %v", got)
	}
	d.Box.ForEach(func(p grid.IntVect) { d.Set(p, 0, float64(p.X)) })
	u = Upsample(Downsample(d, 2), 2, d.Box)
	err := RMSError(d, u, 0)
	if err <= 0 || err > 1 {
		t.Errorf("ramp error = %v, want in (0,1]", err)
	}
}

func TestRMSErrorDisjoint(t *testing.T) {
	a := New(box(0, 0, 0, 1, 1, 1), 1)
	b := New(box(10, 10, 10, 11, 11, 11), 1)
	if RMSError(a, b, 0) != 0 {
		t.Error("disjoint RMSError should be 0")
	}
}
