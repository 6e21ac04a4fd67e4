package field

import (
	"testing"

	"crosslayer/internal/grid"
)

func TestAxpy(t *testing.T) {
	a := New(box(0, 0, 0, 3, 3, 3), 1)
	a.FillAll(1)
	b := New(box(2, 2, 2, 5, 5, 5), 1)
	b.FillAll(10)
	a.Axpy(0.5, b, 0, 0)
	if got := a.Get(grid.IV(3, 3, 3), 0); got != 6 {
		t.Errorf("overlap value = %v, want 6", got)
	}
	if got := a.Get(grid.IV(0, 0, 0), 0); got != 1 {
		t.Errorf("non-overlap value changed: %v", got)
	}
	// Disjoint is a no-op.
	c := New(box(100, 100, 100, 101, 101, 101), 1)
	before := a.Sum(0)
	a.Axpy(2, c, 0, 0)
	if a.Sum(0) != before {
		t.Error("disjoint Axpy changed values")
	}
}

func TestEqual(t *testing.T) {
	a := New(box(0, 0, 0, 2, 2, 2), 2)
	b := a.Clone()
	if !a.Equal(b) {
		t.Error("clone not equal")
	}
	b.Set(grid.IV(1, 1, 1), 1, 42)
	if a.Equal(b) {
		t.Error("modified clone still equal")
	}
	c := New(box(0, 0, 0, 2, 2, 2), 1)
	if a.Equal(c) {
		t.Error("different ncomp equal")
	}
	d := New(box(0, 0, 0, 1, 2, 2), 2)
	if a.Equal(d) {
		t.Error("different box equal")
	}
}

func TestCopyCell(t *testing.T) {
	src := New(box(0, 0, 0, 1, 1, 1), 2)
	src.Set(grid.IV(1, 1, 1), 0, 5)
	src.Set(grid.IV(1, 1, 1), 1, 7)
	dst := New(box(0, 0, 0, 3, 3, 3), 2)
	dst.CopyCell(grid.IV(2, 2, 2), src, grid.IV(1, 1, 1))
	if dst.Get(grid.IV(2, 2, 2), 0) != 5 || dst.Get(grid.IV(2, 2, 2), 1) != 7 {
		t.Error("CopyCell missed a component")
	}
	defer func() {
		if recover() == nil {
			t.Error("component mismatch should panic")
		}
	}()
	dst.CopyCell(grid.IV(0, 0, 0), New(box(0, 0, 0, 0, 0, 0), 1), grid.IV(0, 0, 0))
}

func TestDownsampleMeanMisaligned(t *testing.T) {
	// A box whose low corner is not a multiple of the factor still reduces
	// correctly (partial blocks average over present cells only).
	d := New(box(1, 1, 1, 6, 6, 6), 1)
	d.FillAll(4)
	out := DownsampleMean(d, 4)
	out.Box.ForEach(func(p grid.IntVect) {
		if out.Get(p, 0) != 4 {
			t.Fatalf("misaligned mean at %v = %v", p, out.Get(p, 0))
		}
	})
}

func TestMinMaxEmptyComponents(t *testing.T) {
	d := New(box(0, 0, 0, 0, 0, 0), 1)
	lo, hi := d.MinMax(0)
	if lo != 0 || hi != 0 {
		t.Errorf("single-cell MinMax = %v %v", lo, hi)
	}
}
