package reduce

import (
	"math/rand"
	"testing"

	"crosslayer/internal/field"
	"crosslayer/internal/grid"
)

func cube(n int) *field.BoxData {
	return field.New(grid.BoxFromSize(grid.IV(0, 0, 0), grid.IV(n, n, n)), 1)
}

func TestApplyOps(t *testing.T) {
	d := cube(8)
	d.FillAll(2)
	for _, op := range []Op{Strided, Mean} {
		out := Apply(d, 2, op)
		if out.NumCells() != 64 {
			t.Errorf("%v: cells = %d, want 64", op, out.NumCells())
		}
		if out.Sum(0) != 2*64 {
			t.Errorf("%v: constant not preserved", op)
		}
	}
	if got := Apply(d, 1, Strided); got.NumCells() != d.NumCells() {
		t.Error("factor 1 changed size")
	}
}

func TestOpString(t *testing.T) {
	if Strided.String() != "strided" || Mean.String() != "mean" {
		t.Error("Op names wrong")
	}
	if Op(9).String() == "" {
		t.Error("unknown op should still render")
	}
}

func TestReducedBytes(t *testing.T) {
	if got := ReducedBytes(8000, 2); got != 1000 {
		t.Errorf("ReducedBytes = %d", got)
	}
	if got := ReducedBytes(8000, 1); got != 8000 {
		t.Errorf("factor 1 = %d", got)
	}
	defer func() {
		if recover() == nil {
			t.Error("factor 0 should panic")
		}
	}()
	ReducedBytes(8, 0)
}

func TestMemCost(t *testing.T) {
	// Reduction is out-of-place: input + output.
	if got := MemCost(8000, 2); got != 9000 {
		t.Errorf("MemCost = %d", got)
	}
	// Higher factors cost strictly less transient memory.
	if MemCost(8000, 4) >= MemCost(8000, 2) {
		t.Error("MemCost not monotone in factor")
	}
}

func TestNewEntropyPlanValidates(t *testing.T) {
	if _, err := NewEntropyPlan([]Band{{Below: 5, Factor: 0}}, 0); err == nil {
		t.Error("invalid factor accepted")
	}
	if _, err := NewEntropyPlan(nil, 1); err == nil {
		t.Error("nbins 1 accepted")
	}
	p, err := NewEntropyPlan([]Band{{Below: 8, Factor: 2}, {Below: 6, Factor: 4}}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if p.Bands[0].Below != 6 || p.Bands[1].Below != 8 {
		t.Errorf("bands not sorted: %v", p.Bands)
	}
	if p.NBins != 256 {
		t.Errorf("default NBins = %d", p.NBins)
	}
}

func TestEntropyPlanPreservesHighEntropy(t *testing.T) {
	// A noisy (high-entropy) block keeps full resolution; a near-constant
	// block is reduced by the aggressive factor.
	rng := rand.New(rand.NewSource(5))
	noisy := cube(8)
	for i := range noisy.Comp(0) {
		noisy.Comp(0)[i] = rng.Float64()
	}
	flat := cube(8)
	flat.FillAll(0.5)
	flat.Set(grid.IV(0, 0, 0), 0, 0.51) // tiny variation, still low entropy

	plan, err := NewEntropyPlan([]Band{{Below: 2, Factor: 4}, {Below: 5, Factor: 2}}, 64)
	if err != nil {
		t.Fatal(err)
	}
	dec := plan.Decide([]*field.BoxData{noisy, flat}, 0)
	if dec[0].Factor != 1 {
		t.Errorf("noisy block factor = %d (H=%.2f), want 1", dec[0].Factor, dec[0].Entropy)
	}
	if dec[1].Factor != 4 {
		t.Errorf("flat block factor = %d (H=%.2f), want 4", dec[1].Factor, dec[1].Entropy)
	}
	if dec[0].Entropy <= dec[1].Entropy {
		t.Error("entropy ordering wrong")
	}
}

func TestApplyPlanBytes(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	noisy := cube(8)
	for i := range noisy.Comp(0) {
		noisy.Comp(0)[i] = rng.Float64()
	}
	flat := cube(8)
	flat.FillAll(1)
	plan, _ := NewEntropyPlan([]Band{{Below: 1, Factor: 4}}, 64)
	blocks := []*field.BoxData{noisy, flat}
	reduced := make([]*field.BoxData, len(blocks))
	var bytes int64
	for i, dec := range plan.Decide(blocks, 0) {
		reduced[i] = Apply(blocks[i], dec.Factor, Strided)
		bytes += reduced[i].Bytes()
	}
	want := noisy.Bytes() + flat.Bytes()/64
	if bytes != want {
		t.Errorf("reduced bytes = %d, want %d", bytes, want)
	}
	if reduced[0].NumCells() != noisy.NumCells() {
		t.Error("high-entropy block was reduced")
	}
	if reduced[1].NumCells() != flat.NumCells()/64 {
		t.Error("low-entropy block was not reduced")
	}
}

func TestEntropyPlanEmptyBlocks(t *testing.T) {
	plan, _ := NewEntropyPlan([]Band{{Below: 5, Factor: 2}}, 64)
	if dec := plan.Decide(nil, 0); len(dec) != 0 {
		t.Errorf("Decide(nil) = %v", dec)
	}
}
