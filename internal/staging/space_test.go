package staging

import (
	"errors"
	"sync"
	"testing"

	"crosslayer/internal/field"
	"crosslayer/internal/grid"
)

func dom() grid.Box { return grid.NewBox(grid.IV(0, 0, 0), grid.IV(63, 63, 63)) }

func block(lo grid.IntVect, n int, val float64) *field.BoxData {
	d := field.New(grid.BoxFromSize(lo, grid.IV(n, n, n)), 1)
	d.FillAll(val)
	return d
}

func TestPutGetRoundTrip(t *testing.T) {
	sp := NewSpace(4, 0, dom())
	if err := sp.Put("rho", 0, block(grid.IV(0, 0, 0), 8, 1)); err != nil {
		t.Fatal(err)
	}
	if err := sp.Put("rho", 0, block(grid.IV(8, 0, 0), 8, 2)); err != nil {
		t.Fatal(err)
	}
	got, err := sp.Get("rho", 0, grid.NewBox(grid.IV(4, 0, 0), grid.IV(11, 7, 7)))
	if err != nil {
		t.Fatal(err)
	}
	if v := got.Get(grid.IV(4, 0, 0), 0); v != 1 {
		t.Errorf("left region = %v", v)
	}
	if v := got.Get(grid.IV(11, 0, 0), 0); v != 2 {
		t.Errorf("right region = %v", v)
	}
}

func TestGetMissingVersion(t *testing.T) {
	sp := NewSpace(2, 0, dom())
	sp.Put("rho", 0, block(grid.IV(0, 0, 0), 4, 1))
	if _, err := sp.Get("rho", 1, dom()); !errors.Is(err, ErrNotFound) {
		t.Errorf("missing version err = %v", err)
	}
	if _, err := sp.Get("u", 0, dom()); !errors.Is(err, ErrNotFound) {
		t.Errorf("missing var err = %v", err)
	}
	if _, err := sp.Get("rho", 0, grid.NewBox(grid.IV(40, 40, 40), grid.IV(41, 41, 41))); !errors.Is(err, ErrNotFound) {
		t.Errorf("disjoint region err = %v", err)
	}
}

func TestVersionsIsolated(t *testing.T) {
	sp := NewSpace(2, 0, dom())
	sp.Put("rho", 0, block(grid.IV(0, 0, 0), 4, 1))
	sp.Put("rho", 1, block(grid.IV(0, 0, 0), 4, 9))
	got, err := sp.Get("rho", 0, grid.BoxFromSize(grid.IV(0, 0, 0), grid.IV(4, 4, 4)))
	if err != nil {
		t.Fatal(err)
	}
	if v := got.Get(grid.IV(0, 0, 0), 0); v != 1 {
		t.Errorf("version 0 contaminated: %v", v)
	}
}

func TestGetBlocks(t *testing.T) {
	sp := NewSpace(4, 0, dom())
	sp.Put("rho", 0, block(grid.IV(0, 0, 0), 8, 1))
	sp.Put("rho", 0, block(grid.IV(32, 32, 32), 8, 2))
	blocks, err := sp.GetBlocks("rho", 0, dom())
	if err != nil {
		t.Fatal(err)
	}
	if len(blocks) != 2 {
		t.Fatalf("got %d blocks", len(blocks))
	}
	// narrow region returns only the intersecting block
	blocks, err = sp.GetBlocks("rho", 0, grid.BoxFromSize(grid.IV(0, 0, 0), grid.IV(4, 4, 4)))
	if err != nil || len(blocks) != 1 {
		t.Fatalf("narrow query: %d blocks, err %v", len(blocks), err)
	}
}

func TestMemoryAccountingAndExhaustion(t *testing.T) {
	blockBytes := int64(4*4*4) * 8
	sp := NewSpace(1, blockBytes+1, dom()) // room for exactly one block
	if err := sp.Put("rho", 0, block(grid.IV(0, 0, 0), 4, 1)); err != nil {
		t.Fatal(err)
	}
	if got := sp.MemUsed(); got != blockBytes {
		t.Errorf("MemUsed = %d, want %d", got, blockBytes)
	}
	err := sp.Put("rho", 0, block(grid.IV(8, 0, 0), 4, 1))
	if !errors.Is(err, ErrNoMemory) {
		t.Errorf("expected ErrNoMemory, got %v", err)
	}
}

func TestDropBeforeFreesMemory(t *testing.T) {
	sp := NewSpace(2, 0, dom())
	for v := 0; v < 3; v++ {
		sp.Put("rho", v, block(grid.IV(0, 0, 0), 4, 1))
		sp.Put("rho", v, block(grid.IV(32, 32, 32), 4, 1))
	}
	used := sp.MemUsed()
	freed := sp.DropBefore("rho", 2)
	if freed != used*2/3 {
		t.Errorf("freed %d, want %d", freed, used*2/3)
	}
	if _, err := sp.Get("rho", 0, dom()); !errors.Is(err, ErrNotFound) {
		t.Error("version 0 survived DropBefore")
	}
	if _, err := sp.Get("rho", 2, dom()); err != nil {
		t.Error("version 2 was evicted")
	}
}

func TestDropBeforeOtherVarUntouched(t *testing.T) {
	sp := NewSpace(1, 0, dom())
	sp.Put("rho", 0, block(grid.IV(0, 0, 0), 4, 1))
	sp.Put("u", 0, block(grid.IV(0, 0, 0), 4, 2))
	sp.DropBefore("rho", 5)
	if _, err := sp.Get("u", 0, dom()); err != nil {
		t.Error("DropBefore crossed variables")
	}
}

func TestPutEmptyRejected(t *testing.T) {
	sp := NewSpace(1, 0, dom())
	if err := sp.Put("rho", 0, nil); err == nil {
		t.Error("nil block accepted")
	}
}

func TestConcurrentPutGet(t *testing.T) {
	sp := NewSpace(8, 0, dom())
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				lo := grid.IV((w*8)%56, (i*4)%56, ((w+i)*4)%56)
				if err := sp.Put("rho", i%3, block(lo, 4, float64(w))); err != nil {
					t.Errorf("put: %v", err)
					return
				}
				if _, err := sp.Get("rho", i%3, dom()); err != nil {
					t.Errorf("get: %v", err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
}

func TestRoutingSpreadsLoad(t *testing.T) {
	sp := NewSpace(4, 0, dom())
	// Blocks spread over the domain should land on more than one shard.
	for x := 0; x < 64; x += 8 {
		for y := 0; y < 64; y += 8 {
			sp.Put("rho", 0, block(grid.IV(x, y, 0), 8, 1))
		}
	}
	nonEmpty := 0
	for _, s := range sp.servers {
		if s.memUsed > 0 {
			nonEmpty++
		}
	}
	if nonEmpty < 2 {
		t.Errorf("routing concentrated all blocks on %d shard(s)", nonEmpty)
	}
}

// TestPutKeepsDistinctBlocksWithEqualBoxes pins append semantics for plain
// puts: blocks from different AMR levels can share box coordinates (a
// level-0 box and a refined level-1 box coincide numerically), so a put
// must never replace an existing block just because the boxes match.
// Replay dedup is opt-in via PutSeq's sequence numbers.
func TestPutKeepsDistinctBlocksWithEqualBoxes(t *testing.T) {
	sp := NewSpace(2, 0, dom())
	if err := sp.Put("v", 0, block(grid.IV(0, 0, 0), 4, 1.0)); err != nil {
		t.Fatal(err)
	}
	if err := sp.Put("v", 0, block(grid.IV(0, 0, 0), 4, 2.0)); err != nil {
		t.Fatal(err)
	}
	blocks, err := sp.GetBlocks("v", 0, dom())
	if err != nil {
		t.Fatal(err)
	}
	if len(blocks) != 2 {
		t.Fatalf("stored %d blocks, want 2 (same box must not replace)", len(blocks))
	}

	// Sequenced puts with the same seq DO replace.
	if err := sp.PutSeq("w", 0, 7, block(grid.IV(0, 0, 0), 4, 1.0)); err != nil {
		t.Fatal(err)
	}
	if err := sp.PutSeq("w", 0, 7, block(grid.IV(0, 0, 0), 4, 3.0)); err != nil {
		t.Fatal(err)
	}
	blocks, err = sp.GetBlocks("w", 0, dom())
	if err != nil {
		t.Fatal(err)
	}
	if len(blocks) != 1 {
		t.Fatalf("stored %d blocks, want 1 (same seq must replace)", len(blocks))
	}
	if got := blocks[0].Comp(0)[0]; got != 3.0 {
		t.Errorf("replayed put kept stale data: %g", got)
	}
}
