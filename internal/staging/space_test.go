package staging

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"sort"
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

// getRegion assembles GetBlocks over region: the blocks are copied in
// staging order, so a later block overwrites an earlier one where they
// overlap, and cells no block covers are zero.
func getRegion(sp *Space, varName string, version int, region grid.Box) (*field.BoxData, error) {
	blocks, err := sp.GetBlocks(varName, version, region)
	if err != nil {
		return nil, err
	}
	out := field.New(region, blocks[0].NComp)
	for _, b := range blocks {
		out.CopyFrom(b)
	}
	return out, nil
}

func TestPutGetRoundTrip(t *testing.T) {
	sp := NewSpace(4, 0, dom())
	if err := sp.Put("rho", 0, block(grid.IV(0, 0, 0), 8, 1)); err != nil {
		t.Fatal(err)
	}
	if err := sp.Put("rho", 0, block(grid.IV(8, 0, 0), 8, 2)); err != nil {
		t.Fatal(err)
	}
	got, err := getRegion(sp, "rho", 0, grid.NewBox(grid.IV(4, 0, 0), grid.IV(11, 7, 7)))
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
	if _, err := sp.GetBlocks("rho", 1, dom()); !errors.Is(err, ErrNotFound) {
		t.Errorf("missing version err = %v", err)
	}
	if _, err := sp.GetBlocks("u", 0, dom()); !errors.Is(err, ErrNotFound) {
		t.Errorf("missing var err = %v", err)
	}
	if _, err := sp.GetBlocks("rho", 0, grid.NewBox(grid.IV(40, 40, 40), grid.IV(41, 41, 41))); !errors.Is(err, ErrNotFound) {
		t.Errorf("disjoint region err = %v", err)
	}
}

func TestVersionsIsolated(t *testing.T) {
	sp := NewSpace(2, 0, dom())
	sp.Put("rho", 0, block(grid.IV(0, 0, 0), 4, 1))
	sp.Put("rho", 1, block(grid.IV(0, 0, 0), 4, 9))
	got, err := getRegion(sp, "rho", 0, grid.BoxFromSize(grid.IV(0, 0, 0), grid.IV(4, 4, 4)))
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
	freed, _ := sp.DropBefore("rho", 2)
	if freed != used*2/3 {
		t.Errorf("freed %d, want %d", freed, used*2/3)
	}
	if _, err := sp.GetBlocks("rho", 0, dom()); !errors.Is(err, ErrNotFound) {
		t.Error("version 0 survived DropBefore")
	}
	if _, err := sp.GetBlocks("rho", 2, dom()); err != nil {
		t.Error("version 2 was evicted")
	}
}

func TestDropBeforeOtherVarUntouched(t *testing.T) {
	sp := NewSpace(1, 0, dom())
	sp.Put("rho", 0, block(grid.IV(0, 0, 0), 4, 1))
	sp.Put("u", 0, block(grid.IV(0, 0, 0), 4, 2))
	sp.DropBefore("rho", 5)
	if _, err := sp.GetBlocks("u", 0, dom()); err != nil {
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
				if _, err := sp.GetBlocks("rho", i%3, dom()); err != nil {
					t.Errorf("get: %v", err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
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

// TestGetBlocksTiesKeepSlotOrder pins GetBlocks' order for blocks whose Lo
// corners share a Morton code (AMR levels do): they come in slot order, a
// block's slot being where its first put appended it, and a replacement —
// a same-seq replay, a normal put over its repaired copy — keeps the slot.
// Copied in that order, the last slot wins where blocks overlap.
func TestGetBlocksTiesKeepSlotOrder(t *testing.T) {
	sp := NewSpace(4, 0, dom())
	o := grid.IV(0, 0, 0)
	later := block(grid.IV(8, 0, 0), 4, 9) // put first, sorts after the ties
	a, b, c := block(o, 8, 1), block(o, 4, 2), block(o, 4, 3)
	b2, r, n := block(o, 4, 4), block(o, 8, 5), block(o, 8, 5)
	check := func(what string, want ...*field.BoxData) {
		t.Helper()
		got, err := sp.GetBlocks("v", 0, dom())
		if err != nil {
			t.Fatalf("%s: %v", what, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: GetBlocks order differs from slot order", what)
		}
		g, err := getRegion(sp, "v", 0, grid.BoxFromSize(o, grid.IV(4, 4, 4)))
		if err != nil {
			t.Fatalf("%s: %v", what, err)
		}
		if v, last := g.Get(o, 0), want[len(want)-2].Get(o, 0); v != last {
			t.Fatalf("%s: assembled at Lo = %g, want the last tied slot's %g", what, v, last)
		}
	}
	for _, p := range []struct {
		seq int64
		d   *field.BoxData
	}{{NoSeq, later}, {NoSeq, a}, {5, b}, {NoSeq, c}} {
		if err := sp.PutSeq("v", 0, p.seq, p.d); err != nil {
			t.Fatal(err)
		}
	}
	check("first puts", a, b, c, later)
	if err := sp.PutSeq("v", 0, 5, b2); err != nil {
		t.Fatal(err)
	}
	check("same-seq replay", a, b2, c, later)
	if err := sp.PutSeq("v", 0, -9, r); err != nil {
		t.Fatal(err)
	}
	check("repair copy", a, b2, c, r, later)
	if err := sp.PutSeq("v", 0, 10, n); err != nil {
		t.Fatal(err)
	}
	check("normal put over the repaired copy", a, b2, c, n, later)
}

// TestGetBlocksAllocations pins the one-block query: asking a 512-block
// var for one block allocates the key, the result slice and little else,
// however many blocks the var holds.
func TestGetBlocksAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	sp := NewSpace(4, 0, dom())
	for x := 0; x < 64; x += 8 {
		for y := 0; y < 64; y += 8 {
			for z := 0; z < 64; z += 8 {
				if err := sp.Put("rho", 3, block(grid.IV(x, y, z), 8, 1)); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	one := grid.BoxFromSize(grid.IV(24, 24, 24), grid.IV(8, 8, 8))
	allocs := testing.AllocsPerRun(100, func() {
		if blocks, err := sp.GetBlocks("rho", 3, one); err != nil || len(blocks) != 1 {
			t.Fatalf("GetBlocks = %d blocks, %v", len(blocks), err)
		}
	})
	if allocs > 5 {
		t.Errorf("one-block GetBlocks: %.0f allocs, want <= 5", allocs)
	}
}

// refSpace is the sharded Space as it stood before the space became one
// store: every block routed by routeIndex to one of n shards, each shard
// applying the seq rules to the blocks it holds, and a query gathering the
// shards' matches in shard order and ordering them with an unstable sort on
// the Morton code of Lo. (The old query ran one goroutine per shard, but
// gathered the answers by shard index, so the order fed to the sort is the
// one built here.) Capacity and quotas are left out: the oracle pins what
// is stored and what a query returns, not admission.
type refSpace struct {
	domain grid.Box
	shards []map[refKey][]*Object
	used   int64
	bytes  map[string]int64
	blocks map[string]int
}

type refKey struct {
	v   string
	ver int
}

func newRefSpace(n int, domain grid.Box) *refSpace {
	r := &refSpace{domain: domain, shards: make([]map[refKey][]*Object, n)}
	r.clear()
	return r
}

func (r *refSpace) clear() {
	for i := range r.shards {
		r.shards[i] = make(map[refKey][]*Object)
	}
	r.used = 0
	r.bytes, r.blocks = map[string]int64{}, map[string]int{}
}

func (r *refSpace) put(o *Object) {
	s := r.shards[routeIndex(r.domain, o.Data.Box, len(r.shards))]
	k := refKey{o.Var, o.Version}
	sz := o.Data.Bytes()
	book := func(delta int64, added int) {
		r.used += delta
		if t := TenantOf(o.Var); t != "" {
			r.bytes[t] += delta
			r.blocks[t] += added
		}
	}
	replace := func(i int) {
		book(sz-s[k][i].Data.Bytes(), 0)
		s[k][i] = o
	}
	if o.Seq != NoSeq {
		for i, old := range s[k] {
			if old.Seq == o.Seq {
				replace(i)
				return
			}
		}
	}
	if o.Seq > 0 {
		for i, old := range s[k] {
			if isRepairSeq(old.Seq) && old.Data.Equal(o.Data) {
				replace(i)
				return
			}
		}
	}
	if isRepairSeq(o.Seq) {
		for _, old := range s[k] {
			if old.Data.Equal(o.Data) {
				return
			}
		}
	}
	s[k] = append(s[k], o)
	book(sz, 1)
}

func (r *refSpace) dropBefore(varName string, version int) {
	for _, s := range r.shards {
		for k, objs := range s {
			if k.v != varName || k.ver >= version {
				continue
			}
			for _, o := range objs {
				r.used -= o.Data.Bytes()
				if t := TenantOf(o.Var); t != "" {
					r.bytes[t] -= o.Data.Bytes()
					r.blocks[t]--
				}
			}
			delete(s, k)
		}
	}
}

func (r *refSpace) getBlocks(varName string, version int, region grid.Box) []*field.BoxData {
	var out []*Object
	for _, s := range r.shards {
		for _, o := range s[refKey{varName, version}] {
			if o.Data.Box.Intersects(region) {
				out = append(out, o)
			}
		}
	}
	sort.Slice(out, func(i, j int) bool {
		return r.morton(out[i].Data) < r.morton(out[j].Data)
	})
	blocks := make([]*field.BoxData, len(out))
	for i, o := range out {
		blocks[i] = o.Data
	}
	return blocks
}

func (r *refSpace) morton(d *field.BoxData) uint64 {
	return grid.MortonCode(d.Box.Lo.Sub(r.domain.Lo).Max(grid.Zero))
}

// manifest is ContentManifestSized's content as a map: var@version →
// {blocks, encoded bytes}.
func (r *refSpace) manifest() map[refKey][2]int64 {
	m := make(map[refKey][2]int64)
	for _, s := range r.shards {
		for k, objs := range s {
			for _, o := range objs {
				e := m[k]
				m[k] = [2]int64{e[0] + 1, e[1] + EncodedSize(o.Data)}
			}
		}
	}
	return m
}

// TestGetBlocksMatchesShardedReference drives seeded op sequences through a
// Space and through refSpace at several shard counts and compares, after
// every op, what each holds and what each query returns. The sequences mix
// unsequenced puts, sequenced puts, same-seq replays (same box, maybe new
// data, as a client retry sends), repair re-puts under negated seqs, normal
// puts identical to a repaired copy, AMR-style blocks sharing Lo at two
// sizes, DropBefore and Clear. GetBlocks must agree in Morton-of-Lo order;
// blocks that tie on that code are compared as a set, since the reference
// leaves their order to an unstable sort.
func TestGetBlocksMatchesShardedReference(t *testing.T) {
	t0rho, _ := TenantVar("t0", "rho")
	t0u, _ := TenantVar("t0", "u")
	t1rho, _ := TenantVar("t1", "rho")
	vars := []string{"rho", t0rho, t0u, t1rho}
	const versions = 3
	type put struct {
		v      string
		ver    int
		seq    int64
		lo     grid.IntVect
		n      int
		val    float64
		repair bool
	}
	for _, nservers := range []int{1, 2, 4, 8} {
		for seed := int64(1); seed <= 4; seed++ {
			rng := rand.New(rand.NewSource(seed*100 + int64(nservers)))
			sp := NewSpace(nservers, 0, dom())
			ref := newRefSpace(nservers, dom())
			var hist []put
			var seq int64
			corner := func() grid.IntVect {
				c := []int{0, 8, 16, 40}
				return grid.IV(c[rng.Intn(4)], c[rng.Intn(4)], c[rng.Intn(4)])
			}
			do := func(p put) {
				t.Helper()
				d := block(p.lo, p.n, p.val)
				if err := sp.PutSeq(p.v, p.ver, p.seq, d); err != nil {
					t.Fatalf("n=%d seed=%d: put %+v: %v", nservers, seed, p, err)
				}
				ref.put(&Object{Var: p.v, Version: p.ver, Seq: p.seq, Data: d})
				hist = append(hist, p)
			}
			fresh := func() put {
				return put{v: vars[rng.Intn(len(vars))], ver: rng.Intn(versions),
					seq: NoSeq, lo: corner(), n: 4 + 4*rng.Intn(2), val: float64(1 + rng.Intn(2))}
			}
			for op := 0; op < 250; op++ {
				what := rng.Intn(100)
				switch {
				case what < 20:
					do(fresh())
				case what < 38:
					p := fresh()
					seq++
					p.seq = seq
					do(p)
				case what < 52 && len(hist) > 0:
					// A replay: same seq and box, data possibly new.
					p := hist[rng.Intn(len(hist))]
					if p.seq == NoSeq {
						continue
					}
					p.val = float64(1 + rng.Intn(2))
					do(p)
				case what < 64 && len(hist) > 0:
					// A repair re-put of a block's content under a fresh
					// negated seq.
					p := hist[rng.Intn(len(hist))]
					seq++
					p.seq, p.repair = -seq, true
					do(p)
				case what < 72 && len(hist) > 0:
					// A normal put identical to an earlier (maybe repaired)
					// block.
					p := hist[rng.Intn(len(hist))]
					seq++
					p.seq, p.repair = seq, false
					do(p)
				case what < 84:
					// AMR-style: two blocks sharing Lo at two sizes.
					p := fresh()
					p.n = 4
					do(p)
					p.n, p.val = 8, float64(1+rng.Intn(2))
					do(p)
				case what < 96:
					v, ver := vars[rng.Intn(len(vars))], rng.Intn(versions+1)
					sp.DropBefore(v, ver)
					ref.dropBefore(v, ver)
				default:
					sp.Clear()
					ref.clear()
				}
				where := fmt.Sprintf("n=%d seed=%d op=%d", nservers, seed, op)
				compareToRef(t, where, sp, ref, vars, versions, grid.BoxFromSize(corner(), grid.IV(12, 12, 12)))
			}
		}
	}
}

func compareToRef(t *testing.T, where string, sp *Space, ref *refSpace, vars []string, versions int, region grid.Box) {
	t.Helper()
	if got, want := sp.MemUsed(), ref.used; got != want {
		t.Fatalf("%s: MemUsed = %d, want %d", where, got, want)
	}
	for _, tenant := range []string{"t0", "t1"} {
		b, n := sp.TenantUsage(tenant)
		if b != ref.bytes[tenant] || n != ref.blocks[tenant] {
			t.Fatalf("%s: TenantUsage(%s) = %d B %d blocks, want %d B %d blocks",
				where, tenant, b, n, ref.bytes[tenant], ref.blocks[tenant])
		}
	}
	m, sizes := sp.ContentManifestSized()
	got := make(map[refKey][2]int64)
	for i, e := range m.Entries {
		got[refKey{e.Var, e.Version}] = [2]int64{int64(e.Blocks), sizes[i]}
	}
	if want := ref.manifest(); !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: ContentManifestSized = %v, want %v", where, got, want)
	}
	for _, v := range vars {
		for ver := 0; ver < versions; ver++ {
			for _, r := range []grid.Box{dom(), region} {
				blocks, err := sp.GetBlocks(v, ver, r)
				want := ref.getBlocks(v, ver, r)
				if len(want) == 0 {
					if !errors.Is(err, ErrNotFound) {
						t.Fatalf("%s: GetBlocks(%s@%d, %v) = %d blocks, %v; want ErrNotFound", where, v, ver, r, len(blocks), err)
					}
					continue
				}
				if err != nil || len(blocks) != len(want) {
					t.Fatalf("%s: GetBlocks(%s@%d, %v) = %d blocks, %v; want %d", where, v, ver, r, len(blocks), err, len(want))
				}
				for i := 0; i < len(want); {
					j := i + 1
					for j < len(want) && ref.morton(want[j]) == ref.morton(want[i]) {
						j++
					}
					tie := make(map[*field.BoxData]int)
					for k := i; k < j; k++ {
						tie[want[k]]++
						tie[blocks[k]]--
					}
					for _, c := range tie {
						if c != 0 {
							t.Fatalf("%s: GetBlocks(%s@%d, %v) positions %d..%d hold other blocks than the reference", where, v, ver, r, i, j-1)
						}
					}
					i = j
				}
			}
		}
	}
}
