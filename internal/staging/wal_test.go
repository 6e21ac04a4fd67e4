package staging

import (
	"errors"
	"math"
	"net"
	"os"
	"path/filepath"
	"testing"
	"time"

	"crosslayer/internal/field"
	"crosslayer/internal/grid"
)

// persistSpace makes a fresh persisted space over dir.
func persistSpace(t *testing.T, dir string) *Space {
	t.Helper()
	sp := NewSpace(2, 0, dom())
	if _, err := sp.Persist(dir, "s0"); err != nil {
		t.Fatalf("Persist: %v", err)
	}
	return sp
}

// recoverSpace stands up a second incarnation over the same dir.
func recoverSpace(t *testing.T, dir string) (*Space, *RecoverStats) {
	t.Helper()
	sp := NewSpace(2, 0, dom())
	st, err := sp.Persist(dir, "s0")
	if err != nil {
		t.Fatalf("recover Persist: %v", err)
	}
	return sp, st
}

func assertSameContent(t *testing.T, want, got *Space) {
	t.Helper()
	wm, wsz := want.ContentManifestSized()
	gm, gsz := got.ContentManifestSized()
	if !wm.Equal(gm) {
		t.Fatalf("manifests differ:\nwant %+v\ngot  %+v", wm.Entries, gm.Entries)
	}
	for i := range wsz {
		if wsz[i] != gsz[i] {
			t.Fatalf("entry %s@%d: %d bytes recovered, want %d",
				wm.Entries[i].Var, wm.Entries[i].Version, gsz[i], wsz[i])
		}
	}
	for _, e := range wm.Entries {
		wd, err := getRegion(want, e.Var, e.Version, dom())
		if err != nil {
			t.Fatalf("want %s@%d): %v", e.Var, e.Version, err)
		}
		gd, err := getRegion(got, e.Var, e.Version, dom())
		if err != nil {
			t.Fatalf("got %s@%d): %v", e.Var, e.Version, err)
		}
		if !wd.Equal(gd) {
			t.Fatalf("data for %s@%d differs after recovery", e.Var, e.Version)
		}
	}
}

func TestWALRecoverWithoutSnapshot(t *testing.T) {
	dir := t.TempDir()
	sp := persistSpace(t, dir)
	for i := int64(1); i <= 4; i++ {
		if err := sp.PutSeq("rho", 0, i, block(grid.IV(int(i)*8, 0, 0), 8, float64(i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := sp.PutSeq("t0/u", 1, 5, block(grid.IV(0, 8, 0), 8, 9)); err != nil {
		t.Fatal(err)
	}
	sp.CrashPersist()

	got, st := recoverSpace(t, dir)
	if st.TornTail || st.WALMissing || st.SnapshotBlocks != 0 {
		t.Fatalf("stats = %+v", st)
	}
	if st.Blocks != 5 {
		t.Fatalf("recovered %d blocks, want 5", st.Blocks)
	}
	assertSameContent(t, sp, got)
	// Tenant accounting is recomputed from the recovered objects.
	wb, wn := sp.TenantUsage("t0")
	gb, gn := got.TenantUsage("t0")
	if wb != gb || wn != gn {
		t.Fatalf("tenant usage: recovered (%d,%d), want (%d,%d)", gb, gn, wb, wn)
	}
}

func TestWALReplayIsIdempotentOnSeq(t *testing.T) {
	dir := t.TempDir()
	sp := persistSpace(t, dir)
	// The same logical put retried: one object, two WAL records.
	b := block(grid.IV(0, 0, 0), 8, 3)
	if err := sp.PutSeq("rho", 0, 7, b); err != nil {
		t.Fatal(err)
	}
	if err := sp.PutSeq("rho", 0, 7, b); err != nil {
		t.Fatal(err)
	}
	sp.CrashPersist()
	got, st := recoverSpace(t, dir)
	if st.WALRecords != 2 {
		t.Fatalf("replayed %d records, want 2", st.WALRecords)
	}
	if st.Blocks != 1 {
		t.Fatalf("recovered %d blocks, want 1 (seq replay must dedupe)", st.Blocks)
	}
	assertSameContent(t, sp, got)
}

func TestWALTornTailLosesOnlyUnsyncedSuffix(t *testing.T) {
	dir := t.TempDir()
	sp := persistSpace(t, dir)
	for i := int64(1); i <= 3; i++ {
		if err := sp.PutSeq("rho", 0, i, block(grid.IV(int(i)*8, 0, 0), 8, float64(i))); err != nil {
			t.Fatal(err)
		}
	}
	sp.CrashPersist()

	// A crash mid-append leaves a torn record: chop bytes off the tail so
	// the last put's record is incomplete.
	path := filepath.Join(dir, walFileName)
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, raw[:len(raw)-5], 0o666); err != nil {
		t.Fatal(err)
	}

	got, st := recoverSpace(t, dir)
	if !st.TornTail {
		t.Fatal("expected TornTail")
	}
	if st.Blocks != 2 {
		t.Fatalf("recovered %d blocks, want 2 (only the torn put lost)", st.Blocks)
	}
	// The truncated tail must not poison later appends + recovery.
	if err := got.PutSeq("rho", 0, 9, block(grid.IV(32, 0, 0), 8, 9)); err != nil {
		t.Fatal(err)
	}
	got.CrashPersist()
	again, st2 := recoverSpace(t, dir)
	if st2.TornTail || st2.Blocks != 3 {
		t.Fatalf("re-recovery stats = %+v, want 3 blocks and no torn tail", st2)
	}
	assertSameContent(t, got, again)
}

func TestWALClearAndDropReplay(t *testing.T) {
	dir := t.TempDir()
	sp := persistSpace(t, dir)
	sp.PutSeq("junk", 0, 1, block(grid.IV(0, 0, 0), 8, 1))
	sp.Clear()
	sp.PutSeq("rho", 0, 2, block(grid.IV(0, 0, 0), 8, 2))
	sp.PutSeq("rho", 1, 3, block(grid.IV(0, 0, 0), 8, 3))
	sp.PutSeq("rho", 2, 4, block(grid.IV(0, 0, 0), 8, 4))
	if freed, err := sp.DropBefore("rho", 2); err != nil || freed == 0 {
		t.Fatalf("DropBefore = %d, %v", freed, err)
	}
	sp.CrashPersist()

	got, st := recoverSpace(t, dir)
	if st.Blocks != 1 {
		t.Fatalf("recovered %d blocks, want 1 (clear and drop must replay)", st.Blocks)
	}
	if _, err := got.GetBlocks("junk", 0, dom()); !errors.Is(err, ErrNotFound) {
		t.Fatalf("cleared var survived recovery: %v", err)
	}
	if _, err := got.GetBlocks("rho", 1, dom()); !errors.Is(err, ErrNotFound) {
		t.Fatalf("dropped version survived recovery: %v", err)
	}
	assertSameContent(t, sp, got)
}

func TestWALCompactionRoundTrip(t *testing.T) {
	dir := t.TempDir()
	sp := persistSpace(t, dir)
	for i := int64(1); i <= 4; i++ {
		sp.PutSeq("rho", 0, i, block(grid.IV(int(i)*8, 0, 0), 8, float64(i)))
	}
	if err := sp.CompactWAL(); err != nil {
		t.Fatalf("CompactWAL: %v", err)
	}
	if st := sp.WALStats(); st.Epoch != 1 || st.Snapshots != 1 {
		t.Fatalf("after compaction stats = %+v", st)
	}
	// Post-snapshot suffix lands in the new epoch's WAL.
	sp.PutSeq("u", 1, 5, block(grid.IV(0, 8, 0), 8, 7))
	sp.CrashPersist()

	got, st := recoverSpace(t, dir)
	if st.SnapshotBlocks != 4 || st.WALRecords != 1 || st.Blocks != 5 {
		t.Fatalf("stats = %+v, want 4 snapshot blocks + 1 replayed record", st)
	}
	assertSameContent(t, sp, got)
}

func TestWALAutoCompaction(t *testing.T) {
	dir := t.TempDir()
	sp := persistSpace(t, dir)
	sp.dur.compactEvery = 8
	for i := int64(1); i <= 20; i++ {
		if err := sp.PutSeq("rho", int(i), i, block(grid.IV(0, 0, 0), 4, float64(i))); err != nil {
			t.Fatal(err)
		}
	}
	st := sp.WALStats()
	if st.Snapshots == 0 {
		t.Fatalf("no automatic compaction after 20 records: %+v", st)
	}
	sp.CrashPersist()
	got, _ := recoverSpace(t, dir)
	assertSameContent(t, sp, got)
}

func TestSnapshotWithoutWALRecovers(t *testing.T) {
	dir := t.TempDir()
	sp := persistSpace(t, dir)
	sp.PutSeq("rho", 0, 1, block(grid.IV(0, 0, 0), 8, 1))
	if err := sp.CompactWAL(); err != nil {
		t.Fatal(err)
	}
	sp.CrashPersist()
	if err := os.Remove(filepath.Join(dir, walFileName)); err != nil {
		t.Fatal(err)
	}
	got, st := recoverSpace(t, dir)
	if !st.WALMissing || st.Blocks != 1 {
		t.Fatalf("stats = %+v, want WALMissing with 1 block", st)
	}
	// The fresh WAL starts past the snapshot's epoch and keeps working.
	if err := got.PutSeq("rho", 0, 2, block(grid.IV(8, 0, 0), 8, 2)); err != nil {
		t.Fatal(err)
	}
	got.CrashPersist()
	again, st2 := recoverSpace(t, dir)
	if st2.Blocks != 2 {
		t.Fatalf("re-recovery got %d blocks, want 2", st2.Blocks)
	}
	assertSameContent(t, got, again)
}

func TestPartialSnapshotFailsClosed(t *testing.T) {
	dir := t.TempDir()
	sp := persistSpace(t, dir)
	sp.PutSeq("rho", 0, 1, block(grid.IV(0, 0, 0), 8, 1))
	if err := sp.CompactWAL(); err != nil {
		t.Fatal(err)
	}
	sp.CrashPersist()
	// Snapshots are complete-or-absent by rename; a truncated one means
	// external corruption and recovery must refuse rather than guess.
	path := filepath.Join(dir, snapFileName)
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, raw[:len(raw)-3], 0o666); err != nil {
		t.Fatal(err)
	}
	fresh := NewSpace(2, 0, dom())
	if _, err := fresh.Persist(dir, "s0"); !errors.Is(err, ErrBadSnapshot) {
		t.Fatalf("Persist over torn snapshot = %v, want ErrBadSnapshot", err)
	}
}

func TestWALCrashBetweenSnapshotAndRotate(t *testing.T) {
	dir := t.TempDir()
	sp := persistSpace(t, dir)
	for i := int64(1); i <= 3; i++ {
		sp.PutSeq("rho", 0, i, block(grid.IV(int(i)*8, 0, 0), 8, float64(i)))
	}
	// Snapshot the epoch-0 WAL image, compact, then restore the old WAL:
	// exactly the on-disk state of a crash after the snapshot renamed but
	// before the WAL rotated. Recovery must skip the covered prefix.
	oldWAL, err := os.ReadFile(filepath.Join(dir, walFileName))
	if err != nil {
		t.Fatal(err)
	}
	if err := sp.CompactWAL(); err != nil {
		t.Fatal(err)
	}
	sp.CrashPersist()
	if err := os.WriteFile(filepath.Join(dir, walFileName), oldWAL, 0o666); err != nil {
		t.Fatal(err)
	}
	got, st := recoverSpace(t, dir)
	if st.SnapshotBlocks != 3 || st.WALRecords != 0 || st.Blocks != 3 {
		t.Fatalf("stats = %+v, want snapshot-only recovery", st)
	}
	assertSameContent(t, sp, got)
}

func TestWALServerIdentityMismatch(t *testing.T) {
	dir := t.TempDir()
	sp := persistSpace(t, dir)
	sp.PutSeq("rho", 0, 1, block(grid.IV(0, 0, 0), 8, 1))
	sp.CrashPersist()
	fresh := NewSpace(2, 0, dom())
	if _, err := fresh.Persist(dir, "s1"); !errors.Is(err, ErrWALMismatch) {
		t.Fatalf("Persist under wrong id = %v, want ErrWALMismatch", err)
	}
}

func TestClosePersistThenRecover(t *testing.T) {
	dir := t.TempDir()
	sp := persistSpace(t, dir)
	sp.PutSeq("rho", 0, 1, block(grid.IV(0, 0, 0), 8, 1))
	if err := sp.ClosePersist(); err != nil {
		t.Fatalf("ClosePersist: %v", err)
	}
	if sp.Persisted() {
		t.Fatal("still persisted after ClosePersist")
	}
	got, st := recoverSpace(t, dir)
	if st.Blocks != 1 {
		t.Fatalf("recovered %d blocks, want 1", st.Blocks)
	}
	assertSameContent(t, sp, got)
}

// TestDurableServerRefusesUnloggedDrop breaks a durable server's WAL file
// under it and drops over the wire: the client must get an error, never an
// acknowledgement, and a space recovered from the same dir still holds the
// block the unlogged drop removed from memory.
func TestDurableServerRefusesUnloggedDrop(t *testing.T) {
	dir := t.TempDir()
	sp := persistSpace(t, dir)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	serveOn(t, ln, sp)
	cl, err := DialOptions(ln.Addr().String(), ClientOptions{OpTimeout: 2 * time.Second, MaxRetries: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if err := cl.Put("rho", 0, block(grid.IV(0, 0, 0), 2, 1)); err != nil {
		t.Fatal(err)
	}
	sp.opMu.Lock()
	sp.dur.f.Close()
	sp.opMu.Unlock()
	if freed, err := cl.DropBefore("rho", 1); err == nil {
		t.Fatalf("drop the WAL could not log was acknowledged (freed %d)", freed)
	}
	got, _ := recoverSpace(t, dir)
	if _, err := got.GetBlocks("rho", 0, dom()); err != nil {
		t.Fatalf("recovered space lost the block: %v", err)
	}
}

// TestDurablePutAllocs guards the ack path's memory: a durable put frames
// its WAL records in the space's reused buffer, so it allocates no more
// than the same put on an in-memory space and only a few bytes per put.
func TestDurablePutAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	const runs = 10
	perPut := func(sp *Space, key string, blk *field.BoxData) (allocs float64, bytes int64) {
		put := func() {
			if err := sp.PutSeq(key, 1, 7, blk); err != nil {
				t.Fatal(err)
			}
		}
		allocs = testing.AllocsPerRun(runs, put)
		// Bytes are the least of three rounds: a GC empties the codec's
		// chunk pool, and a put that comes back from its fsync on another P
		// can miss the chunk cached on the first, so now and then one encode
		// allocates a 64 KiB chunk that the next put reuses.
		bytes = math.MaxInt64
		for round := 0; round < 3; round++ {
			before := allocatedBytes()
			for i := 0; i < runs; i++ {
				put()
			}
			bytes = min(bytes, (allocatedBytes()-before)/runs)
		}
		return allocs, bytes
	}
	for _, blk := range []*field.BoxData{
		rampBlock(grid.IV(0, 0, 0), 8, 1, 1),  // 4 KiB
		rampBlock(grid.IV(0, 0, 0), 16, 5, 1), // 160 KiB
	} {
		for _, key := range []string{"rho", "t0/u"} {
			mem, _ := perPut(NewSpace(2, 0, dom()), key, blk)
			dur, b := perPut(persistSpace(t, t.TempDir()), key, blk)
			if dur > mem || b >= 512 {
				t.Errorf("%d-byte block under %q: a durable put makes %v allocs and %d B, "+
					"want at most %v allocs (an in-memory put's) and under 512 B", blk.Bytes(), key, dur, b, mem)
			}
		}
	}
}
