package staging

import (
	"bytes"
	"encoding/hex"
	"fmt"
	"hash/fnv"
	"net"
	"os"
	"path/filepath"
	"testing"
	"time"

	"crosslayer/internal/field"
	"crosslayer/internal/grid"
)

// Byte pins for the staging formats: the WAL and snapshot files a durable
// Space writes, the block wire encoding, and the request bytes a Client
// puts on the connection. The constants were generated from the tree before
// the record vocabulary was shared, so a refactor of wal.go, codec.go or
// tcp.go that moves a byte fails here.

// rampBlock is an n³ block at lo with ncomp components holding distinct
// values per cell and component.
func rampBlock(lo grid.IntVect, n, ncomp int, base float64) *field.BoxData {
	d := field.New(grid.BoxFromSize(lo, grid.IV(n, n, n)), ncomp)
	for c := 0; c < ncomp; c++ {
		comp := d.Comp(c)
		for i := range comp {
			comp[i] = base + float64(c)*1000 + float64(i)*0.5
		}
	}
	return d
}

// imageSum renders a byte image as "length:fnv1a64".
func imageSum(b []byte) string {
	h := fnv.New64a()
	h.Write(b)
	return fmt.Sprintf("%d:%016x", len(b), h.Sum64())
}

func TestWALAndSnapshotBytesPinned(t *testing.T) {
	dir := t.TempDir()
	sp := persistSpace(t, dir)
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	must(sp.PutSeq("rho", 0, 1, rampBlock(grid.IV(0, 0, 0), 4, 1, 1)))   // plain put
	must(sp.PutSeq("rho", 2, 2, rampBlock(grid.IV(8, 0, 0), 4, 1, 2)))   // survives the drop
	must(sp.PutSeq("t0/u", 1, 3, rampBlock(grid.IV(0, 8, 0), 4, 2, 3)))  // tenant put + settle
	must(sp.PutSeq("t0/u", 1, 3, rampBlock(grid.IV(0, 8, 0), 4, 2, 4)))  // idempotent retry replaces
	must(sp.PutSeq("rho", 2, -9, rampBlock(grid.IV(16, 0, 0), 4, 1, 5))) // repair-tagged seq
	must(sp.Put("rho", 2, rampBlock(grid.IV(24, 0, 0), 4, 1, 6)))        // NoSeq
	if freed, err := sp.DropBefore("rho", 1); err != nil || freed == 0 {
		t.Fatalf("DropBefore = %d, %v", freed, err)
	}
	sp.Clear()
	must(sp.PutSeq("rho", 3, 10, rampBlock(grid.IV(32, 32, 32), 4, 2, 7))) // what the snapshot holds
	must(sp.PutSeq("t1/v", 4, 11, rampBlock(grid.IV(0, 0, 32), 2, 1, 8)))
	must(sp.PutSeq("rho", 3, 12, rampBlock(grid.IV(0, 0, 0), 4, 2, 9)))

	read := func(name string) []byte {
		t.Helper()
		b, err := os.ReadFile(filepath.Join(dir, name))
		must(err)
		return b
	}
	epoch0 := read(walFileName)
	must(sp.CompactWAL())
	must(sp.PutSeq("rho", 5, 13, rampBlock(grid.IV(8, 8, 8), 4, 1, 10))) // lands in the rotated WAL
	must(sp.ClosePersist())

	for _, pin := range []struct{ name, got, want string }{
		{"wal.xsw before compaction", imageSum(epoch0), "6950:ae438b87ab4814c7"},
		{"snapshot.xss", imageSum(read(snapFileName)), "2363:f1be3d01937f50da"},
		{"wal.xsw after compaction", imageSum(read(walFileName)), "605:908e2693f120e13d"},
	} {
		if pin.got != pin.want {
			t.Errorf("%s moved: %s, pinned %s", pin.name, pin.got, pin.want)
		}
	}

	got, st := recoverSpace(t, dir)
	if st.SnapshotBlocks != 3 || st.WALRecords != 1 || st.TornTail {
		t.Fatalf("recovery stats = %+v", st)
	}
	assertSameContent(t, sp, got)
}

// TestWALAndSnapshotMultiChunkBytesPinned pins WAL and snapshot records
// whose blocks span several of the codec's 64 KiB chunks, which the small
// blocks above never do.
func TestWALAndSnapshotMultiChunkBytesPinned(t *testing.T) {
	dir := t.TempDir()
	sp := persistSpace(t, dir)
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	must(sp.PutSeq("t0/u", 1, 1, rampBlock(grid.IV(0, 0, 0), 16, 5, 1))) // 160 KiB tenant put + settle
	must(sp.PutSeq("rho", 2, 2, rampBlock(grid.IV(16, 0, 0), 24, 1, 2))) // 108 KiB plain put
	must(sp.PutSeq("rho", 1, 3, rampBlock(grid.IV(0, 16, 0), 4, 1, 3)))  // what the drop frees
	if freed, err := sp.DropBefore("rho", 2); err != nil || freed == 0 {
		t.Fatalf("DropBefore = %d, %v", freed, err)
	}
	read := func(name string) []byte {
		t.Helper()
		b, err := os.ReadFile(filepath.Join(dir, name))
		must(err)
		return b
	}
	epoch0 := read(walFileName)
	must(sp.CompactWAL())
	must(sp.PutSeq("rho", 3, 4, rampBlock(grid.IV(32, 32, 32), 16, 5, 4))) // lands in the rotated WAL
	must(sp.ClosePersist())

	for _, pin := range []struct{ name, got, want string }{
		{"wal.xsw before compaction", imageSum(epoch0), "275221:221ce2ea694d7530"},
		{"snapshot.xss", imageSum(read(snapFileName)), "274617:fac29aaef1062acc"},
		{"wal.xsw after compaction", imageSum(read(walFileName)), "163933:d76e22eae611ede3"},
	} {
		if pin.got != pin.want {
			t.Errorf("%s moved: %s, pinned %s", pin.name, pin.got, pin.want)
		}
	}

	got, st := recoverSpace(t, dir)
	if st.SnapshotBlocks != 2 || st.WALRecords != 1 || st.TornTail {
		t.Fatalf("recovery stats = %+v", st)
	}
	assertSameContent(t, sp, got)
}

// recordingConn is a net.Conn that keeps what is written to it and answers
// reads from a scripted reply.
type recordingConn struct {
	wrote bytes.Buffer
	reply bytes.Reader
}

func (c *recordingConn) Write(b []byte) (int, error)      { return c.wrote.Write(b) }
func (c *recordingConn) Read(b []byte) (int, error)       { return c.reply.Read(b) }
func (c *recordingConn) Close() error                     { return nil }
func (c *recordingConn) LocalAddr() net.Addr              { return nil }
func (c *recordingConn) RemoteAddr() net.Addr             { return nil }
func (c *recordingConn) SetDeadline(time.Time) error      { return nil }
func (c *recordingConn) SetReadDeadline(time.Time) error  { return nil }
func (c *recordingConn) SetWriteDeadline(time.Time) error { return nil }

func TestBlockWireBytesPinned(t *testing.T) {
	blk := rampBlock(grid.IV(-2, 3, 40), 2, 2, 1.25)
	var enc bytes.Buffer
	if err := EncodeBlock(&enc, blk); err != nil {
		t.Fatal(err)
	}
	const wantBlock = "" +
		"44424c58" + // magic
		"feffffff0300000028000000ffffffff0400000029000000" + // lo, hi
		"02000000" + // ncomp
		"000000000000f43f000000000000fc3f000000000000024000000000000006400000000000000a400000000000000e4000000000000011400000000000001340" + // component 0
		"00000000004a8f4000000000004e8f400000000000528f400000000000568f4000000000005a8f4000000000005e8f400000000000628f400000000000668f40" + // component 1
		"d2d404d5" // crc
	if got := hex.EncodeToString(enc.Bytes()); got != wantBlock {
		t.Errorf("EncodeBlock bytes moved:\n got %s\nwant %s", got, wantBlock)
	}
	back, err := DecodeBlock(bytes.NewReader(enc.Bytes()))
	if err != nil || !back.Equal(blk) {
		t.Fatalf("DecodeBlock(EncodeBlock(b)) = %v, %v", back, err)
	}

	// One put and one get, as the client writes them. The sequence base is
	// process-global, so fix it; the replies are a put ack and a not-found.
	conn := &recordingConn{}
	conn.reply.Reset([]byte{statusOK, statusNotFound})
	c := NewClient("pinned", ClientOptions{
		DialFunc: func(string, time.Duration) (net.Conn, error) { return conn, nil },
	})
	c.seqBase = 7 << 32
	if err := c.Put("t0/u", 6, blk); err != nil {
		t.Fatal(err)
	}
	put := append([]byte(nil), conn.wrote.Bytes()...)
	conn.wrote.Reset()
	region := grid.NewBox(grid.IV(-1, 2, 3), grid.IV(40, 50, 60))
	if _, err := c.GetBlocks("t0/u", 6, region); err != ErrNotFound {
		t.Fatalf("GetBlocks = %v, want ErrNotFound", err)
	}
	get := conn.wrote.Bytes()

	wantPut := "01040074302f7506000000" + "0100000007000000" + wantBlock
	if got := hex.EncodeToString(put); got != wantPut {
		t.Errorf("put request bytes moved:\n got %s\nwant %s", got, wantPut)
	}
	const wantGet = "02040074302f7506000000" + "ffffffff0200000003000000" + "28000000320000003c000000"
	if got := hex.EncodeToString(get); got != wantGet {
		t.Errorf("get request bytes moved:\n got %s\nwant %s", got, wantGet)
	}
}
