package staging

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/iotest"

	"crosslayer/internal/field"
	"crosslayer/internal/grid"
)

// refEncodeBlock and refDecodeBlock are the block codec as it stood before
// it streamed through a pooled chunk: a fresh header, component buffer and
// trailer per encode; a 64 KiB chunk, an append-grown payload copy and an
// element-wise conversion per decode. They are the oracle the differential
// test holds EncodeBlock and DecodeBlock to, byte for byte and error for
// error.
func refEncodeBlock(w io.Writer, d *field.BoxData) error {
	if d == nil || d.Box.IsEmpty() {
		return fmt.Errorf("%w: empty block", ErrBadBlock)
	}
	hdr := make([]byte, 4+boxWireSize+4)
	binary.LittleEndian.PutUint32(hdr[0:], blockMagic)
	appendBox(hdr[:4], d.Box)
	binary.LittleEndian.PutUint32(hdr[28:], uint32(d.NComp))
	if _, err := w.Write(hdr); err != nil {
		return err
	}
	crc := uint32(0)
	buf := make([]byte, 8*len(d.Comp(0)))
	for c := 0; c < d.NComp; c++ {
		for i, v := range d.Comp(c) {
			binary.LittleEndian.PutUint64(buf[8*i:], math.Float64bits(v))
		}
		crc = crc32.Update(crc, crcTable, buf)
		if _, err := w.Write(buf); err != nil {
			return err
		}
	}
	var trailer [4]byte
	binary.LittleEndian.PutUint32(trailer[:], crc)
	_, err := w.Write(trailer[:])
	return err
}

func refDecodeBlock(r io.Reader) (*field.BoxData, error) {
	hdr := make([]byte, 4+boxWireSize+4)
	if _, err := io.ReadFull(r, hdr); err != nil {
		return nil, err
	}
	if binary.LittleEndian.Uint32(hdr[0:]) != blockMagic {
		return nil, fmt.Errorf("%w: bad magic", ErrBadBlock)
	}
	box := getBox(hdr[4:])
	ncomp := int(binary.LittleEndian.Uint32(hdr[28:]))
	if err := checkShape(box, ncomp); err != nil {
		return nil, err
	}
	total := int64(ncomp) * box.NumCells() * 8
	const chunkSize = 64 << 10
	payload := make([]byte, 0, min(total, chunkSize))
	chunk := make([]byte, chunkSize)
	for int64(len(payload)) < total {
		n := min(total-int64(len(payload)), chunkSize)
		m, err := io.ReadFull(r, chunk[:n])
		payload = append(payload, chunk[:m]...)
		if err != nil {
			return nil, err
		}
	}
	var trailer [4]byte
	if _, err := io.ReadFull(r, trailer[:]); err != nil {
		return nil, err
	}
	if crc32.Checksum(payload, crcTable) != binary.LittleEndian.Uint32(trailer[:]) {
		return nil, fmt.Errorf("%w: payload checksum mismatch", ErrBadBlock)
	}
	d := field.New(box, ncomp)
	cells := int(box.NumCells())
	for c := 0; c < ncomp; c++ {
		comp := d.Comp(c)
		for i := range comp {
			comp[i] = math.Float64frombits(binary.LittleEndian.Uint64(payload[(c*cells+i)*8:]))
		}
	}
	return d, nil
}

// codecShapes straddle the codec's 64 KiB (8192-value) chunk and the
// decoder's 256 KiB (32768-value) up-front allocation: inside, exactly at
// and one value past each, several chunks across component boundaries,
// growth past the up-front size, and the 64-component maximum.
var codecShapes = []struct {
	size  grid.IntVect
	ncomp int
}{
	{grid.IV(1, 1, 1), 1},
	{grid.IV(8, 8, 8), 1},     // the 4 KiB probe block
	{grid.IV(3, 5, 7), 3},     // odd extents
	{grid.IV(16, 16, 32), 1},  // exactly one chunk
	{grid.IV(1, 3, 2731), 1},  // one chunk plus one value
	{grid.IV(16, 16, 16), 5},  // the 160 KiB probe block
	{grid.IV(20, 20, 20), 3},  // chunk edges inside components
	{grid.IV(40, 40, 40), 1},  // 500 KB: several growth steps
	{grid.IV(2, 2, 2), 64},    // most components the wire allows
	{grid.IV(2, 64, 64), 2},   // components that are one chunk each
	{grid.IV(1, 1, 8191), 2},  // one value short of a chunk per component
	{grid.IV(1, 1, 12289), 1}, // a chunk and a half
	{grid.IV(32, 32, 32), 1},  // exactly the up-front size
	{grid.IV(1, 1, 32769), 1}, // one value past it
	{grid.IV(1, 1, 4094), 2},  // header and payload fill one chunk exactly
}

// bitsBlock fills a block with arbitrary float64 bit patterns — NaNs with
// payloads, infinities, negative zero and subnormals included — so a
// conversion that canonicalises any of them fails the comparison.
func bitsBlock(rng *rand.Rand, lo, size grid.IntVect, ncomp int) *field.BoxData {
	d := field.New(grid.BoxFromSize(lo, size), ncomp)
	special := []uint64{0x7ff8000000000001, 0xfff0000000000000, 1 << 63, 1, 0x7ff4000000000000}
	for c := 0; c < ncomp; c++ {
		comp := d.Comp(c)
		for i := range comp {
			bits := rng.Uint64()
			if rng.Intn(8) == 0 {
				bits = special[rng.Intn(len(special))]
			}
			comp[i] = math.Float64frombits(bits)
		}
	}
	return d
}

// sameBits reports whether two blocks agree on box, components and every
// value's bit pattern.
func sameBits(a, b *field.BoxData) bool {
	if a.Box != b.Box || a.NComp != b.NComp {
		return false
	}
	for c := 0; c < a.NComp; c++ {
		ac, bc := a.Comp(c), b.Comp(c)
		for i := range ac {
			if math.Float64bits(ac[i]) != math.Float64bits(bc[i]) {
				return false
			}
		}
	}
	return true
}

// decodeOutcome renders a decode result for comparison: the error text, or
// the block's box and a hash of its value bits.
func decodeOutcome(d *field.BoxData, err error) string {
	if err != nil {
		return "error: " + err.Error()
	}
	var buf bytes.Buffer
	if err := refEncodeBlock(&buf, d); err != nil {
		return "re-encode: " + err.Error()
	}
	return fmt.Sprintf("%v ncomp %d %s", d.Box, d.NComp, imageSum(buf.Bytes()))
}

// TestCodecMatchesReference holds the codec to its reference bit for bit:
// every shape encodes to the reference's bytes, decodes to the reference's
// values through whole, one-byte and half-size reads, and every truncation
// or corruption of the image fails with the reference's error.
func TestCodecMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(26))
	for _, s := range codecShapes {
		d := bitsBlock(rng, grid.IV(rng.Intn(9)-4, rng.Intn(9)-4, rng.Intn(9)-4), s.size, s.ncomp)
		name := fmt.Sprintf("%v×%d", s.size, s.ncomp)
		var got, want bytes.Buffer
		if err := EncodeBlock(&got, d); err != nil {
			t.Fatalf("%s: encode: %v", name, err)
		}
		if err := refEncodeBlock(&want, d); err != nil {
			t.Fatal(err)
		}
		img := want.Bytes()
		if !bytes.Equal(got.Bytes(), img) {
			t.Fatalf("%s: EncodeBlock bytes differ from the reference", name)
		}
		if int64(len(img)) != EncodedSize(d) {
			t.Fatalf("%s: %d bytes, EncodedSize %d", name, len(img), EncodedSize(d))
		}
		for _, rd := range []struct {
			name string
			wrap func(io.Reader) io.Reader
		}{
			{"whole", func(r io.Reader) io.Reader { return r }},
			{"one-byte", iotest.OneByteReader},
			{"half", iotest.HalfReader},
			{"data-err", iotest.DataErrReader},
		} {
			back, err := DecodeBlock(rd.wrap(bytes.NewReader(img)))
			if err != nil || !sameBits(back, d) {
				t.Fatalf("%s %s read: decode = %v, values equal %v", name, rd.name, err, err == nil && sameBits(back, d))
			}
		}

		// Trailing bytes stay unread for the next frame.
		r := bytes.NewReader(append(append([]byte(nil), img...), 0xAB))
		if _, err := DecodeBlock(r); err != nil || r.Len() != 1 {
			t.Fatalf("%s: decode with a trailing byte = %v, %d left", name, err, r.Len())
		}

		cuts := []int{0, 1, 31, 32, 33, 40, len(img) - 5, len(img) - 4, len(img) - 1}
		for _, c := range []int{1, 2, 3} {
			cuts = append(cuts, 32+c*(64<<10)-1, 32+c*(64<<10), 32+c*(64<<10)+1)
		}
		for i := 0; i < 4; i++ {
			cuts = append(cuts, rng.Intn(len(img)))
		}
		for _, cut := range cuts {
			if cut < 0 || cut >= len(img) {
				continue
			}
			g := decodeOutcome(DecodeBlock(bytes.NewReader(img[:cut])))
			w := decodeOutcome(refDecodeBlock(bytes.NewReader(img[:cut])))
			if g != w {
				t.Fatalf("%s cut at %d: %s, reference %s", name, cut, g, w)
			}
		}

		flips := []int{0, 3, 4, 16, 28, 31, 32, len(img) - 4, len(img) - 1}
		for i := 0; i < 8; i++ {
			flips = append(flips, rng.Intn(len(img)))
		}
		for _, at := range flips {
			bad := append([]byte(nil), img...)
			bad[at] ^= byte(1 << rng.Intn(8))
			g := decodeOutcome(DecodeBlock(bytes.NewReader(bad)))
			w := decodeOutcome(refDecodeBlock(bytes.NewReader(bad)))
			if g != w {
				t.Fatalf("%s flip at %d: %s, reference %s", name, at, g, w)
			}
		}
	}

	// Writer failures surface unchanged, wherever in the stream they land.
	d := bitsBlock(rng, grid.IV(0, 0, 0), grid.IV(20, 20, 20), 3)
	for _, limit := range []int64{0, 10, 32, 40, 64 << 10, EncodedSize(d) - 2} {
		gotErr := EncodeBlock(&limitWriter{n: limit}, d)
		wantErr := refEncodeBlock(&limitWriter{n: limit}, d)
		if (gotErr == nil) != (wantErr == nil) || gotErr != nil && gotErr.Error() != wantErr.Error() {
			t.Errorf("write limit %d: %v, reference %v", limit, gotErr, wantErr)
		}
	}
	for _, bad := range []*field.BoxData{nil, {Box: grid.Box{Lo: grid.IV(1, 1, 1)}, NComp: 1}} {
		if g, w := EncodeBlock(io.Discard, bad), refEncodeBlock(io.Discard, bad); fmt.Sprint(g) != fmt.Sprint(w) {
			t.Errorf("encode of an empty block: %v, reference %v", g, w)
		}
	}
}

// TestSwapWordsMatchesBigEndian checks the big-endian host's half of the
// codec on any host: swapping each word of a little-endian image of
// codecShapes' bit patterns gives binary.BigEndian's image of the same
// values, and swapping again gives the original back.
func TestSwapWordsMatchesBigEndian(t *testing.T) {
	rng := rand.New(rand.NewSource(34))
	for _, s := range codecShapes {
		d := bitsBlock(rng, grid.IV(0, 0, 0), s.size, s.ncomp)
		var le, be []byte
		for c := 0; c < d.NComp; c++ {
			for _, v := range d.Comp(c) {
				le = binary.LittleEndian.AppendUint64(le, math.Float64bits(v))
				be = binary.BigEndian.AppendUint64(be, math.Float64bits(v))
			}
		}
		img := append([]byte(nil), le...)
		swapWords(img)
		if !bytes.Equal(img, be) {
			t.Fatalf("%v×%d: swapped words differ from binary.BigEndian", s.size, s.ncomp)
		}
		swapWords(img)
		if !bytes.Equal(img, le) {
			t.Fatalf("%v×%d: swapping twice does not round-trip", s.size, s.ncomp)
		}
	}
}

// TestEncodeLeavesSourceUntouched pins that encoding reads the block and
// never writes it: the codec's byte view aliases the block's values, which
// in a Space are stored data.
func TestEncodeLeavesSourceUntouched(t *testing.T) {
	rng := rand.New(rand.NewSource(35))
	for _, s := range codecShapes {
		d := bitsBlock(rng, grid.IV(1, 2, 3), s.size, s.ncomp)
		before := d.Clone()
		if err := EncodeBlock(io.Discard, d); err != nil {
			t.Fatal(err)
		}
		if !sameBits(d, before) {
			t.Fatalf("%v×%d: EncodeBlock changed the block it encoded", s.size, s.ncomp)
		}
	}
}

// TestUnwireableBlockIsNeverAcked holds every put path to the wire format's
// shape bounds: a block with more components than the format carries, or
// more values than a WAL record can hold (128³×2), fails with ErrBadBlock
// before anything is stored or sent, so a durable space never acknowledges
// a block its own recovery would refuse, and a pool never blames an
// endpoint for the caller's block. The largest block the bound admits,
// under the longest key a durable space admits, is logged and recovered.
// A variable name longer than the wire carries is the caller's error too:
// client and pool refuse it on every op with no retry, and the pool checks
// the longest name it would derive — a tenant-qualified replica name.
func TestUnwireableBlockIsNeverAcked(t *testing.T) {
	bads := map[string]*field.BoxData{
		"65-component": field.New(grid.BoxFromSize(grid.IV(0, 0, 0), grid.IV(2, 2, 2)), 65),
		"128³×2":       field.New(grid.BoxFromSize(grid.IV(0, 0, 0), grid.IV(128, 128, 128)), 2),
	}
	good := block(grid.IV(0, 0, 0), 8, 1)
	for name, bad := range bads {
		if err := EncodeBlock(io.Discard, bad); !errors.Is(err, ErrBadBlock) {
			t.Fatalf("encode of a %s block = %v, want ErrBadBlock", name, err)
		}
	}

	dir := t.TempDir()
	sp := persistSpace(t, dir)
	if err := sp.Put("rho", 1, good); err != nil {
		t.Fatal(err)
	}
	for name, bad := range bads {
		if err := sp.Put("rho", 0, bad); !errors.Is(err, ErrBadBlock) {
			t.Fatalf("durable Space.Put of a %s block = %v, want ErrBadBlock", name, err)
		}
	}
	longKey := strings.Repeat("k", maxWALKey)
	if err := sp.Put(longKey+"k", 0, good); !errors.Is(err, ErrBadBlock) {
		t.Fatalf("durable Space.Put under a %d-byte key = %v, want ErrBadBlock", maxWALKey+1, err)
	}
	if sp.MemUsed() != good.Bytes() {
		t.Fatalf("rejected puts stored %d bytes", sp.MemUsed()-good.Bytes())
	}
	largest := field.New(grid.BoxFromSize(grid.IV(0, 0, 0), grid.IV(1, 1, maxBlockValues)), 1)
	if err := sp.Put(longKey, 2, largest); err != nil {
		t.Fatalf("durable Space.Put of the largest admitted block: %v", err)
	}
	if err := sp.ClosePersist(); err != nil {
		t.Fatal(err)
	}
	back, st := recoverSpace(t, dir)
	if st.TornTail || st.Blocks != 2 {
		t.Fatalf("recovered %d blocks (torn tail %v), want 2 and none", st.Blocks, st.TornTail)
	}
	assertSameContent(t, sp, back)

	srvSpace := NewSpace(1, 0, dom())
	srv, err := ServeOptions("127.0.0.1:0", srvSpace, ServerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	cl, err := Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	for name, put := range map[string]func(string, int, *field.BoxData) error{"Put": cl.Put, "PutRepair": cl.PutRepair} {
		for bname, bad := range bads {
			if err := put("rho", 0, bad); !errors.Is(err, ErrBadBlock) {
				t.Fatalf("Client.%s of a %s block = %v, want ErrBadBlock", name, bname, err)
			}
		}
	}
	longName := strings.Repeat("v", maxVarName+1)
	if err := cl.Put(longName, 0, good); !errors.Is(err, ErrBadBlock) {
		t.Fatalf("Client.Put under a %d-byte name = %v, want ErrBadBlock", len(longName), err)
	}
	if _, err := cl.GetBlocks(longName, 0, dom()); !errors.Is(err, ErrBadBlock) {
		t.Fatalf("Client.GetBlocks under a %d-byte name = %v, want ErrBadBlock", len(longName), err)
	}
	if _, err := cl.DropBefore(longName, 1); !errors.Is(err, ErrBadBlock) {
		t.Fatalf("Client.DropBefore under a %d-byte name = %v, want ErrBadBlock", len(longName), err)
	}
	if retries, reconnects := cl.TransportStats(); retries != 0 || reconnects != 0 {
		t.Fatalf("rejected puts cost %d retries, %d reconnects", retries, reconnects)
	}
	if err := cl.Put("rho", 1, good); err != nil || srvSpace.MemUsed() != good.Bytes() {
		t.Fatalf("put after the rejections = %v, server holds %d bytes", err, srvSpace.MemUsed())
	}

	rig := newPoolRig(t, 3, 2)
	for name, bad := range bads {
		if err := rig.pool.Put("rho", 0, bad); !errors.Is(err, ErrBadBlock) {
			t.Fatalf("Pool.Put of a %s block = %v, want ErrBadBlock", name, err)
		}
	}
	// The highest shard's replica variable appends "#r2": a name that fits
	// the wire alone may not fit it as a replica, on whichever shard the
	// block lands; under a tenant the qualified name must fit.
	fits := strings.Repeat("v", maxVarName-len("#r2"))
	tenant, err := rig.pool.Tenant("t0")
	if err != nil {
		t.Fatal(err)
	}
	for _, bn := range []struct {
		what string
		pool *Pool
		name string
	}{
		{"a too long name", rig.pool, longName},
		{"a name too long as a replica", rig.pool, fits + "v"},
		{"a name too long once tenant-qualified", tenant, fits[len("t0/"):] + "v"},
	} {
		if err := bn.pool.Put(bn.name, 0, good); !errors.Is(err, ErrBadBlock) {
			t.Fatalf("Pool.Put under %s = %v, want ErrBadBlock", bn.what, err)
		}
		if _, err := bn.pool.GetBlocks(bn.name, 0, dom()); !errors.Is(err, ErrBadBlock) {
			t.Fatalf("Pool.GetBlocks under %s = %v, want ErrBadBlock", bn.what, err)
		}
		if _, err := bn.pool.DropBefore(bn.name, 1); !errors.Is(err, ErrBadBlock) {
			t.Fatalf("Pool.DropBefore under %s = %v, want ErrBadBlock", bn.what, err)
		}
	}
	if h, n := rig.pool.HealthyEndpoints(); h != n {
		t.Fatalf("a rejected put left %d of %d endpoints healthy", h, n)
	}
	if retries, _ := rig.pool.TransportStats(); retries != 0 {
		t.Fatalf("a rejected put cost %d retries", retries)
	}
	for i, s := range rig.spaces {
		if s.MemUsed() != 0 {
			t.Fatalf("server %d holds %d bytes after a rejected put", i, s.MemUsed())
		}
	}
	for _, pn := range []struct {
		pool *Pool
		name string
	}{{rig.pool, fits}, {tenant, fits[len("t0/"):]}} {
		if err := pn.pool.Put(pn.name, 0, good); err != nil {
			t.Fatalf("Pool.Put under the longest admitted %d-byte name: %v", len(pn.name), err)
		}
	}
}

// limitWriter accepts n bytes, then fails every write.
type limitWriter struct{ n int64 }

var errWriteLimit = fmt.Errorf("write limit reached")

func (w *limitWriter) Write(p []byte) (int, error) {
	if int64(len(p)) > w.n {
		m := int(w.n)
		w.n = 0
		return m, errWriteLimit
	}
	w.n -= int64(len(p))
	return len(p), nil
}

// raceEnabled is set by race_test.go: the race detector makes sync.Pool drop
// items at random, so allocation counts mean nothing under it.
var raceEnabled bool

// TestCodecAllocations pins what the codec allocates: encode nothing, decode
// the block and its values, whatever the component count — and a 4 KiB put
// round trip over TCP, client and server together, nothing beyond the
// decoded block, the variable name and what Space.Put itself allocates.
func TestCodecAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items under the race detector")
	}
	for _, s := range []struct {
		size  grid.IntVect
		ncomp int
	}{{grid.IV(8, 8, 8), 1}, {grid.IV(8, 8, 8), 5}, {grid.IV(16, 16, 16), 5}} {
		d := rampBlock(grid.IV(0, 0, 0), s.size.X, s.ncomp, 1)
		var buf bytes.Buffer
		if err := EncodeBlock(&buf, d); err != nil {
			t.Fatal(err)
		}
		img := buf.Bytes()
		if n := testing.AllocsPerRun(50, func() { EncodeBlock(io.Discard, d) }); n != 0 {
			t.Errorf("%v×%d: encode allocates %v times, want 0", s.size, s.ncomp, n)
		}
		r := bytes.NewReader(img)
		decode := func() {
			r.Reset(img)
			if _, err := DecodeBlock(r); err != nil {
				t.Fatal(err)
			}
		}
		if n := testing.AllocsPerRun(50, decode); n != 2 {
			t.Errorf("%v×%d: decode allocates %v times, want 2 (block and values)", s.size, s.ncomp, n)
		}
		const runs = 50
		before := allocatedBytes()
		for i := 0; i < runs; i++ {
			decode()
		}
		if per, payload := (allocatedBytes()-before)/runs, d.Bytes(); per > payload+256 {
			t.Errorf("%v×%d: decode allocates %d bytes for a %d-byte payload", s.size, s.ncomp, per, payload)
		}
	}

	// Each put goes to a fresh variable, as the probe's do, in a space and
	// over a connection of its own.
	domain := grid.NewBox(grid.IV(0, 0, 0), grid.IV(63, 63, 63))
	blk := rampBlock(grid.IV(0, 0, 0), 8, 1, 1)
	names := make([]string, 202)
	for i := range names {
		names[i] = fmt.Sprintf("p%d", i)
	}
	puts := func(put func(string, int, *field.BoxData) error) float64 {
		next := 0
		return testing.AllocsPerRun(200, func() {
			if err := put(names[next], 0, blk); err != nil {
				t.Fatal(err)
			}
			next++
		})
	}
	space := puts(NewSpace(1, 0, domain).Put)
	srv, err := ServeOptions("127.0.0.1:0", NewSpace(1, 0, domain), ServerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	cl, err := Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if n := puts(cl.Put); n > space+3 {
		t.Errorf("a 4 KiB put round trip allocates %v times; Space.Put alone %v, want at most 3 more", n, space)
	}
}
