package staging

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"io"
	"runtime"
	"sync/atomic"
	"testing"

	"crosslayer/internal/field"
	"crosslayer/internal/grid"
)

// allocatedBytes reports cumulative heap allocation — deltas measure how
// much a code path allocated regardless of intervening GCs.
func allocatedBytes() int64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return int64(ms.TotalAlloc)
}

// encodeForSeed serializes a small valid block for the fuzz corpora.
func encodeForSeed(t interface{ Fatal(...any) }, lo grid.IntVect, n, ncomp int, val float64) []byte {
	box := grid.NewBox(lo, grid.IV(lo.X+n-1, lo.Y+n-1, lo.Z+n-1))
	d := field.New(box, ncomp)
	for c := 0; c < ncomp; c++ {
		comp := d.Comp(c)
		for i := range comp {
			comp[i] = val + float64(c)*0.5 + float64(i)*0.001
		}
	}
	var buf bytes.Buffer
	if err := EncodeBlock(&buf, d); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// FuzzDecodeBlock feeds arbitrary bytes to the block decoder. The decoder
// must never panic and never allocate far beyond the input it was given;
// when it does accept an input, re-encoding must reproduce an identical
// block (decode∘encode is the identity on the decoder's accepted set).
func FuzzDecodeBlock(f *testing.F) {
	f.Add([]byte{})
	f.Add(encodeForSeed(f, grid.IV(0, 0, 0), 2, 1, 1.25))
	f.Add(encodeForSeed(f, grid.IV(-3, 4, 7), 3, 2, -0.5))
	// A truthful magic with a hostile header claiming a huge box.
	hostile := make([]byte, 32)
	binary.LittleEndian.PutUint32(hostile[0:], blockMagic)
	binary.LittleEndian.PutUint32(hostile[16:], uint32(int32(1<<24)))
	binary.LittleEndian.PutUint32(hostile[20:], uint32(int32(1<<24)))
	binary.LittleEndian.PutUint32(hostile[24:], uint32(int32(1<<24)))
	binary.LittleEndian.PutUint32(hostile[28:], 64)
	f.Add(hostile)

	f.Fuzz(func(t *testing.T, data []byte) {
		d, err := DecodeBlock(bytes.NewReader(data))
		if err != nil {
			return // rejection is fine; panicking or hanging is not
		}
		var buf bytes.Buffer
		if err := EncodeBlock(&buf, d); err != nil {
			t.Fatalf("decoded block failed to re-encode: %v", err)
		}
		d2, err := DecodeBlock(&buf)
		if err != nil {
			t.Fatalf("re-encoded block failed to decode: %v", err)
		}
		if !d.Equal(d2) {
			t.Fatalf("decode/encode round trip not identity: %v vs %v", d.Box, d2.Box)
		}
	})
}

// FuzzReadRequest feeds arbitrary bytes to the server's request loop: a
// hostile or corrupt client must never panic the server or make it
// allocate beyond what the stream carries. The response sink is discarded;
// only survival is asserted.
func FuzzReadRequest(f *testing.F) {
	// A valid put request as a seed: header + encoded block.
	var put bytes.Buffer
	put.WriteByte(opPut)
	name := "analysis"
	var hdr [2]byte
	binary.LittleEndian.PutUint16(hdr[:], uint16(len(name)))
	put.Write(hdr[:])
	put.WriteString(name)
	var ver [4]byte
	binary.LittleEndian.PutUint32(ver[:], 3)
	put.Write(ver[:])
	put.Write(make([]byte, 8)) // put sequence number
	put.Write(encodeForSeed(f, grid.IV(0, 0, 0), 2, 1, 2.5))
	f.Add(put.Bytes())

	// A valid get request.
	var get bytes.Buffer
	get.WriteByte(opGet)
	get.Write(hdr[:])
	get.WriteString(name)
	get.Write(ver[:])
	get.Write(make([]byte, 24))
	f.Add(get.Bytes())
	f.Add([]byte{opDrop, 0, 0, 0, 0, 0, 0})
	f.Add([]byte{opStat, 0, 0, 0, 0, 0, 0})
	f.Add([]byte{255, 255, 255})

	f.Fuzz(func(t *testing.T, data []byte) {
		space := NewSpace(1, 1<<20, grid.NewBox(grid.IV(0, 0, 0), grid.IV(63, 63, 63)))
		s := &Server{space: space}
		r := bufio.NewReader(bytes.NewReader(data))
		w := bufio.NewWriter(io.Discard)
		// Serve requests off the buffer until it errors out (EOF at the
		// latest) — mirrors Server.handle without a real socket.
		var busy atomic.Bool
		for i := 0; i < 16; i++ {
			if err := s.handleOne(r, w, &busy); err != nil {
				break
			}
			w.Flush()
		}
	})
}

// FuzzTenantKey pins the tenant-namespace codec: for every accepted
// (tenant, var) pair, encode∘decode must be the identity — a hostile
// tenant id can never be mangled into another tenant's namespace, only
// rejected outright — and any key the splitter attributes to a tenant must
// re-encode to the identical key (no two namespaces share a key).
func FuzzTenantKey(f *testing.F) {
	f.Add("t0", "analysis")
	f.Add("team-a", "analysis#r2")
	f.Add("t1", "nested/looking/var")
	f.Add("", "x")       // empty tenant must be rejected
	f.Add("a/b", "x")    // separator smuggling must be rejected
	f.Add("t0/t1", "x")  // nested-namespace smuggling must be rejected
	f.Add("..", "x")     // path-looking ids are allowed chars, must round-trip
	f.Add("t0", "")      // empty var must be rejected
	f.Add("t0", "/")     // var beginning with the separator
	f.Add("a\x00b", "x") // control bytes must be rejected
	f.Add("é", "x")      // non-ASCII must be rejected

	f.Fuzz(func(t *testing.T, tenant, varName string) {
		key, err := TenantVar(tenant, varName)
		if err != nil {
			// Rejection is fine — but the validator must agree it was
			// hostile: a valid tenant with a non-empty var always encodes.
			if ValidTenant(tenant) && varName != "" {
				t.Fatalf("TenantVar(%q, %q) rejected a valid pair: %v", tenant, varName, err)
			}
			return
		}
		if !ValidTenant(tenant) || varName == "" {
			t.Fatalf("TenantVar(%q, %q) accepted a hostile pair", tenant, varName)
		}
		ten, v, ok := SplitTenantVar(key)
		if !ok || ten != tenant || v != varName {
			t.Fatalf("split(%q) = (%q, %q, %v), want (%q, %q, true)",
				key, ten, v, ok, tenant, varName)
		}
		if got := TenantOf(key); got != tenant {
			t.Fatalf("TenantOf(%q) = %q, want %q", key, got, tenant)
		}
		// Re-encoding the split must reproduce the identical key: no two
		// (tenant, var) pairs can collide on one wire key.
		key2, err := TenantVar(ten, v)
		if err != nil || key2 != key {
			t.Fatalf("re-encode of split(%q) = (%q, %v)", key, key2, err)
		}
	})
}

// TestDecodeBoundsAllocationToInput pins the over-allocation defense: a
// header claiming a near-maximal box followed by a short body must fail
// without ballooning memory. Before any payload arrives the decoder commits
// at most decodeUpfront; past that its allocation doubles only as chunks
// arrive, so it stays within twice the bytes received plus that allowance.
func TestDecodeBoundsAllocationToInput(t *testing.T) {
	hostile := make([]byte, 32)
	binary.LittleEndian.PutUint32(hostile[0:], blockMagic)
	// box (0,0,0)-(159,159,159), 160³ cells and within maxBlockValues, would
	// be 31 MiB of payload if the claim were honored up front.
	binary.LittleEndian.PutUint32(hostile[16:], 159)
	binary.LittleEndian.PutUint32(hostile[20:], 159)
	binary.LittleEndian.PutUint32(hostile[24:], 159)
	binary.LittleEndian.PutUint32(hostile[28:], 1)

	for _, body := range []int{0, 100, decodeUpfront + 8, 4 << 20, 4<<20 + codecChunk/2} {
		in := append(append([]byte(nil), hostile...), make([]byte, body)...)
		before := allocatedBytes()
		_, err := DecodeBlock(bytes.NewReader(in))
		grown := allocatedBytes() - before
		if err == nil {
			t.Fatal("hostile header accepted")
		}
		// The allowance covers the up-front values, a chunk the pool may have
		// had to allocate, and the error.
		if limit := 2*int64(body) + decodeUpfront + codecChunk + 4<<10; grown > limit {
			t.Errorf("decode of a %d-byte body grew heap by %d bytes, limit %d", body, grown, limit)
		}
	}
}
