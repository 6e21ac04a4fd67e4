package staging

import (
	"bytes"
	"errors"
	"testing"
)

func TestManifestEncodeDecodeRoundTrip(t *testing.T) {
	m := Manifest{Entries: []ManifestEntry{
		{Var: "analysis", Version: 3, Blocks: 64},
		{Var: "analysis", Version: 4, Blocks: 64},
		{Var: "checkpoint", Version: 0, Blocks: 1},
	}}
	raw, err := EncodeManifest(m)
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeManifest(raw)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(m) {
		t.Fatalf("round trip mismatch: %v vs %v", got, m)
	}
}

// Encoding canonicalizes: unsorted input decodes back sorted, so two
// manifests with the same entries in any order share one wire form.
func TestManifestEncodeCanonicalizesOrder(t *testing.T) {
	shuffled := Manifest{Entries: []ManifestEntry{
		{Var: "b", Version: 0, Blocks: 2},
		{Var: "a", Version: 7, Blocks: 1},
		{Var: "a", Version: 2, Blocks: 9},
	}}
	sorted := Manifest{Entries: []ManifestEntry{
		{Var: "a", Version: 2, Blocks: 9},
		{Var: "a", Version: 7, Blocks: 1},
		{Var: "b", Version: 0, Blocks: 2},
	}}
	b1, err := EncodeManifest(shuffled)
	if err != nil {
		t.Fatal(err)
	}
	b2, err := EncodeManifest(sorted)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b1, b2) {
		t.Fatal("same entries in different order produced different encodings")
	}
	got, err := DecodeManifest(b1)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(sorted) {
		t.Fatalf("decoded %v, want canonical %v", got, sorted)
	}
}

func TestManifestEncodeRejectsInvalid(t *testing.T) {
	long := make([]byte, maxVarName+1)
	for i := range long {
		long[i] = 'x'
	}
	cases := []struct {
		name string
		m    Manifest
	}{
		{"empty var", Manifest{Entries: []ManifestEntry{{Var: "", Version: 0, Blocks: 1}}}},
		{"oversized var", Manifest{Entries: []ManifestEntry{{Var: string(long), Version: 0, Blocks: 1}}}},
		{"negative version", Manifest{Entries: []ManifestEntry{{Var: "a", Version: -1, Blocks: 1}}}},
		{"zero blocks", Manifest{Entries: []ManifestEntry{{Var: "a", Version: 0, Blocks: 0}}}},
		{"duplicate entry", Manifest{Entries: []ManifestEntry{
			{Var: "a", Version: 1, Blocks: 1}, {Var: "a", Version: 1, Blocks: 2},
		}}},
	}
	for _, tc := range cases {
		if _, err := EncodeManifest(tc.m); err == nil {
			t.Errorf("%s: encode accepted invalid manifest", tc.name)
		}
	}
}

func TestManifestDecodeRejectsHostileInput(t *testing.T) {
	valid := func() []byte {
		m := Manifest{Entries: []ManifestEntry{
			{Var: "a", Version: 1, Blocks: 1},
			{Var: "b", Version: 0, Blocks: 2},
		}}
		raw, err := EncodeManifest(m)
		if err != nil {
			t.Fatal(err)
		}
		return raw
	}()

	badMagic := append([]byte(nil), valid...)
	badMagic[0] ^= 0xff
	truncated := valid[:len(valid)-3]
	// Swap the two entries on the wire: magic+count is 8 bytes, entry "a" is
	// 2+1+8 = 11 bytes, entry "b" likewise — a syntactically fine stream that
	// violates the strict ordering.
	swapped := append([]byte(nil), valid[:8]...)
	swapped = append(swapped, valid[8+11:]...)
	swapped = append(swapped, valid[8:8+11]...)
	// A count far beyond the cap must be refused before any allocation.
	hugeCount := append([]byte(nil), valid[:4]...)
	hugeCount = append(hugeCount, 0xff, 0xff, 0xff, 0xff)

	for _, tc := range []struct {
		name string
		data []byte
	}{
		{"bad magic", badMagic},
		{"truncated", truncated},
		{"unordered entries", swapped},
		{"huge count", hugeCount},
		{"trailing byte", append(append([]byte(nil), valid...), 0)},
		{"empty", nil},
	} {
		if _, err := DecodeManifest(tc.data); !errors.Is(err, ErrBadManifest) {
			t.Errorf("%s: got %v, want ErrBadManifest", tc.name, err)
		}
	}
}

// FuzzPoolManifest feeds arbitrary bytes to the manifest decoder. The
// decoder must never panic and never allocate beyond its bounded limits;
// on the accepted set, decode∘encode and encode∘decode are both
// identities (the canonical-form contract).
func FuzzPoolManifest(f *testing.F) {
	seed := func(m Manifest) []byte {
		raw, err := EncodeManifest(m)
		if err != nil {
			f.Fatal(err)
		}
		return raw
	}
	f.Add([]byte{})
	f.Add(seed(Manifest{}))
	f.Add(seed(Manifest{Entries: []ManifestEntry{
		{Var: "analysis", Version: 0, Blocks: 64},
		{Var: "analysis", Version: 1, Blocks: 64},
		{Var: "viz", Version: 12, Blocks: 7},
	}}))
	// Truthful magic, hostile count.
	f.Add([]byte{0x58, 0x4c, 0x4d, 0x31, 0x00, 0x10, 0x00, 0x01})

	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := DecodeManifest(data)
		if err != nil {
			return // rejection is fine; panicking or hanging is not
		}
		raw, err := EncodeManifest(m)
		if err != nil {
			t.Fatalf("decoded manifest failed to re-encode: %v", err)
		}
		if !bytes.Equal(raw, data) {
			t.Fatalf("decode/encode round trip not identity: %x vs %x", raw, data)
		}
	})
}

// TestPoolManifestAudit pins the manifest/audit loop on a live pool: the
// manifest counts what was put, the audit finds every block on some
// replica, and losing more servers than the replication factor covers
// shows up as missing blocks.
func TestPoolManifestAudit(t *testing.T) {
	rig := newPoolRig(t, 3, 2)
	blocks := spread()
	for v := 0; v < 2; v++ {
		for _, b := range blocks {
			if err := rig.pool.Put("analysis", v, b); err != nil {
				t.Fatal(err)
			}
		}
	}

	m := rig.pool.Manifest()
	want := Manifest{Entries: []ManifestEntry{
		{Var: "analysis", Version: 0, Blocks: len(blocks)},
		{Var: "analysis", Version: 1, Blocks: len(blocks)},
	}}
	if !m.Equal(want) {
		t.Fatalf("manifest %v, want %v", m, want)
	}
	if missing := rig.pool.Audit(m); missing != 0 {
		t.Fatalf("healthy pool audit reported %d missing blocks", missing)
	}

	// One crashed server (transport severed, state wiped) is covered by the
	// second replica; two of three are not.
	rig.kill(0)
	if missing := rig.pool.Audit(m); missing != 0 {
		t.Fatalf("audit after one crash reported %d missing blocks (replicas cover one loss)", missing)
	}
	rig.kill(1)
	if missing := rig.pool.Audit(m); missing == 0 {
		t.Fatal("audit after two crashes reported no missing blocks")
	}

	// DropBefore retires version 0 from the live map and the next manifest.
	if _, err := rig.pool.DropBefore("analysis", 1); err != nil {
		t.Fatal(err)
	}
	m2 := rig.pool.Manifest()
	want2 := Manifest{Entries: []ManifestEntry{{Var: "analysis", Version: 1, Blocks: len(blocks)}}}
	if !m2.Equal(want2) {
		t.Fatalf("manifest after drop %v, want %v", m2, want2)
	}
}
