package journal

import (
	"bytes"
	"reflect"
	"testing"
)

// FuzzJournal throws arbitrary bytes at the recovery scanner. Whatever the
// input: Scan must never panic, must never allocate absurdly, and whenever
// it recovers a valid prefix, re-encoding that prefix must reproduce the
// input bytes exactly (decode∘encode identity — the canonical-form
// property the resume path's truncate-to-Good step relies on).
func FuzzJournal(f *testing.F) {
	seed := func(h Header, cps ...Checkpoint) []byte {
		var buf bytes.Buffer
		jw := NewWriter(&buf)
		if err := jw.WriteHeader(h); err != nil {
			f.Fatal(err)
		}
		for _, cp := range cps {
			if _, err := jw.WriteCheckpoint(cp); err != nil {
				f.Fatal(err)
			}
		}
		return buf.Bytes()
	}
	cp := func(step int) Checkpoint {
		c := Checkpoint{
			Step:      step,
			EventSeq:  uint64(step * 11),
			SpanSeq:   uint64(step * 5),
			PoolCores: 8,
		}
		c.EventsOffset, c.SpansOffset = -1, -1
		c.Record.Step = step
		c.Record.Factor = 1 + step%4
		c.Record.PlacementReason = "objective"
		if step%2 == 1 {
			c.Manifest = []byte{0x58, 0x4c, 0x4d, 0x31, 0, 0, 0, 0}
		}
		return c
	}
	f.Add([]byte{})
	f.Add([]byte("garbage"))
	f.Add(seed(Header{Fingerprint: "fp", TraceSeed: "seed"}))
	f.Add(seed(Header{Fingerprint: "fp"}, cp(0)))
	f.Add(seed(Header{TraceSeed: "s"}, cp(0), cp(1), cp(4)))
	full := seed(Header{Fingerprint: "fp", TraceSeed: "seed"}, cp(0), cp(1))
	f.Add(full[:len(full)-3])                       // torn tail
	f.Add(seed(pinnedHeader(), pinnedCheckpoint())) // every field non-zero

	f.Fuzz(func(t *testing.T, data []byte) {
		rec, err := Scan(bytes.NewReader(data))
		if err != nil {
			return // structural rejection is a valid outcome; panics are not
		}
		if rec.Good < 0 || rec.Good > int64(len(data)) {
			t.Fatalf("Good=%d outside [0,%d]", rec.Good, len(data))
		}
		if rec.Torn != (rec.Good != int64(len(data))) {
			t.Fatalf("Torn=%v inconsistent with Good=%d of %d", rec.Torn, rec.Good, len(data))
		}
		if rec.Good == 0 {
			return
		}
		// Canonical re-encode of the recovered prefix.
		var buf bytes.Buffer
		jw := NewWriter(&buf)
		if err := jw.WriteHeader(rec.Header); err != nil {
			t.Fatalf("re-encode header: %v", err)
		}
		for _, c := range rec.Checkpoints {
			if _, err := jw.WriteCheckpoint(c); err != nil {
				t.Fatalf("re-encode checkpoint %d: %v", c.Step, err)
			}
		}
		if !bytes.Equal(buf.Bytes(), data[:rec.Good]) {
			t.Fatal("re-encoded journal differs from recovered prefix")
		}
		// And the re-encoded bytes scan back to the same value.
		again, err := Scan(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("re-scan: %v", err)
		}
		if again.Header != rec.Header || !reflect.DeepEqual(again.Checkpoints, rec.Checkpoints) {
			t.Fatal("re-scan disagrees with first scan")
		}
	})
}
