package journal

import (
	"bytes"
	"errors"
	"reflect"
	"testing"
)

func sampleHeader() Header {
	return Header{
		Fingerprint: `{"app":"advection-diffusion","steps":12}`,
		TraceSeed:   "run/advection-diffusion/auto/tts/steps=12",
	}
}

func sampleCheckpoint(step int) Checkpoint {
	return Checkpoint{
		Step:                 step,
		EventSeq:             uint64(10*step + 7),
		SpanSeq:              uint64(4*step + 3),
		RunSpanSeq:           1,
		SimBusyUntil:         1.5 * float64(step+1),
		SimBusyTotal:         1.25 * float64(step+1),
		PoolBusyUntil:        0.75 * float64(step+1),
		PoolBusyTotal:        0.5 * float64(step+1),
		PoolCores:            64,
		PoolCoreSecondsBusy:  3.5,
		PoolCoreSecondsTotal: 96,
		StagingMemUsed:       1 << 20,
		StagingDownUntil:     step + 2,
		LastPlacement:        2,
		MonitorHaveEWMA:      true,
		MonitorSimEWMA:       1.75,
		MonitorDataEWMA:      3e6,
		SimSecondsTotal:      12.5,
		BytesMovedTotal:      9 << 20,
		InSituSteps:          1,
		InTransitSteps:       step,
		EventsOffset:         int64(1024 * (step + 1)),
		SpansOffset:          int64(512 * (step + 1)),
		Record: StepSnapshot{
			Step:             step,
			Factor:           2,
			ReduceSeconds:    0.01,
			Entropy:          0.5,
			BytesProduced:    8 << 20,
			BytesAnalyzed:    4 << 20,
			BytesMoved:       4 << 20,
			Placement:        1,
			PlacementReason:  "objective",
			HybridFrac:       0,
			SimSeconds:       1.5,
			AnalysisSeconds:  0.25,
			TransferSeconds:  0.125,
			StagingCores:     64,
			PeakMemBytes:     1 << 24,
			MinMemAvail:      1 << 23,
			MaxRankDataBytes: 1 << 20,
			StagingMemUsed:   1 << 20,
			Triangles:        1234,
			SimClock:         1.5 * float64(step+1),
			StagingClock:     0.75 * float64(step+1),
			FinestLevel:      1,
		},
		Manifest: []byte{0x58, 0x4c, 0x4d, 0x31, 0, 0, 0, 0},
	}
}

func encodeJournal(t *testing.T, h Header, cps ...Checkpoint) []byte {
	t.Helper()
	var buf bytes.Buffer
	jw := NewWriter(&buf)
	if err := jw.WriteHeader(h); err != nil {
		t.Fatalf("WriteHeader: %v", err)
	}
	for _, cp := range cps {
		if _, err := jw.WriteCheckpoint(cp); err != nil {
			t.Fatalf("WriteCheckpoint(%d): %v", cp.Step, err)
		}
	}
	return buf.Bytes()
}

func TestJournalRoundTrip(t *testing.T) {
	h := sampleHeader()
	cps := []Checkpoint{sampleCheckpoint(0), sampleCheckpoint(1), sampleCheckpoint(5)}
	data := encodeJournal(t, h, cps...)

	rec, err := Scan(bytes.NewReader(data))
	if err != nil {
		t.Fatalf("Scan: %v", err)
	}
	if rec.Torn {
		t.Fatal("clean journal reported torn")
	}
	if rec.Good != int64(len(data)) {
		t.Fatalf("Good=%d, want %d", rec.Good, len(data))
	}
	if rec.Header != h {
		t.Fatalf("header %+v, want %+v", rec.Header, h)
	}
	if !reflect.DeepEqual(rec.Checkpoints, cps) {
		t.Fatalf("checkpoints differ:\n got %+v\nwant %+v", rec.Checkpoints, cps)
	}
	if rec.Last().Step != 5 {
		t.Fatalf("Last().Step=%d, want 5", rec.Last().Step)
	}
}

// TestJournalCanonicalEncoding: decoding and re-encoding a journal must
// reproduce the input bytes — the codec admits exactly one encoding per
// value.
func TestJournalCanonicalEncoding(t *testing.T) {
	data := encodeJournal(t, sampleHeader(), sampleCheckpoint(0), sampleCheckpoint(3))
	rec, err := Scan(bytes.NewReader(data))
	if err != nil {
		t.Fatalf("Scan: %v", err)
	}
	re := encodeJournal(t, rec.Header, rec.Checkpoints...)
	if !bytes.Equal(re, data) {
		t.Fatal("re-encoded journal differs from original bytes")
	}
}

// TestJournalTornTail truncates a valid journal at every possible byte
// length: the scan must never fail, never panic, and always recover
// exactly the checkpoints whose records fit completely.
func TestJournalTornTail(t *testing.T) {
	h := sampleHeader()
	cps := []Checkpoint{sampleCheckpoint(0), sampleCheckpoint(1)}
	data := encodeJournal(t, h, cps...)
	hdrLen := len(encodeJournal(t, h))
	cp0Len := len(encodeJournal(t, h, cps[0]))

	for cut := 0; cut <= len(data); cut++ {
		rec, err := Scan(bytes.NewReader(data[:cut]))
		if err != nil {
			t.Fatalf("cut=%d: Scan: %v", cut, err)
		}
		wantCps := 0
		switch {
		case cut >= len(data):
			wantCps = 2
		case cut >= cp0Len:
			wantCps = 1
		}
		if len(rec.Checkpoints) != wantCps {
			t.Fatalf("cut=%d: recovered %d checkpoints, want %d", cut, len(rec.Checkpoints), wantCps)
		}
		wantGood := 0
		switch {
		case cut >= len(data):
			wantGood = len(data)
		case cut >= cp0Len:
			wantGood = cp0Len
		case cut >= hdrLen:
			wantGood = hdrLen
		}
		if rec.Good != int64(wantGood) {
			t.Fatalf("cut=%d: Good=%d, want %d", cut, rec.Good, wantGood)
		}
		if wantTorn := cut != wantGood; rec.Torn != wantTorn {
			t.Fatalf("cut=%d: Torn=%v, want %v", cut, rec.Torn, wantTorn)
		}
	}
}

// TestJournalCorruptRecordStopsScan: a bit flip inside a record makes its
// checksum fail, and the scan treats it — and everything after it — as a
// torn tail rather than trusting garbage.
func TestJournalCorruptRecordStopsScan(t *testing.T) {
	h := sampleHeader()
	data := encodeJournal(t, h, sampleCheckpoint(0), sampleCheckpoint(1))
	hdrLen := len(encodeJournal(t, h))
	cp0Len := len(encodeJournal(t, h, sampleCheckpoint(0)))

	corrupt := append([]byte(nil), data...)
	corrupt[cp0Len+10] ^= 0x40 // inside checkpoint 1's record
	rec, err := Scan(bytes.NewReader(corrupt))
	if err != nil {
		t.Fatalf("Scan: %v", err)
	}
	if !rec.Torn || rec.Good != int64(cp0Len) || len(rec.Checkpoints) != 1 {
		t.Fatalf("torn=%v good=%d cps=%d, want torn at %d with 1 checkpoint",
			rec.Torn, rec.Good, len(rec.Checkpoints), cp0Len)
	}

	// A corrupted header leaves nothing to resume from.
	corrupt = append([]byte(nil), data...)
	corrupt[6] ^= 0x01
	rec, err = Scan(bytes.NewReader(corrupt))
	if err != nil {
		t.Fatalf("Scan: %v", err)
	}
	if !rec.Torn || rec.Good != 0 || len(rec.Checkpoints) != 0 {
		t.Fatalf("corrupt header: torn=%v good=%d cps=%d", rec.Torn, rec.Good, len(rec.Checkpoints))
	}
	_ = hdrLen
}

func TestJournalStructuralErrors(t *testing.T) {
	h := sampleHeader()

	// Checkpoint before any header.
	var buf bytes.Buffer
	jw := NewWriter(&buf)
	if _, err := jw.WriteCheckpoint(sampleCheckpoint(0)); err != nil {
		t.Fatalf("WriteCheckpoint: %v", err)
	}
	if _, err := Scan(bytes.NewReader(buf.Bytes())); !errors.Is(err, ErrBadJournal) {
		t.Fatalf("headerless journal: err=%v, want ErrBadJournal", err)
	}

	// Duplicate header.
	buf.Reset()
	jw = NewWriter(&buf)
	if err := jw.WriteHeader(h); err != nil {
		t.Fatal(err)
	}
	if err := jw.WriteHeader(h); err != nil {
		t.Fatal(err)
	}
	if _, err := Scan(bytes.NewReader(buf.Bytes())); !errors.Is(err, ErrBadJournal) {
		t.Fatalf("duplicate header: err=%v, want ErrBadJournal", err)
	}

	// Non-monotonic checkpoint steps.
	data := encodeJournal(t, h, sampleCheckpoint(3), sampleCheckpoint(3))
	if _, err := Scan(bytes.NewReader(data)); !errors.Is(err, ErrBadJournal) {
		t.Fatalf("repeated step: err=%v, want ErrBadJournal", err)
	}

	// A checkpoint whose embedded record belongs to a different step is
	// rejected on encode.
	bad := sampleCheckpoint(2)
	bad.Record.Step = 1
	if _, err := NewWriter(&bytes.Buffer{}).WriteCheckpoint(bad); !errors.Is(err, ErrBadJournal) {
		t.Fatalf("mismatched record step: err=%v, want ErrBadJournal", err)
	}
}

func TestJournalBarrierFlushOffsets(t *testing.T) {
	var buf bytes.Buffer
	jw := NewWriter(&buf)
	if err := jw.WriteHeader(sampleHeader()); err != nil {
		t.Fatal(err)
	}
	jw.SetBarrierFlush(func() (int64, int64, error) { return 777, 888, nil })
	cp := sampleCheckpoint(0)
	cp.EventsOffset, cp.SpansOffset = -1, -1
	if _, err := jw.WriteCheckpoint(cp); err != nil {
		t.Fatal(err)
	}
	rec, err := Scan(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	got := rec.Last()
	if got.EventsOffset != 777 || got.SpansOffset != 888 {
		t.Fatalf("offsets (%d,%d), want (777,888)", got.EventsOffset, got.SpansOffset)
	}
}

type failWriter struct{ failAfter int }

func (w *failWriter) Write(p []byte) (int, error) {
	if w.failAfter <= 0 {
		return 0, errors.New("disk full")
	}
	w.failAfter--
	return len(p), nil
}

func TestJournalWriterStickyError(t *testing.T) {
	jw := NewWriter(&failWriter{failAfter: 1})
	if err := jw.WriteHeader(sampleHeader()); err != nil {
		t.Fatalf("first write: %v", err)
	}
	if _, err := jw.WriteCheckpoint(sampleCheckpoint(0)); err == nil {
		t.Fatal("write past failure succeeded")
	}
	if _, err := jw.WriteCheckpoint(sampleCheckpoint(1)); err == nil {
		t.Fatal("sticky error not reported")
	}
}

func TestJournalEmptyAndGarbage(t *testing.T) {
	rec, err := Scan(bytes.NewReader(nil))
	if err != nil {
		t.Fatalf("empty: %v", err)
	}
	if rec.Torn || rec.Good != 0 || len(rec.Checkpoints) != 0 {
		t.Fatalf("empty journal: %+v", rec)
	}

	// Pure garbage never parses as a record: torn from byte 0.
	rec, err = Scan(bytes.NewReader([]byte("this is not a journal at all")))
	if err != nil {
		t.Fatalf("garbage: %v", err)
	}
	if !rec.Torn || rec.Good != 0 {
		t.Fatalf("garbage journal: torn=%v good=%d", rec.Torn, rec.Good)
	}
}

// TestCheckpointTableCoversEveryField: every exported field of Checkpoint
// and of the step record it embeds is named by exactly one row of
// checkpointFields, under its own name. A field added to either struct
// without a row fails here instead of silently not being journaled.
func TestCheckpointTableCoversEveryField(t *testing.T) {
	var cp Checkpoint
	rows := map[uintptr][]string{} // field address -> rows pointing at it
	for _, f := range checkpointFields {
		addr := reflect.ValueOf(f.at(&cp)).Pointer()
		rows[addr] = append(rows[addr], f.name)
	}
	covered := 0
	var walk func(v reflect.Value, prefix string)
	walk = func(v reflect.Value, prefix string) {
		for i := 0; i < v.NumField(); i++ {
			name := prefix + v.Type().Field(i).Name
			if !v.Type().Field(i).IsExported() {
				t.Errorf("%s is unexported: the codec cannot carry it", name)
				continue
			}
			if v.Field(i).Kind() == reflect.Struct {
				walk(v.Field(i), name+".")
				continue
			}
			got := rows[v.Field(i).Addr().Pointer()]
			if len(got) != 1 || got[0] != name {
				t.Errorf("field %s has table rows %q, want exactly one named %q", name, got, name)
			}
			covered++
		}
	}
	walk(reflect.ValueOf(&cp).Elem(), "")
	if covered != len(checkpointFields) {
		t.Errorf("table has %d rows, the structs have %d fields", len(checkpointFields), covered)
	}
}
