package journal

import (
	"bytes"
	"encoding/hex"
	"os"
	"reflect"
	"strings"
	"testing"
)

// pinnedHeader and pinnedCheckpoint are the fixed journal the byte pin is
// taken over: every field of the checkpoint and of its step record is
// non-zero (TestCheckpointBytesPinned checks that by reflection, so a new
// field cannot slip past the pin as a run of zero bytes).
func pinnedHeader() Header {
	return Header{Fingerprint: `{"app":"polytropic-gas","steps":8}`, TraceSeed: "run/pinned"}
}

func pinnedCheckpoint() Checkpoint {
	cp := Checkpoint{
		Step:                 6,
		EventSeq:             97,
		SpanSeq:              41,
		RunSpanSeq:           1,
		SimBusyUntil:         10.5,
		SimBusyTotal:         9.25,
		PoolBusyUntil:        8.75,
		PoolBusyTotal:        3.5,
		PoolCores:            48,
		PoolCoreSecondsBusy:  168,
		PoolCoreSecondsTotal: 420.5,
		StagingMemUsed:       3 << 20,
		StagingDownUntil:     9,
		LastPlacement:        2,
		MonitorHaveEWMA:      true,
		MonitorSimEWMA:       1.375,
		MonitorDataEWMA:      6.5e6,
		SimSecondsTotal:      9.125,
		BytesMovedTotal:      21 << 20,
		InSituSteps:          2,
		InTransitSteps:       5,
		RNGCursor:            0x0102030405060708,
		EventsOffset:         7168,
		SpansOffset:          3584,
		Manifest:             []byte{0x58, 0x4c, 0x4d, 0x31, 0, 0, 0, 1, 0, 3, 'r', 'h', 'o', 0, 0, 0, 6, 0, 0, 0, 4},
	}
	cp.Record.Step = 6
	cp.Record.Factor = 4
	cp.Record.ReduceSeconds = 0.015625
	cp.Record.Entropy = 0.625
	cp.Record.BytesProduced = 16 << 20
	cp.Record.BytesAnalyzed = 4 << 20
	cp.Record.BytesMoved = 3 << 20
	cp.Record.Placement = 1
	cp.Record.PlacementReason = "staging_idle"
	cp.Record.HybridFrac = 0.25
	cp.Record.SimSeconds = 1.5
	cp.Record.AnalysisSeconds = 0.375
	cp.Record.TransferSeconds = 0.125
	cp.Record.StagingCores = 48
	cp.Record.StagingRetries = 3
	cp.Record.StagingReconnects = 1
	cp.Record.PeakMemBytes = 1 << 26
	cp.Record.MinMemAvail = 1 << 25
	cp.Record.MaxRankDataBytes = 1 << 21
	cp.Record.StagingMemUsed = 3 << 20
	cp.Record.Triangles = 4321
	cp.Record.SimClock = 10.5
	cp.Record.StagingClock = 8.75
	cp.Record.FinestLevel = 2
	return cp
}

func assertNoZeroField(t *testing.T, v reflect.Value) {
	t.Helper()
	for i := 0; i < v.NumField(); i++ {
		f := v.Field(i)
		if f.Kind() == reflect.Struct {
			assertNoZeroField(t, f)
			continue
		}
		if f.IsZero() {
			t.Errorf("pinned %s.%s is zero: the pin would not notice its encoding", v.Type().Name(), v.Type().Field(i).Name)
		}
	}
}

// TestCheckpointBytesPinned pins the journal's on-disk bytes: a header plus
// a checkpoint with every field set, written through journal.Writer, must
// equal the committed image byte for byte, and the committed image must
// scan back to the same values. The image was generated before the codec
// became table-driven, so it is also the cross-version read check.
func TestCheckpointBytesPinned(t *testing.T) {
	h, cp := pinnedHeader(), pinnedCheckpoint()
	assertNoZeroField(t, reflect.ValueOf(cp))

	var buf bytes.Buffer
	jw := NewWriter(&buf)
	if err := jw.WriteHeader(h); err != nil {
		t.Fatal(err)
	}
	if _, err := jw.WriteCheckpoint(cp); err != nil {
		t.Fatal(err)
	}
	got := hex.EncodeToString(buf.Bytes())

	const golden = "testdata/checkpoint_pinned.hex"
	raw, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (image would be %s)", err, got)
	}
	want := strings.TrimSpace(string(raw))
	if got != want {
		t.Fatalf("journal bytes moved:\n got %s\nwant %s", got, want)
	}

	image, err := hex.DecodeString(want)
	if err != nil {
		t.Fatal(err)
	}
	rec, err := Scan(bytes.NewReader(image))
	if err != nil {
		t.Fatalf("Scan(pinned image): %v", err)
	}
	if rec.Torn || rec.Good != int64(len(image)) || rec.Header != h {
		t.Fatalf("pinned image scanned to header %+v, good %d of %d, torn %v", rec.Header, rec.Good, len(image), rec.Torn)
	}
	if len(rec.Checkpoints) != 1 || !reflect.DeepEqual(rec.Checkpoints[0], cp) {
		t.Fatalf("pinned image scanned to\n %+v\nwant\n %+v", rec.Checkpoints, cp)
	}
}
