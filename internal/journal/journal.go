// Package journal implements the workflow's crash-consistency layer: a
// write-ahead run journal the engine appends one checkpoint record to at
// every step barrier — the same quiescent point where buffered events and
// spans drain — so a killed driver can resume from step k+1 instead of
// restarting the campaign from step 0.
//
// The journal is the paper's cross-layer state externalized: the
// application layer's reduction factor, the middleware layer's placement
// and failure cooldown, the resource layer's pool allocation, the virtual
// model clocks, the monitor's EWMA state, the observability sequence
// cursors, and a snapshot of the staging pool's content manifest. What is
// NOT journaled is recomputed on resume: the simulation state itself is a
// pure function of the step count, so resume silently re-runs the solver
// to the checkpointed step (see DESIGN.md §13 for the full contract).
//
// Wire format (all integers big-endian, like the pool manifest codec):
//
//	file    := header record, checkpoint record*
//	record  := recLen uint32 | body | crc uint32
//	body    := recType uint8 | payload
//
// recLen counts the body bytes; crc is CRC-32C (Castagnoli) over the body.
// Fields inside each payload are strictly ordered, lengths are bounded
// before any allocation, and every valid value has exactly one encoding —
// Encode∘Decode and Decode∘Encode are both identities, which is what
// FuzzJournal checks.
//
// Recovery is torn-tail tolerant: a crash can leave a partial record at
// the end of the file, so Scan stops at the first short or checksum-bad
// record and reports the valid prefix length (Recovered.Good). Everything
// before that point is trusted; everything after it is discarded by
// truncating to Good before the resumed run appends.
package journal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"os"

	"crosslayer/internal/policy"
)

// Typed failures for the resume preconditions. Callers match with
// errors.Is; the spec layer re-exports them for its validation tables.
var (
	// ErrBadJournal tags every structural decode failure: a record that is
	// complete (its checksum verifies) but whose payload is not a valid
	// journal record. Unlike a torn tail, this is not survivable — the file
	// was written by something else or by an incompatible version.
	ErrBadJournal = errors.New("journal: bad journal")

	// ErrJournalSpecMismatch: the journal was written under a different
	// run specification (seed, workload shape, topology). Resuming it
	// would splice two different runs together, so it fails closed.
	ErrJournalSpecMismatch = errors.New("journal: spec fingerprint mismatch")

	// ErrJournalTornBeyondBarrier: the journal holds no complete
	// checkpoint — the driver died before the first step barrier, or the
	// torn tail swallowed the only record. There is nothing to resume
	// from; the run must restart from step 0.
	ErrJournalTornBeyondBarrier = errors.New("journal: no complete checkpoint before torn tail")

	// ErrResumeRequiresJournal: a resume was requested without naming the
	// journal file to resume from.
	ErrResumeRequiresJournal = errors.New("journal: resume requires a journal file")
)

const (
	headerMagic   = 0x584c4a31 // "XLJ1"
	codecVersion  = 1
	recHeader     = 1
	recCheckpoint = 2

	maxString   = 4096     // header fingerprint / trace seed
	maxReason   = 256      // placement reason in a step record
	maxManifest = 16 << 20 // embedded pool manifest snapshot
)

// Header identifies the run a journal belongs to. Fingerprint is the
// canonical encoding of every run-shaping parameter (resuming under a
// different fingerprint fails closed with ErrJournalSpecMismatch);
// TraceSeed is the deterministic trace identity the run's tracer was
// seeded with, kept so a resumed run rejoins the same causal trace.
type Header struct {
	Fingerprint string
	TraceSeed   string
}

// StepRecord captures everything one workflow step did — the raw material
// for every figure and table of the paper's evaluation, and the per-step
// payload of every checkpoint. It is declared here, below internal/core
// (which imports this package and re-exports it as core.StepRecord), so the
// engine, the trace writers and the checkpoint codec share one struct.
type StepRecord struct {
	Step int

	// Application layer.
	Factor        int     // down-sampling factor applied (1 = full resolution)
	ReduceSeconds float64 // modeled reduction cost (charged in-situ)
	Entropy       float64 // mean block entropy (entropy mode only)

	// Data volumes at model scale.
	BytesProduced int64 // S_data before reduction
	BytesAnalyzed int64 // after reduction
	BytesMoved    int64 // shipped to staging (0 when in-situ)

	// Middleware layer.
	Placement       policy.Placement
	PlacementReason string
	// HybridFrac is the in-situ share of this step's analysis: 1 for pure
	// in-situ, 0 for pure in-transit, in between for hybrid placement.
	HybridFrac float64

	// Timing (modeled, seconds).
	SimSeconds      float64 // this step's simulation time
	AnalysisSeconds float64 // analysis wallclock wherever it ran
	TransferSeconds float64 // send+receive cost (in-transit only)

	// Resource layer.
	StagingCores int // pool size in effect this step

	// Staging transport health (nonzero only with a remote Config.Staging
	// transport). Retries/reconnects the transport performed during this
	// step's in-transit attempt; when the budget ran out the step shows
	// PlacementReason == policy.ReasonStagingFailure and Placement in-situ.
	StagingRetries    int
	StagingReconnects int

	// Memory (model scale).
	PeakMemBytes     int64 // max per-rank simulation memory in use
	MinMemAvail      int64 // tightest per-rank availability
	MaxRankDataBytes int64 // peak core's analysis-data share (Eq. 2's S_data)
	StagingMemUsed   int64

	// Analysis output.
	Triangles int

	// Virtual clocks after this step.
	SimClock     float64
	StagingClock float64

	FinestLevel int
}

// StepSnapshot is the record under the name benchmarks/xbench spells it by.
type StepSnapshot = StepRecord

// Checkpoint is one step barrier's worth of resumable state: everything
// the engine cannot recompute by replaying the pure simulation. A resumed
// run restores these fields verbatim and continues from Step+1.
type Checkpoint struct {
	Step int

	// Observability sequence cursors, captured after the barrier's own
	// checkpoint_write event: the resumed emitter and tracer continue the
	// numbering so the combined log is indistinguishable from an
	// uninterrupted run. RunSpanSeq is the allocation cursor of the
	// still-open run root span, which the resumed tracer re-adopts.
	EventSeq   uint64
	SpanSeq    uint64
	RunSpanSeq uint64

	// Virtual model clocks (Eqs. 4-6): the simulation and staging
	// timelines' busy horizons and accumulated busy time.
	SimBusyUntil  float64
	SimBusyTotal  float64
	PoolBusyUntil float64
	PoolBusyTotal float64

	// Resource layer: the staging pool model's allocation and its
	// core-seconds accounting (utilization denominator).
	PoolCores            int
	PoolCoreSecondsBusy  float64
	PoolCoreSecondsTotal float64

	// Middleware layer: staging occupancy, the failure cooldown horizon
	// (first step allowed to retry staging), and the last placement
	// executed (0 unknown, 1 in-situ, 2 in-transit) for the
	// placement_change edge detector.
	StagingMemUsed   int64
	StagingDownUntil int
	LastPlacement    uint8

	// Monitor EWMA state: the next step records a fresh sample, but the
	// smoothed estimates carry history and are restored.
	MonitorHaveEWMA bool
	MonitorSimEWMA  float64
	MonitorDataEWMA float64

	// Run accumulators.
	SimSecondsTotal float64
	BytesMovedTotal int64
	InSituSteps     int
	InTransitSteps  int

	// RNGCursor is reserved (always 0 today): no engine-side RNG exists —
	// the solver, monitor, and policies are pure, and the only seeded
	// randomness lives in the fault-injection layers outside the engine.
	// The field keeps the codec stable if one is ever introduced.
	RNGCursor uint64

	// Byte offsets of the event and span JSONL logs at this barrier,
	// after their sinks flushed (-1 when untracked). Resume truncates the
	// logs here, amputating anything a dying driver half-wrote.
	EventsOffset int64
	SpansOffset  int64

	// Record is the step's own trace record: checkpoints carry the full
	// per-step record so a resumed run rebuilds the complete trace
	// (Result.Steps) from the journal alone.
	Record StepRecord

	// Manifest is the staging pool's content manifest at the barrier
	// (staging.EncodeManifest bytes, opaque to this package; empty when
	// the store has no manifest). Resume re-arms the pool's live map from
	// it and audits the survivors against it.
	Manifest []byte
}

// field is one row of the checkpoint codec table: a location in a
// Checkpoint, its name for error text, and the bound the format puts on it.
// The Go type the accessor points at selects the wire form:
//
//	*int               uint32, 0..MaxSmallInt
//	*uint64            uint64
//	*int64             two's-complement int64
//	*float64           IEEE-754 bits, finite
//	*bool              one byte, 0 or 1
//	*uint8, *Placement one byte, 0..max
//	*string            uint16 length ≤ max | bytes
//	*[]byte            uint32 length ≤ max | bytes
type field struct {
	name string
	max  int
	at   func(*Checkpoint) any
}

// checkpointFields is the checkpoint record, in wire order: the one place
// the format lists its fields. appendCheckpoint, decodeCheckpoint and
// validate all walk it, and TestCheckpointTableCoversEveryField fails when a
// struct field has no row — a new field is one struct field plus one row
// appended here (old journals then need a codec version to stay readable).
var checkpointFields = []field{
	{"Step", 0, func(c *Checkpoint) any { return &c.Step }},
	{"EventSeq", 0, func(c *Checkpoint) any { return &c.EventSeq }},
	{"SpanSeq", 0, func(c *Checkpoint) any { return &c.SpanSeq }},
	{"RunSpanSeq", 0, func(c *Checkpoint) any { return &c.RunSpanSeq }},
	{"SimBusyUntil", 0, func(c *Checkpoint) any { return &c.SimBusyUntil }},
	{"SimBusyTotal", 0, func(c *Checkpoint) any { return &c.SimBusyTotal }},
	{"PoolBusyUntil", 0, func(c *Checkpoint) any { return &c.PoolBusyUntil }},
	{"PoolBusyTotal", 0, func(c *Checkpoint) any { return &c.PoolBusyTotal }},
	{"PoolCores", 0, func(c *Checkpoint) any { return &c.PoolCores }},
	{"PoolCoreSecondsBusy", 0, func(c *Checkpoint) any { return &c.PoolCoreSecondsBusy }},
	{"PoolCoreSecondsTotal", 0, func(c *Checkpoint) any { return &c.PoolCoreSecondsTotal }},
	{"StagingMemUsed", 0, func(c *Checkpoint) any { return &c.StagingMemUsed }},
	{"StagingDownUntil", 0, func(c *Checkpoint) any { return &c.StagingDownUntil }},
	{"LastPlacement", 2, func(c *Checkpoint) any { return &c.LastPlacement }},
	{"MonitorHaveEWMA", 0, func(c *Checkpoint) any { return &c.MonitorHaveEWMA }},
	{"MonitorSimEWMA", 0, func(c *Checkpoint) any { return &c.MonitorSimEWMA }},
	{"MonitorDataEWMA", 0, func(c *Checkpoint) any { return &c.MonitorDataEWMA }},
	{"SimSecondsTotal", 0, func(c *Checkpoint) any { return &c.SimSecondsTotal }},
	{"BytesMovedTotal", 0, func(c *Checkpoint) any { return &c.BytesMovedTotal }},
	{"InSituSteps", 0, func(c *Checkpoint) any { return &c.InSituSteps }},
	{"InTransitSteps", 0, func(c *Checkpoint) any { return &c.InTransitSteps }},
	{"RNGCursor", 0, func(c *Checkpoint) any { return &c.RNGCursor }},
	{"EventsOffset", 0, func(c *Checkpoint) any { return &c.EventsOffset }},
	{"SpansOffset", 0, func(c *Checkpoint) any { return &c.SpansOffset }},

	{"Record.Step", 0, func(c *Checkpoint) any { return &c.Record.Step }},
	{"Record.Factor", 0, func(c *Checkpoint) any { return &c.Record.Factor }},
	{"Record.ReduceSeconds", 0, func(c *Checkpoint) any { return &c.Record.ReduceSeconds }},
	{"Record.Entropy", 0, func(c *Checkpoint) any { return &c.Record.Entropy }},
	{"Record.BytesProduced", 0, func(c *Checkpoint) any { return &c.Record.BytesProduced }},
	{"Record.BytesAnalyzed", 0, func(c *Checkpoint) any { return &c.Record.BytesAnalyzed }},
	{"Record.BytesMoved", 0, func(c *Checkpoint) any { return &c.Record.BytesMoved }},
	{"Record.Placement", int(policy.PlaceInTransit), func(c *Checkpoint) any { return &c.Record.Placement }},
	{"Record.PlacementReason", maxReason, func(c *Checkpoint) any { return &c.Record.PlacementReason }},
	{"Record.HybridFrac", 0, func(c *Checkpoint) any { return &c.Record.HybridFrac }},
	{"Record.SimSeconds", 0, func(c *Checkpoint) any { return &c.Record.SimSeconds }},
	{"Record.AnalysisSeconds", 0, func(c *Checkpoint) any { return &c.Record.AnalysisSeconds }},
	{"Record.TransferSeconds", 0, func(c *Checkpoint) any { return &c.Record.TransferSeconds }},
	{"Record.StagingCores", 0, func(c *Checkpoint) any { return &c.Record.StagingCores }},
	{"Record.StagingRetries", 0, func(c *Checkpoint) any { return &c.Record.StagingRetries }},
	{"Record.StagingReconnects", 0, func(c *Checkpoint) any { return &c.Record.StagingReconnects }},
	{"Record.PeakMemBytes", 0, func(c *Checkpoint) any { return &c.Record.PeakMemBytes }},
	{"Record.MinMemAvail", 0, func(c *Checkpoint) any { return &c.Record.MinMemAvail }},
	{"Record.MaxRankDataBytes", 0, func(c *Checkpoint) any { return &c.Record.MaxRankDataBytes }},
	{"Record.StagingMemUsed", 0, func(c *Checkpoint) any { return &c.Record.StagingMemUsed }},
	{"Record.Triangles", 0, func(c *Checkpoint) any { return &c.Record.Triangles }},
	{"Record.SimClock", 0, func(c *Checkpoint) any { return &c.Record.SimClock }},
	{"Record.StagingClock", 0, func(c *Checkpoint) any { return &c.Record.StagingClock }},
	{"Record.FinestLevel", 0, func(c *Checkpoint) any { return &c.Record.FinestLevel }},

	{"Manifest", maxManifest, func(c *Checkpoint) any { return &c.Manifest }},
}

// validate bounds every field that the wire format narrows, so encoding
// and decoding agree on exactly the same value space.
func (cp *Checkpoint) validate() error {
	for _, f := range checkpointFields {
		ok := true
		switch p := f.at(cp).(type) {
		case *int:
			ok = *p >= 0 && *p <= MaxSmallInt
		case *float64:
			ok = !math.IsNaN(*p) && !math.IsInf(*p, 0)
		case *uint8:
			ok = int(*p) <= f.max
		case *policy.Placement:
			ok = *p >= 0 && int(*p) <= f.max
		case *string:
			ok = len(*p) <= f.max
		case *[]byte:
			ok = len(*p) <= f.max
		}
		if !ok {
			return fmt.Errorf("%w: %s out of range", ErrBadJournal, f.name)
		}
	}
	if cp.Record.Step != cp.Step {
		return fmt.Errorf("%w: checkpoint step %d carries record for step %d", ErrBadJournal, cp.Step, cp.Record.Step)
	}
	if cp.EventsOffset < -1 || cp.SpansOffset < -1 {
		return fmt.Errorf("%w: negative log offset", ErrBadJournal)
	}
	return nil
}

func appendHeader(b []byte, h Header) ([]byte, error) {
	if len(h.Fingerprint) > maxString || len(h.TraceSeed) > maxString {
		return nil, fmt.Errorf("%w: header string too long", ErrBadJournal)
	}
	b = binary.BigEndian.AppendUint32(b, headerMagic)
	b = binary.BigEndian.AppendUint16(b, codecVersion)
	b = AppendString(b, h.Fingerprint)
	b = AppendString(b, h.TraceSeed)
	return b, nil
}

func appendCheckpoint(b []byte, cp *Checkpoint) ([]byte, error) {
	if err := cp.validate(); err != nil {
		return nil, err
	}
	for _, f := range checkpointFields {
		switch p := f.at(cp).(type) {
		case *int:
			b = binary.BigEndian.AppendUint32(b, uint32(*p))
		case *uint64:
			b = binary.BigEndian.AppendUint64(b, *p)
		case *int64:
			b = binary.BigEndian.AppendUint64(b, uint64(*p))
		case *float64:
			b = AppendF64(b, *p)
		case *bool:
			b = AppendBool(b, *p)
		case *uint8:
			b = append(b, *p)
		case *policy.Placement:
			b = append(b, byte(*p))
		case *string:
			b = AppendString(b, *p)
		case *[]byte:
			b = binary.BigEndian.AppendUint32(b, uint32(len(*p)))
			b = append(b, *p...)
		}
	}
	return b, nil
}

func decodeHeader(payload []byte) (Header, error) {
	d := NewDec(payload, ErrBadJournal)
	if magic := d.Take(4); magic != nil && binary.BigEndian.Uint32(magic) != headerMagic {
		return Header{}, fmt.Errorf("%w: bad magic", ErrBadJournal)
	}
	if v := d.U16(); d.Err() == nil && v != codecVersion {
		return Header{}, fmt.Errorf("%w: codec version %d (have %d)", ErrBadJournal, v, codecVersion)
	}
	h := Header{
		Fingerprint: d.Str(maxString),
		TraceSeed:   d.Str(maxString),
	}
	if err := d.Done(); err != nil {
		return Header{}, err
	}
	return h, nil
}

func decodeCheckpoint(payload []byte) (Checkpoint, error) {
	d := NewDec(payload, ErrBadJournal)
	var cp Checkpoint
	for _, f := range checkpointFields {
		switch p := f.at(&cp).(type) {
		case *int:
			*p = d.SmallInt()
		case *uint64:
			*p = d.U64()
		case *int64:
			*p = d.I64()
		case *float64:
			*p = d.F64()
		case *bool:
			*p = d.Bool()
		case *uint8:
			*p = d.U8()
		case *policy.Placement:
			*p = policy.Placement(d.U8())
		case *string:
			*p = d.Str(f.max)
		case *[]byte:
			// A blob is copied out of the scan buffer; empty decodes as nil.
			if n := d.U32(); n > uint32(f.max) {
				d.Fail("%s %d bytes (max %d)", f.name, n, f.max)
			} else if n > 0 {
				*p = append([]byte(nil), d.Take(int(n))...)
			}
		}
	}
	if err := d.Done(); err != nil {
		return Checkpoint{}, err
	}
	if err := cp.validate(); err != nil {
		return Checkpoint{}, err
	}
	return cp, nil
}

// Writer appends journal records to an underlying writer. Errors are
// sticky: the first failed write poisons the Writer and every later call
// returns it, so a full disk mid-run surfaces once instead of silently
// dropping checkpoints.
type Writer struct {
	w     io.Writer
	flush func() (eventsOff, spansOff int64, err error)
	err   error
	buf   RecordBuf // the record being written, framed in place; reused
}

// NewWriter wraps w. When w also implements `Sync() error` (an *os.File),
// every record is synced after the write — the checkpoint must be durable
// before the step is considered complete.
func NewWriter(w io.Writer) *Writer { return &Writer{w: w} }

// SetBarrierFlush installs the pre-checkpoint hook: called before each
// checkpoint record is written, it must flush the run's event and span
// sinks and return their file byte offsets (-1 when untracked). The
// offsets land in the checkpoint, so a resume can truncate the logs to
// exactly what this barrier had flushed.
func (jw *Writer) SetBarrierFlush(fn func() (eventsOff, spansOff int64, err error)) {
	jw.flush = fn
}

// write frames one record of type typ, the rest of whose body appendBody
// appends in place, and writes and syncs it.
func (jw *Writer) write(typ byte, appendBody func(b []byte) ([]byte, error)) (int, error) {
	if jw.err != nil {
		return 0, jw.err
	}
	jw.buf = jw.buf[:0]
	at := jw.buf.Begin(typ)
	b, err := appendBody(jw.buf)
	if err != nil {
		jw.err = err
		return 0, err
	}
	jw.buf = b
	jw.buf.End(at)
	if _, err := jw.w.Write(jw.buf); err != nil {
		jw.err = fmt.Errorf("journal: write: %w", err)
		return 0, jw.err
	}
	if s, ok := jw.w.(interface{ Sync() error }); ok {
		if err := s.Sync(); err != nil {
			jw.err = fmt.Errorf("journal: sync: %w", err)
			return 0, jw.err
		}
	}
	return len(jw.buf), nil
}

// WriteHeader writes the journal's identity record. It must be the first
// record of a fresh journal; a resumed journal already has one and must
// not write another.
func (jw *Writer) WriteHeader(h Header) error {
	_, err := jw.write(recHeader, func(b []byte) ([]byte, error) { return appendHeader(b, h) })
	return err
}

// WriteCheckpoint appends one barrier checkpoint. When a barrier-flush
// hook is installed it runs first and its offsets overwrite
// cp.EventsOffset/cp.SpansOffset. Returns the framed record size.
func (jw *Writer) WriteCheckpoint(cp Checkpoint) (int, error) {
	if jw.err != nil {
		return 0, jw.err
	}
	if jw.flush != nil {
		ev, sp, err := jw.flush()
		if err != nil {
			jw.err = fmt.Errorf("journal: barrier flush: %w", err)
			return 0, jw.err
		}
		cp.EventsOffset, cp.SpansOffset = ev, sp
	}
	return jw.write(recCheckpoint, func(b []byte) ([]byte, error) { return appendCheckpoint(b, &cp) })
}

// Recovered is the outcome of a recovery scan: the journal's identity,
// every complete checkpoint in order, and where the valid prefix ends.
type Recovered struct {
	Header      Header
	Checkpoints []Checkpoint

	// Good is the byte length of the valid record prefix. A resume
	// truncates the journal file to Good before appending, discarding the
	// torn tail.
	Good int64

	// Torn reports that bytes beyond Good exist but do not form a
	// complete, checksum-valid record — the signature of a mid-write kill.
	Torn bool
}

// Last returns the most recent checkpoint, or nil when none survived.
func (r *Recovered) Last() *Checkpoint {
	if len(r.Checkpoints) == 0 {
		return nil
	}
	return &r.Checkpoints[len(r.Checkpoints)-1]
}

// Scan reads a journal stream, tolerating a torn tail: it stops at the
// first incomplete or checksum-bad record and reports everything before
// it. Structural defects inside checksum-valid records — wrong magic,
// unknown record type, out-of-range fields, non-monotonic steps — are not
// torn tails and fail with ErrBadJournal.
func Scan(r io.Reader) (*Recovered, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("journal: read: %w", err)
	}
	rec := &Recovered{}
	sawHeader := false
	rec.Good, rec.Torn, err = Records(data, func(body []byte) error {
		typ, payload := body[0], body[1:]
		switch {
		case !sawHeader:
			if typ != recHeader {
				return fmt.Errorf("%w: first record has type %d (want header)", ErrBadJournal, typ)
			}
			h, err := decodeHeader(payload)
			if err != nil {
				return err
			}
			rec.Header, sawHeader = h, true
		case typ == recHeader:
			return fmt.Errorf("%w: duplicate header record", ErrBadJournal)
		case typ == recCheckpoint:
			cp, err := decodeCheckpoint(payload)
			if err != nil {
				return err
			}
			if last := rec.Last(); last != nil && cp.Step <= last.Step {
				return fmt.Errorf("%w: checkpoint step %d after step %d", ErrBadJournal, cp.Step, last.Step)
			}
			rec.Checkpoints = append(rec.Checkpoints, cp)
		default:
			return fmt.Errorf("%w: unknown record type %d", ErrBadJournal, typ)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return rec, nil
}

// Recover scans the journal file at path.
func Recover(path string) (*Recovered, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("journal: %w", err)
	}
	defer f.Close()
	return Scan(f)
}
