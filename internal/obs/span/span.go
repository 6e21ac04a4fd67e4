// Package span is the causal-tracing layer of the observability subsystem:
// a tree of typed, timestamped spans — run → step → phase (solve / analyze /
// ship / drain-barrier) → policy decision → pool op → per-endpoint RPC —
// layered on the same determinism contract as the event stream (obs).
//
// Span and trace IDs are *derived*, not random: the trace ID is a hash of
// the run's configuration seed string, and every span ID is a hash of
// (trace, step, op-seq) where op-seq is the tracer's emission ordinal. Start
// and end stamps come from the workflow's virtual model clock. A seeded run
// therefore produces a byte-identical span log run after run (golden test,
// exactly like the event stream), and the chaos explorer can byte-compare
// span logs across replays.
//
// Wall-clock durations — the per-endpoint queue-wait vs execution split the
// critical-path analyzer's blame table uses — are opt-in (WithWallDurations)
// and excluded from the determinism contract, mirroring the event stream's
// WithWallClock.
//
// A nil *Tracer is the disabled state: every method no-ops without
// allocating, so instrumented hot paths pay nothing when tracing is off.
package span

import (
	"fmt"
	"io"
	"sync"
	"time"

	"crosslayer/internal/obs"
)

// Layer names for wall-time attribution. The critical-path analyzer blames
// each slice of a step's wall time on exactly one of these.
const (
	LayerRun          = "run"
	LayerStep         = "step"
	LayerSolver       = "solver"
	LayerAnalysis     = "analysis"
	LayerPolicy       = "policy"
	LayerStagingQueue = "staging-queue"
	LayerStagingExec  = "staging-exec"
	LayerNetworkFault = "network-fault"
	LayerBarrier      = "barrier"
)

// StepUnset marks a span outside any workflow step (the run span).
const StepUnset = -1

// Span is one completed node of the causal tree, written as one JSONL line.
// Start/End are virtual model time (seconds). QueueNs/ExecNs are wall-clock
// nanoseconds, present only when the tracer measures wall durations; they
// are outside the byte-identical determinism contract.
type Span struct {
	Trace  string `json:"trace"`
	ID     string `json:"id"`
	Parent string `json:"parent,omitempty"`
	Name   string `json:"name"`
	Layer  string `json:"layer"`
	// Step is the workflow step the span belongs to (-1 = outside a step).
	Step  int     `json:"step"`
	Start float64 `json:"start"`
	End   float64 `json:"end"`
	// Endpoint is the staging-pool endpoint index for RPC spans. Index 0
	// renders only in Detail, the price of omitempty (as with events).
	Endpoint int    `json:"endpoint,omitempty"`
	QueueNs  int64  `json:"queue_ns,omitempty"`
	ExecNs   int64  `json:"exec_ns,omitempty"`
	Err      string `json:"err,omitempty"`
	Detail   string `json:"detail,omitempty"`
}

// Duration is the span's virtual width in seconds.
func (s *Span) Duration() float64 { return s.End - s.Start }

// Sink receives completed spans. Implementations must be safe for
// concurrent use.
type Sink interface {
	Emit(s Span)
	Close() error
}

// NewJSONLSink is the span log's JSONL sink: the same buffered sticky-error
// line sink the event stream writes through.
func NewJSONLSink(w io.Writer) *obs.JSONLSink[Span] { return obs.NewJSONLSinkOf[Span](w) }

// MemSink retains every span in memory: the sink the span tests read back.
type MemSink struct {
	mu    sync.Mutex
	spans []Span
}

// Emit appends s.
func (m *MemSink) Emit(s Span) {
	m.mu.Lock()
	m.spans = append(m.spans, s)
	m.mu.Unlock()
}

// Spans returns the retained spans in emission order.
func (m *MemSink) Spans() []Span {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]Span, len(m.spans))
	copy(out, m.spans)
	return out
}

// Close is a no-op.
func (m *MemSink) Close() error { return nil }

// FNV-1a 64, inlined so ID derivation never allocates on the hot path.
const (
	fnvOffset64 = 0xcbf29ce484222325
	fnvPrime64  = 0x100000001b3
)

func fnvByte(h uint64, b byte) uint64 { return (h ^ uint64(b)) * fnvPrime64 }

func fnvUint64(h, v uint64) uint64 {
	for i := 0; i < 8; i++ {
		h = fnvByte(h, byte(v>>(8*i)))
	}
	return h
}

// TraceID derives the deterministic trace ID from a run's configuration
// seed string — the same seed yields the same trace, so two invocations of
// one seeded run share a trace identity.
func TraceID(seed string) uint64 {
	h := uint64(fnvOffset64)
	for i := 0; i < len(seed); i++ {
		h = fnvByte(h, seed[i])
	}
	if h == 0 {
		h = 1
	}
	return h
}

// deriveID hashes (trace, step, op-seq) into a span ID — the determinism
// contract: IDs depend only on the run's seed and the deterministic order of
// span emission, never on goroutine timing or randomness.
func deriveID(trace uint64, step int, seq uint64) uint64 {
	h := fnvUint64(fnvOffset64, trace)
	h = fnvUint64(h, uint64(int64(step)))
	h = fnvUint64(h, seq)
	if h == 0 {
		h = seq | 1
	}
	return h
}

// FormatID renders a span or trace ID as the fixed-width hex string used in
// span logs and the wire extension.
func FormatID(id uint64) string { return fmt.Sprintf("%016x", id) }

// Tracer stamps and sinks spans. A nil *Tracer is the disabled state: every
// method no-ops without allocating. The tracer serializes ID assignment
// internally; on the workflow's deterministic paths all spans begin and end
// on one goroutine, so emission order — and with it every derived ID — is
// reproducible.
type Tracer struct {
	mu    sync.Mutex
	sink  Sink
	clock func() float64 // virtual model time; nil = 0
	wall  bool           // measure wall-clock queue/exec durations
	seq   uint64         // op-seq: emission ordinal feeding ID derivation
	trace uint64
	hex   string
}

// NewTracer builds a tracer over sink with the trace ID derived from seed
// (nil sink yields a nil tracer, so the result can be used unconditionally).
func NewTracer(sink Sink, seed string) *Tracer {
	if sink == nil {
		return nil
	}
	tr := TraceID(seed)
	return &Tracer{sink: sink, trace: tr, hex: FormatID(tr)}
}

// WithWallDurations enables wall-clock measurement of queue-wait and
// execution durations on instrumented pools. Wall durations make the span
// log non-reproducible across runs; leave them off when byte-identical logs
// matter (they are what the bench blame table runs with).
func (t *Tracer) WithWallDurations() *Tracer {
	if t == nil {
		return nil
	}
	t.wall = true
	return t
}

// WallEnabled reports whether wall durations are being measured.
func (t *Tracer) WallEnabled() bool { return t != nil && t.wall }

// NowNs returns wall-clock nanoseconds when wall durations are enabled, 0
// otherwise — instrumented code subtracts two stamps without branching.
func (t *Tracer) NowNs() int64 {
	if t == nil || !t.wall {
		return 0
	}
	return time.Now().UnixNano()
}

// SetVirtualClock installs the model-time source for span stamps — the
// workflow points this at its virtual timelines. Must be set before spans
// begin.
func (t *Tracer) SetVirtualClock(clock func() float64) {
	if t == nil {
		return
	}
	t.clock = clock
}

// Close closes the sink.
func (t *Tracer) Close() error {
	if t == nil {
		return nil
	}
	return t.sink.Close()
}

// Seq returns the op-seq of the most recently allocated span ID — the
// cursor a journal checkpoint captures so a resumed tracer derives the
// same IDs an uninterrupted run would have.
func (t *Tracer) Seq() uint64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.seq
}

// ResumeSeq fast-forwards the op-seq to a journaled cursor. Must be
// called before the resumed run begins any span.
func (t *Tracer) ResumeSeq(seq uint64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.seq = seq
}

// Flush pushes buffered spans down to the sink's backing writer when the
// sink supports it (JSONLSink does) — the step-barrier flush of journaled
// runs.
func (t *Tracer) Flush() error {
	if t == nil {
		return nil
	}
	if f, ok := t.sink.(interface{ Flush() error }); ok {
		return f.Flush()
	}
	return nil
}

// Adopt rebuilds the context of a span that was begun by a previous
// incarnation of this run and is still open — the run root span across a
// checkpoint/restart. The ID is re-derived from (trace, step, seq)
// exactly as Begin derived it; nothing is emitted and the op-seq does not
// advance, so the span ends once, from the resumed process, with the
// original identity. The parent is the zero (root) context.
func (t *Tracer) Adopt(name, layer string, step int, seq uint64, start float64) Ctx {
	if t == nil {
		return Ctx{}
	}
	return Ctx{t: t, id: deriveID(t.trace, step, seq), step: step, name: name, layer: layer, start: start}
}

func (t *Tracer) now() float64 {
	if t.clock == nil {
		return 0
	}
	return t.clock()
}

// Ctx is a begun span: a value handle (no allocation) whose methods are
// nil-safe, so callers hold and use it unconditionally. The zero Ctx is the
// disabled state and a valid root parent.
type Ctx struct {
	t      *Tracer
	id     uint64
	parent uint64
	step   int
	name   string
	layer  string
	detail string
	start  float64
}

// Enabled reports whether spans emitted through this context go anywhere.
func (c Ctx) Enabled() bool { return c.t != nil }

// Tracer returns the owning tracer (nil for the zero Ctx).
func (c Ctx) Tracer() *Tracer { return c.t }

// WireIDs returns the (trace, span) pair a staging client stamps into the
// request-header extension; both zero when disabled.
func (c Ctx) WireIDs() (trace, parent uint64) {
	if c.t == nil {
		return 0, 0
	}
	return c.t.trace, c.id
}

// Begin opens a span under parent. A zero parent makes a root span (the run
// span). The span's ID is derived from (trace, step, op-seq) at Begin, so
// children created before it ends can reference it.
func (t *Tracer) Begin(parent Ctx, name, layer string, step int) Ctx {
	if t == nil {
		return Ctx{}
	}
	t.mu.Lock()
	t.seq++
	id := deriveID(t.trace, step, t.seq)
	start := t.now()
	t.mu.Unlock()
	return Ctx{t: t, id: id, parent: parent.id, step: step, name: name, layer: layer, start: start}
}

// AddDetail attaches free-form context emitted with the span at End.
func (c *Ctx) AddDetail(detail string) {
	if c.t == nil {
		return
	}
	c.detail = detail
}

// End stamps the span's end at the current virtual time and emits it.
func (c Ctx) End() {
	if c.t == nil {
		return
	}
	c.endAs("", "")
}

// EndErr ends the span carrying a stable error label (use the transport
// layer's address-free detail, never a raw error string, to keep seeded
// logs byte-identical).
func (c Ctx) EndErr(errLabel string) {
	if c.t == nil {
		return
	}
	c.endAs(errLabel, "")
}

func (c Ctx) endAs(errLabel, detail string) {
	t := c.t
	t.mu.Lock()
	end := t.now()
	sink := t.sink
	t.mu.Unlock()
	if detail == "" {
		detail = c.detail
	}
	sink.Emit(Span{
		Trace:  t.hex,
		ID:     FormatID(c.id),
		Parent: c.parentHexOf(),
		Name:   c.name,
		Layer:  c.layer,
		Step:   c.step,
		Start:  c.start,
		End:    end,
		Err:    errLabel,
		Detail: detail,
	})
}

// parentHexOf renders the parent reference carried by spans begun through
// Begin: the parent ID was captured into the context's emit path below.
func (c Ctx) parentHexOf() string {
	if c.parent == 0 {
		return ""
	}
	return FormatID(c.parent)
}

// Op describes one instantaneous span — a policy decision, a pool op, a
// per-endpoint RPC — recorded after the fact: its virtual start and end are
// both "now", with optional wall-clock queue/exec durations carrying the
// real split.
type Op struct {
	Name     string
	Layer    string
	Endpoint int
	QueueNs  int64
	ExecNs   int64
	Err      string
	Detail   string
}

// Record emits op as a zero-width child of c and returns its context so
// finer-grained children (an op's per-endpoint RPCs) can parent to it.
func (c Ctx) Record(op Op) Ctx {
	if c.t == nil {
		return Ctx{}
	}
	t := c.t
	t.mu.Lock()
	t.seq++
	id := deriveID(t.trace, c.step, t.seq)
	now := t.now()
	sink := t.sink
	t.mu.Unlock()
	sink.Emit(Span{
		Trace:    t.hex,
		ID:       FormatID(id),
		Parent:   FormatID(c.id),
		Name:     op.Name,
		Layer:    op.Layer,
		Step:     c.step,
		Start:    now,
		End:      now,
		Endpoint: op.Endpoint,
		QueueNs:  op.QueueNs,
		ExecNs:   op.ExecNs,
		Err:      op.Err,
		Detail:   op.Detail,
	})
	return Ctx{t: t, id: id, step: c.step, name: op.Name, layer: op.Layer, start: now, parent: c.id}
}

// RecordRemote emits a zero-width span into a *foreign* trace — the server
// half of the wire-propagated context: the client's trace and parent-span
// IDs arrive in the request-header extension, and the server's per-request
// work becomes a child span in the client's tree. The span's ID is derived
// from the foreign trace and this tracer's op-seq; its step is unknown on
// the server side (StepUnset).
func (t *Tracer) RecordRemote(trace, parent uint64, op Op) {
	if t == nil || trace == 0 {
		return
	}
	t.mu.Lock()
	t.seq++
	id := deriveID(trace, StepUnset, t.seq)
	now := t.now()
	sink := t.sink
	t.mu.Unlock()
	sink.Emit(Span{
		Trace:    FormatID(trace),
		ID:       FormatID(id),
		Parent:   FormatID(parent),
		Name:     op.Name,
		Layer:    op.Layer,
		Step:     StepUnset,
		Start:    now,
		End:      now,
		Endpoint: op.Endpoint,
		QueueNs:  op.QueueNs,
		ExecNs:   op.ExecNs,
		Err:      op.Err,
		Detail:   op.Detail,
	})
}

// ReadSpans parses a JSONL span log written by NewJSONLSink; a torn final
// line is dropped, a malformed terminated line fails the read.
func ReadSpans(r io.Reader) ([]Span, error) { return obs.ReadJSONL[Span](r, "span: span") }
