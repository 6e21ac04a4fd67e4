// Package obs is the observability subsystem of the autonomic loop: a
// structured event stream, a lock-cheap metrics registry with Prometheus
// text exposition, and aggregation helpers for offline run reports.
//
// The runtime layers (core workflow, policy engine, staging transport,
// fault injection) emit typed, timestamped events through an Emitter into a
// pluggable Sink — a JSONL file for offline analysis, an in-memory ring for
// tests, or nothing at all. A nil *Emitter is the disabled state and every
// emission method is a nil-safe no-op, so the workflow's step hot path pays
// zero allocations when observability is off (benchmark-enforced).
//
// Event timestamps are deliberately *virtual*: the emitter carries a clock
// callback into the workflow's modeled timelines, so a seeded run emits a
// byte-identical event stream run after run — the determinism contract of
// the fault-injection harness extends to observability. Wall-clock stamps
// are opt-in (WithWallClock) and excluded from that contract.
package obs

import (
	"fmt"
	"sync"
	"time"
)

// Kind names one event type in the stream.
type Kind string

// Event kinds. The taxonomy follows the Monitor → Adaptation Engine →
// Policy loop: run/step lifecycle, per-layer policy decisions, the executed
// adaptations, and staging-transport health.
const (
	// KindRunStarted opens a run's event stream.
	KindRunStarted Kind = "run_started"
	// KindRunFinished closes a run's event stream.
	KindRunFinished Kind = "run_finished"
	// KindStepStarted marks the beginning of one workflow step.
	KindStepStarted Kind = "step_started"
	// KindStepFinished carries the step's outcome: placement, factor, and
	// the modeled seconds/bytes booked.
	KindStepFinished Kind = "step_finished"
	// KindPolicyDecision records one layer's policy evaluation — the inputs
	// it saw (Detail) and the output it chose (Placement/Factor/Cores).
	KindPolicyDecision Kind = "policy_decision"
	// KindPlacementChange marks an analysis-placement flip between steps,
	// with the deciding reason.
	KindPlacementChange Kind = "placement_change"
	// KindResourceResize marks a staging-pool resize by the resource layer.
	KindResourceResize Kind = "resource_resize"
	// KindStagingRetry is one retry attempt of a staging transport
	// operation.
	KindStagingRetry Kind = "staging_retry"
	// KindStagingReconnect is a successful re-dial after a transport
	// failure.
	KindStagingReconnect Kind = "staging_reconnect"
	// KindStagingDegrade marks a step that fell back to in-situ execution
	// after the transport exhausted its retry budget.
	KindStagingDegrade Kind = "staging_degrade"
	// KindEndpointDown marks a staging-pool endpoint whose circuit breaker
	// opened after consecutive transport failures.
	KindEndpointDown Kind = "endpoint_down"
	// KindEndpointUp marks a staging-pool endpoint rejoining after a
	// successful half-open probe and anti-entropy repair.
	KindEndpointUp Kind = "endpoint_up"
	// KindFailoverGet marks a shard read served by a replica because the
	// primary endpoint was down or failing.
	KindFailoverGet Kind = "failover_get"
	// KindRepair records one anti-entropy repair pass: the blocks
	// re-replicated onto a rejoining endpoint from surviving peers.
	KindRepair Kind = "repair"
	// KindRepairDelta accompanies a repair pass that diffed the rejoining
	// endpoint's advertised content manifest: Bytes is the wire bytes the
	// pool did NOT re-ship because the endpoint already held them.
	KindRepairDelta Kind = "repair_delta"
	// KindCheckpointWrite marks a write-ahead journal checkpoint taken at a
	// step barrier (journaled runs only).
	KindCheckpointWrite Kind = "checkpoint_write"
	// KindAdmissionShed marks a staging-server connection refused by
	// admission control: MaxConns reached and the accept backlog full.
	KindAdmissionShed Kind = "admission_shed"
	// KindQuotaRejected marks a staging put rejected server-side because it
	// would push a tenant past its byte or block quota.
	KindQuotaRejected Kind = "quota_rejected"
)

// StepUnset marks an event emitted outside any step span; the emitter
// substitutes the current span's step, if one is open.
const StepUnset = -1

// Event is one structured record in the stream. Kind determines which of
// the payload fields are meaningful; unused ones are omitted from JSON.
type Event struct {
	// Seq is the emission ordinal within the stream (starts at 1).
	Seq uint64 `json:"seq"`
	// T is the virtual model time (seconds) at emission.
	T float64 `json:"t"`
	// Wall is the wall-clock stamp, present only with WithWallClock.
	Wall string `json:"wall,omitempty"`

	Kind Kind `json:"kind"`
	// Step is the workflow step the event belongs to (-1 = outside a step).
	Step int `json:"step"`
	// Layer is the adaptation layer for policy events
	// (application/middleware/resource).
	Layer string `json:"layer,omitempty"`

	Placement string  `json:"placement,omitempty"`
	Reason    string  `json:"reason,omitempty"`
	Factor    int     `json:"factor,omitempty"`
	Cores     int     `json:"cores,omitempty"`
	PrevCores int     `json:"prev_cores,omitempty"`
	Bytes     int64   `json:"bytes,omitempty"`
	Seconds   float64 `json:"seconds,omitempty"`
	Attempt   int     `json:"attempt,omitempty"`
	// Endpoint is the staging-pool endpoint index for pool events
	// (endpoint_down/up, failover_get, repair). Index 0 renders in Detail
	// only, the price of omitempty.
	Endpoint int `json:"endpoint,omitempty"`
	// Detail carries free-form context: a policy's inputs, a fault's
	// description, a transport error.
	Detail string `json:"detail,omitempty"`
	// Tenant attributes the event to one staging tenant: stamped by a
	// per-tenant emitter (SetTenant) on every event it emits, or set
	// directly on shared-service events whose tenant is known per event
	// (quota_rejected).
	Tenant string `json:"tenant,omitempty"`
}

// Sink receives emitted events. Implementations must be safe for
// concurrent use.
type Sink interface {
	Emit(ev Event)
	Close() error
}

// RingSink retains the last N events in memory — the test and debugging
// sink.
type RingSink struct {
	mu    sync.Mutex
	buf   []Event
	next  int
	total int
}

// NewRingSink retains the most recent cap events (cap <= 0 panics).
func NewRingSink(cap int) *RingSink {
	if cap <= 0 {
		panic("obs: ring capacity must be positive")
	}
	return &RingSink{buf: make([]Event, 0, cap)}
}

// Emit appends ev, evicting the oldest event when full.
func (s *RingSink) Emit(ev Event) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.total++
	if len(s.buf) < cap(s.buf) {
		s.buf = append(s.buf, ev)
		return
	}
	s.buf[s.next] = ev
	s.next = (s.next + 1) % cap(s.buf)
}

// Events returns the retained events, oldest first.
func (s *RingSink) Events() []Event {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]Event, 0, len(s.buf))
	out = append(out, s.buf[s.next:]...)
	out = append(out, s.buf[:s.next]...)
	return out
}

// Total reports how many events were ever emitted (evicted ones included).
func (s *RingSink) Total() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.total
}

// Close is a no-op.
func (s *RingSink) Close() error { return nil }

// Emitter stamps and forwards events to its sink. A nil *Emitter is the
// disabled state: every method no-ops without allocating, which keeps the
// workflow's hot loop unaffected when observability is off.
//
// The emitter serializes emission internally; the step span (BeginStep) is
// single-writer state owned by the workflow goroutine.
type Emitter struct {
	mu    sync.Mutex
	sink  Sink
	seq   uint64
	clock func() float64 // virtual model time; nil = 0
	wall  func() time.Time
	step  int    // current step span (StepUnset outside one)
	ten   string // tenant stamp (SetTenant); "" = untenanted
}

// NewEmitter builds an emitter over sink (nil sink yields a nil emitter, so
// the result can be used unconditionally).
func NewEmitter(sink Sink) *Emitter {
	if sink == nil {
		return nil
	}
	return &Emitter{sink: sink, step: StepUnset}
}

// WithWallClock stamps every event with now()'s RFC3339Nano rendering.
// Wall stamps make the stream non-reproducible across runs; leave them off
// when byte-identical event logs matter.
func (e *Emitter) WithWallClock(now func() time.Time) *Emitter {
	if e == nil {
		return nil
	}
	if now == nil {
		now = time.Now
	}
	e.wall = now
	return e
}

// SetVirtualClock installs the model-time source for event stamps — the
// workflow points this at its virtual timelines. Must be set before
// emission starts.
func (e *Emitter) SetVirtualClock(clock func() float64) {
	if e == nil {
		return
	}
	e.clock = clock
}

// SetTenant stamps every subsequently emitted event with the tenant id —
// the attribution handle of a per-tenant emitter over a shared staging
// service. Events that already carry a tenant keep their own.
func (e *Emitter) SetTenant(tenant string) {
	if e == nil {
		return
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	e.ten = tenant
}

// Close closes the sink.
func (e *Emitter) Close() error {
	if e == nil {
		return nil
	}
	return e.sink.Close()
}

// Seq returns the emission ordinal of the most recent event — the cursor
// a journal checkpoint captures so a resumed emitter continues the
// numbering seamlessly.
func (e *Emitter) Seq() uint64 {
	if e == nil {
		return 0
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.seq
}

// ResumeSeq fast-forwards the emission ordinal to a journaled cursor.
// Must be called before the resumed run emits anything.
func (e *Emitter) ResumeSeq(seq uint64) {
	if e == nil {
		return
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	e.seq = seq
}

// ResumeStep fast-forwards the current-step cursor to the checkpointed
// step, matching the uninterrupted emitter's state at that barrier. A run
// killed after its final barrier resumes with zero steps left, so no
// BeginStep will run before run_finished — without this the closing event
// would carry StepUnset where the uninterrupted log carries the last step.
func (e *Emitter) ResumeStep(step int) {
	if e == nil {
		return
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	e.step = step
}

// Flush pushes buffered events down to the sink's backing writer when the
// sink supports it (JSONLSink does) — called at step barriers by
// journaled runs so the checkpoint's log offsets cover everything emitted
// so far.
func (e *Emitter) Flush() error {
	if e == nil {
		return nil
	}
	if f, ok := e.sink.(interface{ Flush() error }); ok {
		return f.Flush()
	}
	return nil
}

// Emit stamps ev (Seq, T, Wall, and the current step when ev.Step is
// StepUnset) and forwards it to the sink.
func (e *Emitter) Emit(ev Event) {
	if e == nil {
		return
	}
	e.mu.Lock()
	e.seq++
	ev.Seq = e.seq
	if e.clock != nil {
		ev.T = e.clock()
	}
	if e.wall != nil {
		ev.Wall = e.wall().UTC().Format(time.RFC3339Nano)
	}
	if ev.Step == StepUnset {
		ev.Step = e.step
	}
	if ev.Tenant == "" {
		ev.Tenant = e.ten
	}
	sink := e.sink
	e.mu.Unlock()
	sink.Emit(ev)
}

// RunStarted opens the stream with a run-level banner event.
func (e *Emitter) RunStarted(detail string) {
	if e == nil {
		return
	}
	e.Emit(Event{Kind: KindRunStarted, Step: StepUnset, Detail: detail})
}

// RunFinished closes the stream with the run's end-to-end seconds.
func (e *Emitter) RunFinished(endToEnd float64) {
	if e == nil {
		return
	}
	e.Emit(Event{Kind: KindRunFinished, Step: StepUnset, Seconds: endToEnd})
}

// StagingRetry emits one transport retry attempt without counting it — the
// bare emission cost xbench's obs.emit_ns probe measures. The staging client
// records its retries through Counts.Record.
func (e *Emitter) StagingRetry(attempt int, lastErr string) {
	e.Emit(StagingRetry(attempt, lastErr))
}

// The staging and workflow events below are built as values: the pool
// buffers them until DrainEvents, and the counted kinds (see counterTable)
// are recorded through Counts.Record, which counts them with or without an
// emitter.

// StagingRetry is one retry attempt of a staging transport operation
// (emitted mid-operation; the step comes from the open span).
func StagingRetry(attempt int, lastErr string) Event {
	return Event{Kind: KindStagingRetry, Step: StepUnset, Attempt: attempt, Detail: lastErr}
}

// StagingReconnect is a successful re-dial after a transport failure.
func StagingReconnect() Event { return Event{Kind: KindStagingReconnect, Step: StepUnset} }

// EndpointDown is a staging-pool endpoint's circuit breaker opening after
// consecutive transport failures.
func EndpointDown(endpoint, failures int) Event {
	return Event{
		Kind: KindEndpointDown, Step: StepUnset, Endpoint: endpoint, Attempt: failures,
		Detail: fmt.Sprintf("endpoint %d down after %d consecutive failures", endpoint, failures),
	}
}

// EndpointUp is a staging-pool endpoint rejoining after a successful probe
// and repair pass.
func EndpointUp(endpoint int) Event {
	return Event{
		Kind: KindEndpointUp, Step: StepUnset, Endpoint: endpoint,
		Detail: fmt.Sprintf("endpoint %d healthy", endpoint),
	}
}

// FailoverGet is a shard read served by a replica endpoint because the
// shard's primary was down or failing.
func FailoverGet(shard, endpoint int) Event {
	return Event{
		Kind: KindFailoverGet, Step: StepUnset, Endpoint: endpoint,
		Detail: fmt.Sprintf("shard %d served by replica endpoint %d", shard, endpoint),
	}
}

// Repair is an anti-entropy repair pass re-replicating blocks onto a
// rejoining endpoint.
func Repair(endpoint, blocks int, bytes int64) Event {
	return Event{
		Kind: KindRepair, Step: StepUnset, Endpoint: endpoint, Bytes: bytes,
		Detail: fmt.Sprintf("re-replicated %d blocks onto endpoint %d", blocks, endpoint),
	}
}

// RepairDelta is the manifest-diff outcome of a delta rejoin repair: shipped
// blocks were re-put, skipped blocks were already held by the rejoining
// endpoint, and avoided is the wire bytes that did not travel.
func RepairDelta(endpoint, shipped, skipped int, avoided int64) Event {
	return Event{
		Kind: KindRepairDelta, Step: StepUnset, Endpoint: endpoint, Bytes: avoided,
		Detail: fmt.Sprintf("delta repair shipped %d blocks, skipped %d already held", shipped, skipped),
	}
}

// AdmissionShed is a staging-server connection refused by admission control,
// with the refusal reason ("max_conns" when no backlog is configured,
// "backlog_full" otherwise) and the admission state at refusal.
func AdmissionShed(reason string, active, backlog int) Event {
	return Event{
		Kind: KindAdmissionShed, Step: StepUnset, Reason: reason, Attempt: backlog,
		Detail: fmt.Sprintf("connection refused: %s (active=%d backlog=%d)", reason, active, backlog),
	}
}

// QuotaRejected is a staging put rejected server-side by a tenant's byte or
// block quota.
func QuotaRejected(tenant, varName string, bytes int64) Event {
	return Event{
		Kind: KindQuotaRejected, Step: StepUnset, Tenant: tenant, Bytes: bytes,
		Detail: fmt.Sprintf("put %q rejected by tenant %q quota", varName, tenant),
	}
}

// ResourceResize is a staging-pool resize by the resource layer (recorded
// through StepCtx.Record, which stamps the step).
func ResourceResize(prev, cores int) Event {
	return Event{Kind: KindResourceResize, Step: StepUnset, PrevCores: prev, Cores: cores}
}

// StagingDegrade is a step's fallback to in-situ execution after the staging
// transport exhausted its retry budget (recorded through StepCtx.Record).
func StagingDegrade(reason string, retries int) Event {
	return Event{Kind: KindStagingDegrade, Step: StepUnset, Reason: reason, Attempt: retries}
}

// CheckpointWrite records a write-ahead journal checkpoint taken at a
// step barrier. It is emitted before the journal record is encoded, so
// the checkpoint's own event sits inside the flushed prefix that the
// record's log offsets cover.
func (e *Emitter) CheckpointWrite(step, manifestEntries int) {
	if e == nil {
		return
	}
	e.Emit(Event{
		Kind: KindCheckpointWrite, Step: step,
		Detail: fmt.Sprintf("manifest_entries=%d", manifestEntries),
	})
}

// BeginStep opens a step span: a step_started event is emitted and every
// span-less event until the next BeginStep carries this step. The returned
// StepCtx is a value (no allocation) whose methods are nil-safe, so callers
// hold and use it unconditionally.
func (e *Emitter) BeginStep(step int) StepCtx {
	if e == nil {
		return StepCtx{}
	}
	e.mu.Lock()
	e.step = step
	e.mu.Unlock()
	e.Emit(Event{Kind: KindStepStarted, Step: step})
	return StepCtx{e: e, step: step}
}

// StepCtx is the span-like context of one workflow step: every event
// emitted through it carries the step number. The zero value (disabled
// emitter) no-ops.
type StepCtx struct {
	e    *Emitter
	step int
}

// Enabled reports whether events emitted through this span go anywhere.
func (s StepCtx) Enabled() bool { return s.e != nil }

// PolicyDecision records one layer's decision: the chosen output
// (placement, factor or cores — pass the zero value for the others) plus a
// Detail string carrying the inputs the policy evaluated.
func (s StepCtx) PolicyDecision(layer, placement, reason string, factor, cores int, inputs string) {
	if s.e == nil {
		return
	}
	s.e.Emit(Event{
		Kind: KindPolicyDecision, Step: s.step, Layer: layer,
		Placement: placement, Reason: reason, Factor: factor, Cores: cores,
		Detail: inputs,
	})
}

// PlacementChange records an analysis-placement flip between steps.
func (s StepCtx) PlacementChange(from, to, reason string) {
	if s.e == nil {
		return
	}
	s.e.Emit(Event{
		Kind: KindPlacementChange, Step: s.step,
		Placement: to, Reason: reason, Detail: "from " + from,
	})
}

// Record counts ev with c and emits it inside this span (see Counts.Record);
// a disabled span still counts.
func (s StepCtx) Record(c *Counts, ev Event) {
	ev.Step = s.step
	c.Record(s.e, ev)
}

// Finished closes the span with the step's outcome.
func (s StepCtx) Finished(placement string, factor int, simSec, anaSec, xferSec float64, bytesMoved int64) {
	if s.e == nil {
		return
	}
	s.e.Emit(Event{
		Kind: KindStepFinished, Step: s.step,
		Placement: placement, Factor: factor,
		Seconds: simSec + anaSec + xferSec, Bytes: bytesMoved,
		Detail: fmt.Sprintf("sim=%.6gs analysis=%.6gs transfer=%.6gs", simSec, anaSec, xferSec),
	})
}
