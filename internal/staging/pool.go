package staging

import (
	"context"
	"errors"
	"fmt"
	"math/bits"
	"runtime/pprof"
	"sort"
	"strconv"
	"sync"

	"crosslayer/internal/field"
	"crosslayer/internal/grid"
	"crosslayer/internal/obs"
	"crosslayer/internal/obs/span"
)

// Pool is a replicated, sharded client over N TCP staging servers — the
// multi-node data plane the single-server deployment shape lacked. Each
// block is routed to a primary endpoint by the Morton code of its center
// (the same space-filling-curve bucketing the in-process Space uses for its
// shards) and replicated to the next K−1 endpoints in ring order, so one
// server crash leaves every block with a surviving copy as long as K > 1.
//
// The pool tracks per-endpoint health with a consecutive-failure circuit
// breaker: an endpoint that fails failureThreshold operations in a row is
// taken out of rotation (endpoint_down), and while it is down reads of its
// shard fail over to replicas (failover_get) and writes land only on the
// survivors. Every probeEvery skipped operations the breaker half-opens and
// probes the endpoint with a cheap stat round trip; when the probe succeeds
// the pool runs an anti-entropy repair pass — re-replicating every live
// (variable, version) the endpoint should hold from surviving peers — and
// only then marks it healthy again (repair, endpoint_up).
//
// An operation fails only when every replica of the data is gone: a Put that
// no endpoint stored, or a shard read whose primary and replicas are all
// unreachable, returns ErrStagingUnavailable, and the workflow above
// degrades that step to in-situ execution exactly as with a single dead
// server. While at least one replica survives, failures are invisible to
// the caller.
//
// Every operation has one body: it splits into per-endpoint jobs, hands each
// to submit, and aggregates the answers. PoolOptions.Concurrency only picks
// the executor those jobs run on:
//
//   - Inline (Concurrency <= 1, the default): there are no goroutines.
//     submit runs each job on the caller's goroutine, whole operations are
//     serialized under one mutex, shards are read one after another, and
//     events and spans sink as they happen — so with a deterministic crash
//     schedule the emitted sequence is reproducible byte for byte.
//   - Workers (Concurrency > 1): each endpoint gets a worker goroutine
//     draining its own job queue over its one reused connection; a put's
//     replica writes and a read's shards run in parallel, and the number of
//     executing endpoint operations is bounded by Concurrency. A shard's
//     replicas are still read one after another, as inline.
//     Endpoint-level events and op spans are buffered and must be flushed
//     with DrainEvents/DrainSpans at a quiet point (the workflow's step
//     barrier), where they are put in a deterministic order before sinking.
//
// A *Pool is a handle on shared pool state. Pool.Tenant returns another
// handle on the same pool scoped to one tenant's namespace, and
// PoolOptions.Tenant scopes the handle NewPool returns: either way every
// variable name is qualified with the tenant prefix before it reaches the
// wire, and Manifest, RestoreManifest and Audit keep to the namespace. An
// untenanted handle sees the whole pool. Everything else — endpoints,
// breakers, executor, the live map, buffered events and spans, the span
// scope — is shared, so DrainEvents, DrainSpans, SetSpanScope and Close act
// on the whole pool whichever handle calls them.
type Pool struct {
	*poolCore
	tenant string // namespace this handle's names are qualified into; "" = none
}

// poolCore is the state every handle on one pool shares.
type poolCore struct {
	domain   grid.Box
	replicas int
	thresh   int // failureThreshold; tests lower it to trip on one failure
	probeEvn int // probeEvery; tests lower it to probe on every operation
	nameRoom int // longest qualified name whose every replica name fits the wire
	conc     int
	events   *obs.Emitter

	counts      *obs.Counts // failover_get, repair, repair_delta, endpoint_down
	mRepaired   *obs.Counter
	mHealthy    *obs.Gauge
	mSkippedOps *obs.Counter

	// mu serializes whole operations when jobs run inline (lockOp). A pool
	// with workers never takes it per operation; Close takes it on both.
	mu  sync.Mutex
	eps []*endpoint

	// stateMu guards the shared mutable state jobs touch: breaker fields on
	// each endpoint, the live-version manifest, the buffered event and span
	// queues, the span scope, and the closed flag.
	stateMu      sync.Mutex
	live         map[string]map[int]int // var -> version -> blocks recorded
	pending      []poolEvent
	pendingSpans []*opRec
	scope        span.Ctx // phase span pool ops parent under (SetSpanScope)
	closed       bool

	sem     chan struct{} // bounds executing endpoint ops; nil when jobs run inline
	workers sync.WaitGroup
}

// endpoint is one staging server plus its circuit-breaker state and, at
// Concurrency > 1, its worker queue. jobs is the endpoint's single in-flight
// pipeline: one worker goroutine drains it over the endpoint's one reused
// client connection, so operations on an endpoint never interleave. A nil
// jobs means the pool runs jobs inline (see submit).
type endpoint struct {
	idx      int
	client   *Client
	jobs     chan func()
	down     bool
	failures int // consecutive transport failures
	skipped  int // operations skipped while down; drives half-open probes
}

// poolEvent is one endpoint-level event buffered by a pool with workers.
// key is the endpoint index (breaker/repair events) or shard (failover
// reads); rank orders kinds within a key so the drained sequence is stable
// regardless of goroutine arrival order.
type poolEvent struct {
	key  int
	rank int
	ev   obs.Event
}

const (
	rankDown = iota
	rankFailover
	rankRepair
	rankUp
)

// An endpoint's breaker opens after failureThreshold consecutive failed
// operations; while down, the endpoint sits out probeEvery operations
// between half-open probes. Probe cadence counts operations, not wall time,
// so seeded runs probe at reproducible points.
const failureThreshold, probeEvery = 2, 2

// PoolOptions tunes the pool. The zero value selects the defaults noted on
// each field.
type PoolOptions struct {
	// Replicas is how many endpoints hold each block, primary included
	// (default 1 = no replication; capped at the endpoint count).
	Replicas int

	// Concurrency selects the executor. <= 1 (default) runs every
	// endpoint job inline on the caller's goroutine, one operation at a
	// time; > 1 starts per-endpoint worker pipelines with at most
	// Concurrency endpoint operations executing across the pool. Pools
	// with workers buffer endpoint events until DrainEvents.
	Concurrency int

	// Client configures each endpoint's TCP client. The clients emit no
	// events: the pool emits its own endpoint-level events with stable
	// details instead of per-endpoint transport noise, keeping seeded event
	// logs byte-identical (raw racy error strings would not be).
	Client ClientOptions

	// Tenant, when set, scopes the returned handle to one tenant namespace,
	// exactly as Pool.Tenant scopes a handle of an untenanted pool: every
	// variable name is qualified with the tenant prefix before it reaches
	// the wire (see TenantVar).
	Tenant string

	// Events receives endpoint_down/endpoint_up/failover_get/repair/
	// repair_delta events.
	Events *obs.Emitter

	// Metrics, when set, registers the pool's counters and the healthy-
	// endpoint gauge (xlayer_staging_pool_*) plus each endpoint client's
	// transport counters.
	Metrics *obs.Registry
}

// NewPool builds a pool over the given server addresses. Endpoint clients
// connect lazily, so unreachable servers surface per operation (and trip the
// breaker) rather than failing construction. domain must match the
// workflow's base-level domain: it anchors the Morton routing.
func NewPool(addrs []string, domain grid.Box, opts PoolOptions) (*Pool, error) {
	if len(addrs) == 0 {
		return nil, errors.New("staging: pool needs at least one endpoint")
	}
	if opts.Replicas < 1 {
		opts.Replicas = 1
	}
	if opts.Replicas > len(addrs) {
		return nil, fmt.Errorf("staging: %d replicas exceed %d endpoints", opts.Replicas, len(addrs))
	}
	if opts.Concurrency < 1 {
		opts.Concurrency = 1
	}
	if opts.Tenant != "" && !ValidTenant(opts.Tenant) {
		return nil, fmt.Errorf("%w: %q", ErrBadTenant, opts.Tenant)
	}
	copts := opts.Client
	copts.Metrics = opts.Metrics
	nameRoom := maxVarName
	if opts.Replicas > 1 {
		nameRoom -= len(replicaVar("", len(addrs)-1)) // the highest shard's suffix
	}
	p := &Pool{tenant: opts.Tenant, poolCore: &poolCore{
		domain:   domain,
		replicas: opts.Replicas,
		thresh:   failureThreshold,
		probeEvn: probeEvery,
		nameRoom: nameRoom,
		conc:     opts.Concurrency,
		events:   opts.Events,
		live:     make(map[string]map[int]int),
	}}
	for i, addr := range addrs {
		p.eps = append(p.eps, &endpoint{idx: i, client: NewClient(addr, copts)})
	}
	if !p.inline() {
		p.sem = make(chan struct{}, p.conc)
		for _, ep := range p.eps {
			ep.jobs = make(chan func(), p.conc)
			p.workers.Add(1)
			go p.worker(ep)
		}
	}
	reg := opts.Metrics
	p.counts = obs.NewCounts(reg, obs.KindFailoverGet, obs.KindRepair, obs.KindRepairDelta, obs.KindEndpointDown)
	p.mRepaired = reg.Counter("xlayer_staging_pool_repaired_blocks_total",
		"Blocks re-replicated onto rejoining endpoints.")
	p.mSkippedOps = reg.Counter("xlayer_staging_pool_skipped_ops_total",
		"Operations not offered to an endpoint because its breaker was open.")
	p.mHealthy = reg.Gauge("xlayer_staging_pool_healthy_endpoints",
		"Pool endpoints currently in rotation.")
	p.mHealthy.Set(float64(len(addrs)))
	return p, nil
}

// replicaVar names the replica copies of varName's shard-primary blocks.
// The primary index is baked into the name so a failover read of one shard
// never collides with another shard's replicas on the same endpoint ('#' is
// not produced by any workflow variable name).
func replicaVar(varName string, primary int) string {
	return fmt.Sprintf("%s#r%d", varName, primary)
}

// replicaName is the variable replica j of a shard's ring is stored under:
// the plain name on the primary, the shard's replica variable elsewhere.
func replicaName(varName string, shard, j int) string {
	if j == 0 {
		return varName
	}
	return replicaVar(varName, shard)
}

// allRegion covers every level's index space: repair fetches do not know the
// finest refinement level, so they query everything. Extents stay within
// int32 for the wire encoding.
var allRegion = grid.NewBox(grid.IV(-(1<<30), -(1<<30), -(1<<30)), grid.IV(1<<30, 1<<30, 1<<30))

// inline reports whether endpoint jobs run on the caller's goroutine — the
// pool started no workers — rather than on per-endpoint worker queues.
func (p *Pool) inline() bool { return p.conc <= 1 }

// HealthyEndpoints reports how many endpoints are in rotation out of the
// configured total — the health signal the workflow's monitor samples so
// the resource layer sees lost staging capacity.
func (p *Pool) HealthyEndpoints() (healthy, total int) {
	p.stateMu.Lock()
	defer p.stateMu.Unlock()
	for _, ep := range p.eps {
		if !ep.down {
			healthy++
		}
	}
	return healthy, len(p.eps)
}

// DownEndpoints snapshots each endpoint's circuit-breaker state, indexed by
// endpoint: true means the breaker is open and the endpoint is out of
// rotation. The chaos harness cross-checks degraded steps against this
// snapshot — a step may only be marked staging_failure when some shard's
// full replica set was unavailable.
func (p *Pool) DownEndpoints() []bool {
	p.stateMu.Lock()
	defer p.stateMu.Unlock()
	out := make([]bool, len(p.eps))
	for i, ep := range p.eps {
		out[i] = ep.down
	}
	return out
}

// TransportStats sums the endpoint clients' cumulative retry and reconnect
// counts (the workflow snapshots these into per-step trace records).
func (p *Pool) TransportStats() (retries, reconnects int64) {
	for _, ep := range p.eps {
		r, rc := ep.client.TransportStats()
		retries += r
		reconnects += rc
	}
	return retries, reconnects
}

// Close stops the worker pipelines, flushes any buffered events, and closes
// every endpoint client — of the shared pool, whichever handle calls it.
// Close must not race in-flight operations: callers finish (join) their
// puts and gets first, exactly as the workflow's step barrier does.
func (p *Pool) Close() error {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.stateMu.Lock()
	wasClosed := p.closed
	p.closed = true
	p.stateMu.Unlock()
	if !wasClosed && !p.inline() {
		for _, ep := range p.eps {
			close(ep.jobs)
		}
		p.workers.Wait()
		p.DrainEvents()
		p.DrainSpans()
	}
	var first error
	for _, ep := range p.eps {
		if err := ep.client.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// worker drains one endpoint's job queue. One worker per endpoint keeps a
// single in-flight pipeline per connection: operations against an endpoint
// are ordered even when many callers fan out across the pool. The goroutine
// carries pprof labels (endpoint index, shard) so CPU profiles
// cross-reference the span blame table's per-endpoint split.
func (p *Pool) worker(ep *endpoint) {
	defer p.workers.Done()
	labels := pprof.Labels(
		"xlayer_endpoint", strconv.Itoa(ep.idx),
		"xlayer_shard", strconv.Itoa(ep.idx))
	pprof.Do(context.Background(), labels, func(context.Context) {
		for fn := range ep.jobs {
			fn()
		}
	})
}

// submit is the executor: it runs fn against ep on the caller's goroutine
// when the pool has no workers, and schedules it on ep's worker otherwise.
// There the pool-wide semaphore is acquired when the job starts executing —
// not while it waits in the queue, which would let a backed-up endpoint hold
// slots and starve idle peers — so Concurrency bounds executing operations
// while each endpoint's buffered channel bounds its queue. Only coordinator
// goroutines submit; a repair running on a worker enqueues its peer fetches
// raw — no semaphore, slot handed back while it waits (see fetchFrom) — so
// the queues cannot deadlock on themselves.
func (p *Pool) submit(ep *endpoint, fn func()) {
	if p.inline() {
		fn()
		return
	}
	ep.jobs <- func() {
		p.sem <- struct{}{}
		defer func() { <-p.sem }()
		fn()
	}
}

// lockOp serializes whole operations while jobs run inline: the breaker,
// probe and repair logic assumes one operation at a time per endpoint, which
// the per-endpoint workers otherwise provide.
func (p *Pool) lockOp() {
	if p.inline() {
		p.mu.Lock()
	}
}

func (p *Pool) unlockOp() {
	if p.inline() {
		p.mu.Unlock()
	}
}

// sinkEvent records an endpoint-level event: counted and emitted as it
// happens when jobs run inline (preserving byte-identical seeded logs);
// counted now but emitted at DrainEvents when workers run them, so live
// metrics never wait for the step barrier.
func (p *Pool) sinkEvent(key, rank int, ev obs.Event) {
	if p.inline() {
		p.counts.Record(p.events, ev)
		return
	}
	p.counts.Record(nil, ev)
	if p.events == nil {
		return
	}
	p.stateMu.Lock()
	p.pending = append(p.pending, poolEvent{key: key, rank: rank, ev: ev})
	p.stateMu.Unlock()
}

// DrainEvents flushes events buffered by the endpoint workers to the
// emitter, ordered by (endpoint-or-shard key, event kind) with arrival
// order preserved within equal keys. The workflow calls this at each step
// barrier so streams from a pool with workers group events deterministically
// even though goroutine interleavings differ run to run. No-op when jobs run
// inline, where events were emitted as they happened.
func (p *Pool) DrainEvents() {
	if p.inline() {
		return
	}
	p.stateMu.Lock()
	evs := p.pending
	p.pending = nil
	p.stateMu.Unlock()
	sort.SliceStable(evs, func(i, j int) bool {
		if evs[i].key != evs[j].key {
			return evs[i].key < evs[j].key
		}
		return evs[i].rank < evs[j].rank
	})
	for _, ev := range evs {
		p.events.Emit(ev.ev)
	}
}

// Pool-op span kinds, in drain order within a step's batch.
const (
	opRankPut = iota
	opRankGet
	opRankDrop
	opRankRepair
)

// opRec is one pool-op span under construction, with its per-endpoint RPC
// children. When jobs run inline it is emitted as the op finishes; with
// workers it is buffered until DrainSpans, where records are ordered by
// deterministic properties of the operation — op kind, block Morton code or
// shard/endpoint index, version, detail — never by goroutine arrival order,
// so seeded concurrent runs produce byte-identical span logs.
type opRec struct {
	parent  span.Ctx
	kind    int
	key1    uint64
	key2    int64
	primary int // a put's primary endpoint: two blocks can share a Morton key
	op      span.Op

	mu   sync.Mutex
	rpcs []rpcRec
}

// rpcRec is one endpoint client call within a pool op; j is the replica
// index within the op — the deterministic intra-op emission order.
type rpcRec struct {
	j  int
	op span.Op
}

// SetSpanScope installs the phase span pool operations parent under and
// forwards the wire trace context to every endpoint client. The workflow
// sets it at phase boundaries (quiet points), so in-flight operations never
// race a scope change. A zero Ctx disables pool spans and wire stamping.
func (p *Pool) SetSpanScope(c span.Ctx) {
	p.stateMu.Lock()
	p.scope = c
	p.stateMu.Unlock()
	trace, parent := c.WireIDs()
	for _, ep := range p.eps {
		ep.client.SetSpanScope(trace, parent)
	}
}

// spanScope reads the current scope.
func (p *Pool) spanScope() span.Ctx {
	p.stateMu.Lock()
	defer p.stateMu.Unlock()
	return p.scope
}

// newOpRec starts a pool-op span record, nil when tracing is off (every
// *opRec method is nil-safe, so call sites never branch).
func (p *Pool) newOpRec(kind int, key1 uint64, key2 int64, name, detail string) *opRec {
	scope := p.spanScope()
	if !scope.Enabled() {
		return nil
	}
	return &opRec{parent: scope, kind: kind, key1: key1, key2: key2,
		op: span.Op{Name: name, Layer: span.LayerStagingExec, Detail: detail}}
}

// blockKey is a put's deterministic sort key: the block's Morton code, the
// same bucketing the router and the assembly sort use.
func (p *Pool) blockKey(b grid.Box) uint64 {
	return mortonKey(p.domain, b.Lo)
}

// nowNs is a wall stamp for queue/exec measurement: zero (free) unless the
// scope's tracer measures wall durations.
func (r *opRec) nowNs() int64 {
	if r == nil {
		return 0
	}
	return r.parent.Tracer().NowNs()
}

// rpc records one endpoint client call: queueNs is the measured wait between
// submit and execution (~0 when the job ran inline), e0 the nowNs stamp taken
// before the call, errLabel a stable transport-error label (errDetail) or "".
func (r *opRec) rpc(j, endpoint int, name string, queueNs, e0 int64, errLabel string) {
	if r == nil {
		return
	}
	execNs := r.parent.Tracer().NowNs() - e0
	r.mu.Lock()
	r.rpcs = append(r.rpcs, rpcRec{j: j, op: span.Op{
		Name: name, Layer: span.LayerStagingExec, Endpoint: endpoint,
		QueueNs: queueNs, ExecNs: execNs, Err: errLabel,
	}})
	r.mu.Unlock()
}

// markFailover tags a shard-read op served by a replica (the span-side twin
// of the failover_get event; the chaos span-tree invariant counts them).
func (r *opRec) markFailover(endpoint int) {
	if r == nil {
		return
	}
	r.op.Detail += fmt.Sprintf(" failover=ep%d", endpoint)
}

// poolErrLabel reduces a pool-op outcome to a stable span error label.
func poolErrLabel(err error) string {
	switch {
	case err == nil, errors.Is(err, ErrNotFound):
		return ""
	case errors.Is(err, ErrNoMemory):
		return "no memory"
	case errors.Is(err, ErrQuotaExceeded):
		return "quota exceeded"
	case errors.Is(err, ErrStagingUnavailable):
		return "staging unavailable"
	}
	return "transport error"
}

// finish stamps the op's outcome, aggregates its RPCs' wall durations, and
// sinks the record (emitted now or buffered, like sinkEvent).
func (r *opRec) finish(p *Pool, err error) {
	if r == nil {
		return
	}
	r.op.Err = poolErrLabel(err)
	r.mu.Lock()
	for i := range r.rpcs {
		r.op.QueueNs += r.rpcs[i].op.QueueNs
		r.op.ExecNs += r.rpcs[i].op.ExecNs
	}
	r.mu.Unlock()
	if p.inline() {
		r.emit()
		return
	}
	p.stateMu.Lock()
	p.pendingSpans = append(p.pendingSpans, r)
	p.stateMu.Unlock()
}

// emit writes the op span and its RPC children, RPCs ordered by replica
// index regardless of completion order.
func (r *opRec) emit() {
	r.mu.Lock()
	defer r.mu.Unlock()
	sort.SliceStable(r.rpcs, func(i, j int) bool { return r.rpcs[i].j < r.rpcs[j].j })
	c := r.parent.Record(r.op)
	for i := range r.rpcs {
		c.Record(r.rpcs[i].op)
	}
}

// DrainSpans flushes pool-op spans buffered by the endpoint workers,
// ordered by (op kind, routing key, version, primary, name, detail) — all
// deterministic properties of the operations — so span logs from a pool with
// workers reproduce byte for byte. The workflow calls this at each step
// barrier, while the step's phase spans are still open, so the drained spans
// sit inside their parents' intervals. No-op when jobs run inline, where
// spans were emitted as each op finished.
func (p *Pool) DrainSpans() {
	if p.inline() {
		return
	}
	p.stateMu.Lock()
	recs := p.pendingSpans
	p.pendingSpans = nil
	p.stateMu.Unlock()
	sort.SliceStable(recs, func(i, j int) bool {
		a, b := recs[i], recs[j]
		if a.kind != b.kind {
			return a.kind < b.kind
		}
		if a.key1 != b.key1 {
			return a.key1 < b.key1
		}
		if a.key2 != b.key2 {
			return a.key2 < b.key2
		}
		if a.primary != b.primary {
			return a.primary < b.primary
		}
		if a.op.Name != b.op.Name {
			return a.op.Name < b.op.Name
		}
		return a.op.Detail < b.op.Detail
	})
	for _, r := range recs {
		r.emit()
	}
}

// route picks the primary endpoint index for a block.
func (p *Pool) route(b grid.Box) int { return routeIndex(p.domain, b, len(p.eps)) }

// routeIndex maps a block to a shard index in [0, n): the Morton code of the
// box center, scaled over the shard range so contiguous curve segments land
// on the same shard — the pool's endpoint routing.
func routeIndex(domain grid.Box, b grid.Box, n int) int {
	c := b.Center().Sub(domain.Lo).Max(grid.Zero)
	code := grid.MortonCode(c)
	// Codes of in-domain points span [0, MortonCode(maxCorner)]; scale that
	// range over the shards. code*n is computed in 128 bits: Morton codes
	// use up to 63 bits, so the plain 64-bit product overflows for domains
	// larger than ~2^20 cells per side and misroutes blocks.
	maxCode := grid.MortonCode(domain.Size().Sub(grid.Unit).Max(grid.Zero)) + 1
	idx := int(code % uint64(n))
	if maxCode > 0 {
		hi, lo := bits.Mul64(code, uint64(n))
		if hi >= maxCode {
			// code >= maxCode (an out-of-domain center); clamp below.
			idx = n
		} else {
			q, _ := bits.Div64(hi, lo, maxCode)
			idx = int(q)
		}
		if idx >= n {
			idx = n - 1
		}
	}
	return idx
}

// scoped qualifies varName into the handle's tenant namespace when it is
// tenant-scoped (identity otherwise) and checks that every name the pool
// derives from it fits the wire. A name that does not fit fails with
// ErrBadBlock before any endpoint sees it, so it never counts against an
// endpoint's health.
func (p *Pool) scoped(varName string) (string, error) {
	if p.tenant != "" {
		var err error
		if varName, err = TenantVar(p.tenant, varName); err != nil {
			return "", err
		}
	}
	if len(varName) > p.nameRoom {
		return "", fmt.Errorf("%w: variable name of %d bytes, the pool's replica names carry at most %d", ErrBadBlock, len(varName), p.nameRoom)
	}
	return varName, nil
}

// gateDecision is the breaker's answer for one offered operation.
type gateDecision int

const (
	gateOpen  gateDecision = iota // endpoint healthy: proceed
	gateSkip                      // breaker open: sit this one out
	gateProbe                     // half-open: probe the transport
)

// gate advances ep's breaker state for one offered operation. It is only
// ever called from a job submitted to ep — ep's own worker, or the one
// operation lockOp admits — so at most one probe per endpoint is in flight.
func (p *Pool) gate(ep *endpoint) gateDecision {
	p.stateMu.Lock()
	defer p.stateMu.Unlock()
	if !ep.down {
		return gateOpen
	}
	ep.skipped++
	p.mSkippedOps.Inc()
	if ep.skipped < p.probeEvn {
		return gateSkip
	}
	ep.skipped = 0
	return gateProbe
}

// usable reports whether ep may serve an operation right now. A down
// endpoint sits out probeEvery operations, then half-opens: a cheap stat
// round trip probes the transport, and on success the anti-entropy repair
// pass runs before the endpoint returns to rotation — a rejoining server
// is never offered reads it cannot answer.
func (p *Pool) usable(ep *endpoint) bool {
	switch p.gate(ep) {
	case gateOpen:
		return true
	case gateSkip:
		return false
	}
	if _, err := ep.client.MemUsed(); err != nil {
		return false
	}
	if !p.repair(ep) {
		// Partial repair must not rejoin: the endpoint's primary answers
		// become authoritative the moment it is back in rotation, and a
		// store missing blocks a failed re-put dropped would serve
		// clean-but-short reads. Stay down; a later probe retries the pass.
		return false
	}
	p.rejoin(ep)
	return true
}

// rejoin returns a successfully probed and repaired endpoint to rotation.
func (p *Pool) rejoin(ep *endpoint) {
	p.stateMu.Lock()
	ep.down = false
	ep.failures = 0
	p.stateMu.Unlock()
	p.mHealthy.Add(1)
	p.sinkEvent(ep.idx, rankUp, obs.EndpointUp(ep.idx))
}

// opOK resets ep's consecutive-failure count after a clean round trip.
func (p *Pool) opOK(ep *endpoint) {
	p.stateMu.Lock()
	ep.failures = 0
	p.stateMu.Unlock()
}

// opFail records a transport failure on ep, opening its breaker at the
// threshold. Application-level outcomes (ErrNotFound, ErrNoMemory) are
// clean round trips and must not come through here.
func (p *Pool) opFail(ep *endpoint) {
	p.stateMu.Lock()
	ep.failures++
	tripped := !ep.down && ep.failures >= p.thresh
	failures := ep.failures
	if tripped {
		ep.down = true
		ep.skipped = 0
	}
	p.stateMu.Unlock()
	if tripped {
		p.mHealthy.Add(-1)
		p.sinkEvent(ep.idx, rankDown, obs.EndpointDown(ep.idx, failures))
	}
}

// isDown reads ep's breaker state without advancing it.
func (p *Pool) isDown(ep *endpoint) bool {
	p.stateMu.Lock()
	defer p.stateMu.Unlock()
	return ep.down
}

// Put stores a block: the primary endpoint gets it under varName, the next
// Replicas−1 endpoints in ring order get copies under the shard's replica
// variable. The replica-set writes are submitted together and joined; the
// put succeeds when at least one endpoint stored the block, and only a block
// with no surviving replica at all is a failure. A block or name the wire
// format cannot carry fails with ErrBadBlock before any endpoint sees it,
// so it never counts against an endpoint's health.
func (p *Pool) Put(varName string, version int, d *field.BoxData) error {
	if err := checkBlock(d); err != nil {
		return err
	}
	varName, err := p.scoped(varName)
	if err != nil {
		return err
	}
	p.lockOp()
	defer p.unlockOp()
	primary := p.route(d.Box)
	rec := p.newOpRec(opRankPut, p.blockKey(d.Box), int64(version), "pool:put",
		fmt.Sprintf("var=%s version=%d", varName, version))
	if rec != nil {
		rec.primary = primary
	}
	n := len(p.eps)
	type putRes struct {
		stored bool
		noMem  bool
		quota  bool
		err    error
	}
	ch := make(chan putRes, p.replicas)
	for i := 0; i < p.replicas; i++ {
		j := p.putOrder(i)
		ep := p.eps[(primary+j)%n]
		name := replicaName(varName, primary, j)
		enq := rec.nowNs()
		p.submit(ep, func() {
			q0 := rec.nowNs()
			if !p.usable(ep) {
				ch <- putRes{}
				return
			}
			e0 := rec.nowNs()
			switch err := ep.client.Put(name, version, d); {
			case err == nil:
				p.opOK(ep)
				rec.rpc(j, ep.idx, "rpc:put", q0-enq, e0, "")
				ch <- putRes{stored: true}
			case errors.Is(err, ErrNoMemory):
				p.opOK(ep)
				rec.rpc(j, ep.idx, "rpc:put", q0-enq, e0, "no memory")
				ch <- putRes{noMem: true}
			case errors.Is(err, ErrQuotaExceeded):
				p.opOK(ep)
				rec.rpc(j, ep.idx, "rpc:put", q0-enq, e0, "quota exceeded")
				ch <- putRes{quota: true}
			default:
				p.opFail(ep)
				rec.rpc(j, ep.idx, "rpc:put", q0-enq, e0, errDetail(err))
				ch <- putRes{err: err}
			}
		})
	}
	stored := 0
	noMem := false
	quota := false
	var lastErr error
	for j := 0; j < p.replicas; j++ {
		r := <-ch
		if r.stored {
			stored++
		}
		if r.noMem {
			noMem = true
		}
		if r.quota {
			quota = true
		}
		if r.err != nil {
			lastErr = r.err
		}
	}
	err = p.finishPut(varName, version, stored, noMem, quota, lastErr)
	rec.finish(p, err)
	return err
}

// putOrder maps the i-th submission of a put to the replica index it writes.
// On worker queues replicas are submitted before the primary: an
// anti-entropy repair of the primary endpoint fetches this shard's blocks
// through the replica holders' queues (see fetchFrom), and enqueueing the
// replica writes first guarantees the fetch — which a repair can only
// enqueue after the primary-side write was offered to the breaker — lands
// behind them in FIFO order, so the repair never misses a block whose
// primary write it raced. Inline nothing races; the primary goes first, so a
// repair it triggers restores the shard as it stood before this put (the
// order the committed conc-1 event and span logs record).
func (p *Pool) putOrder(i int) int {
	if p.inline() {
		return i
	}
	return p.replicas - 1 - i
}

// finishPut turns the replica-write tallies into the Put result and records
// the stored block in the live manifest. A quota rejection outranks the
// other zero-stored outcomes: it is the tenant's own deterministic signal,
// not a transient infrastructure failure.
func (p *Pool) finishPut(varName string, version, stored int, noMem, quota bool, lastErr error) error {
	if stored == 0 {
		if quota {
			return ErrQuotaExceeded
		}
		if noMem {
			return ErrNoMemory
		}
		if lastErr != nil {
			return lastErr
		}
		return fmt.Errorf("%w: no pool endpoint could store the block", ErrStagingUnavailable)
	}
	p.recordLive(varName, version)
	return nil
}

// GetBlocks assembles the stored blocks of varName at version intersecting
// region from every shard, failing a shard's read over to its replicas when
// the primary is unavailable. It returns ErrStagingUnavailable only when
// some shard has no reachable replica at all — the "all replicas of a block
// are gone" condition the workflow treats as a staging failure. Inline the
// shards are read in order, stopping at the first lost one; with workers
// one coordinator goroutine per shard reads them in parallel.
func (p *Pool) GetBlocks(varName string, version int, region grid.Box) ([]*field.BoxData, error) {
	varName, serr := p.scoped(varName)
	if serr != nil {
		return nil, serr
	}
	p.lockOp()
	defer p.unlockOp()
	type shardRes struct {
		blocks []*field.BoxData
		err    error
	}
	results := make([]shardRes, len(p.eps))
	var wg sync.WaitGroup
	for shard := range p.eps {
		if p.inline() {
			blocks, err := p.getShard(shard, varName, version, region)
			if err != nil {
				return nil, err
			}
			results[shard].blocks = blocks
			continue
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			blocks, err := p.getShard(shard, varName, version, region)
			results[shard] = shardRes{blocks: blocks, err: err}
		}()
	}
	wg.Wait()
	var out []*field.BoxData
	for _, r := range results {
		if r.err != nil {
			return nil, r.err
		}
		out = append(out, r.blocks...)
	}
	if len(out) == 0 {
		return nil, ErrNotFound
	}
	// Deterministic assembly order regardless of which endpoints answered.
	SortBlocks(p.domain, out)
	return out, nil
}

// getShard reads one shard's blocks, asking the shard's replicas one at a
// time in ring order on either executor: a replica is asked only once the
// one before it failed or was skipped. The primary's answer is
// authoritative: a put succeeds with any one replica-set write, so the
// replica variable can legitimately be missing blocks whose replica-side
// writes failed, and a replica's clean-but-partial answer must never stand
// in for a healthy primary's. The first clean answer — blocks or NotFound —
// ends the read; one served by a replica is a failover.
func (p *Pool) getShard(shard int, varName string, version int, region grid.Box) ([]*field.BoxData, error) {
	rec := p.newOpRec(opRankGet, uint64(shard), int64(version), "pool:get",
		fmt.Sprintf("var=%s version=%d shard=%d", varName, version, shard))
	type shardAns struct {
		blocks  []*field.BoxData // nil for a clean NotFound
		err     error
		skipped bool // breaker open: not an answer
	}
	ch := make(chan shardAns, 1)
	var lastErr error
	for j := 0; j < p.replicas; j++ {
		ep := p.eps[(shard+j)%len(p.eps)]
		name := replicaName(varName, shard, j)
		enq := rec.nowNs()
		p.submit(ep, func() {
			q0 := rec.nowNs()
			if !p.usable(ep) {
				ch <- shardAns{skipped: true}
				return
			}
			e0 := rec.nowNs()
			blocks, err := ep.client.GetBlocks(name, version, region)
			if err != nil && !errors.Is(err, ErrNotFound) {
				p.opFail(ep)
				rec.rpc(j, ep.idx, "rpc:get", q0-enq, e0, errDetail(err))
				ch <- shardAns{err: err}
				return
			}
			p.opOK(ep)
			rec.rpc(j, ep.idx, "rpc:get", q0-enq, e0, "")
			ch <- shardAns{blocks: blocks}
		})
		a := <-ch
		if a.skipped {
			continue
		}
		if a.err != nil {
			lastErr = a.err
			continue
		}
		if j > 0 {
			p.sinkEvent(shard, rankFailover, obs.FailoverGet(shard, ep.idx))
			rec.markFailover(ep.idx)
		}
		rec.finish(p, nil)
		return a.blocks, nil
	}
	err := shardLostErr(shard, lastErr)
	rec.finish(p, err)
	return nil, err
}

// shardLostErr is the "all replicas of a shard are gone" failure.
func shardLostErr(shard int, lastErr error) error {
	if lastErr != nil {
		return fmt.Errorf("%w: shard %d lost all replicas: %v", ErrStagingUnavailable, shard, lastErr)
	}
	return fmt.Errorf("%w: shard %d lost all replicas", ErrStagingUnavailable, shard)
}

// DropBefore evicts versions of varName below version on every reachable
// endpoint — primary copies and the replica variables each endpoint hosts —
// returning total bytes freed across the pool (replicas counted). Eviction
// is best-effort: down endpoints are skipped (a crashed server's state is
// gone or stale anyway, and rejoin repair only restores live versions).
func (p *Pool) DropBefore(varName string, version int) (int64, error) {
	varName, err := p.scoped(varName)
	if err != nil {
		return 0, err
	}
	p.lockOp()
	defer p.unlockOp()
	ch := make(chan int64, len(p.eps))
	for i, ep := range p.eps {
		rec := p.newOpRec(opRankDrop, uint64(i), int64(version), "pool:drop",
			fmt.Sprintf("var=%s below=%d ep=%d", varName, version, i))
		enq := rec.nowNs()
		p.submit(ep, func() {
			ch <- p.dropOnEndpoint(i, varName, version, rec, enq)
		})
	}
	var freed int64
	for range p.eps {
		freed += <-ch
	}
	p.dropLive(varName, version)
	return freed, nil
}

// dropOnEndpoint evicts varName (and the replica variables endpoint i
// hosts) below version on that endpoint, returning bytes freed. enq is the
// wall stamp taken at submit time (queue-wait measurement).
func (p *Pool) dropOnEndpoint(i int, varName string, version int, rec *opRec, enq int64) int64 {
	q0 := rec.nowNs()
	ep := p.eps[i]
	if !p.usable(ep) {
		// No RPC issued: drop the record rather than log a zero-width span.
		return 0
	}
	n := len(p.eps)
	names := []string{varName}
	for j := 1; j < p.replicas; j++ {
		names = append(names, replicaVar(varName, (i-j+n)%n))
	}
	var freed int64
	var dropErr error
	for j, name := range names {
		queue := int64(0)
		if j == 0 {
			queue = q0 - enq
		}
		e0 := rec.nowNs()
		f, err := ep.client.DropBefore(name, version)
		if err != nil {
			p.opFail(ep)
			rec.rpc(j, ep.idx, "rpc:drop", queue, e0, errDetail(err))
			dropErr = err
			break
		}
		p.opOK(ep)
		rec.rpc(j, ep.idx, "rpc:drop", queue, e0, "")
		freed += f
	}
	rec.finish(p, dropErr)
	return freed
}

// recordLive marks (varName, version) as held by the pool — the manifest
// rejoin repair replays — counting stored blocks for the audit manifest.
func (p *Pool) recordLive(varName string, version int) {
	p.stateMu.Lock()
	defer p.stateMu.Unlock()
	vs := p.live[varName]
	if vs == nil {
		vs = make(map[int]int)
		p.live[varName] = vs
	}
	vs[version]++
}

// dropLive forgets versions below version.
func (p *Pool) dropLive(varName string, version int) {
	p.stateMu.Lock()
	defer p.stateMu.Unlock()
	vs := p.live[varName]
	for v := range vs {
		if v < version {
			delete(vs, v)
		}
	}
	if len(vs) == 0 {
		delete(p.live, varName)
	}
}

// repair is the anti-entropy pass run when a down endpoint's probe
// succeeds, before it rejoins rotation: for every live (variable, version)
// in the pool's manifest, the blocks the endpoint should hold — its own
// shard's primaries plus the replica copies it hosts for its ring
// predecessors — are fetched from surviving peers and merged into its
// store, and versions evicted pool-wide while it was down are dropped.
// Versions whose every other replica also died are unrepairable
// and silently lost, exactly like a single-server crash. Restored blocks
// are re-put with repair-tagged sequence numbers (PutRepair) so an
// in-flight put of the same block — queued behind the probe that triggered
// this repair — replaces the restored copy when its own write finally runs
// instead of appending a duplicate.
//
// repair reports whether the pass ran to completion: any transport failure
// — a fetch that found no clean source, a failed drop or re-put — aborts
// it and returns false, and the caller must keep the endpoint out of
// rotation so its incomplete store cannot serve authoritative reads.
func (p *Pool) repair(ep *endpoint) bool {
	rec := p.newOpRec(opRankRepair, uint64(ep.idx), 0, "pool:repair", "")
	t0 := rec.nowNs()
	n := len(p.eps)
	live := p.liveEntries(nil) // the whole pool, whichever handle probed

	// Shards this endpoint participates in: its own (as primary) and its
	// ring predecessors' (as replica holder).
	type role struct {
		shard int
		name  func(varName string) string
	}
	roles := []role{{ep.idx, func(v string) string { return v }}}
	for j := 1; j < p.replicas; j++ {
		shard := (ep.idx - j + n) % n
		roles = append(roles, role{shard, func(v string) string { return replicaVar(v, shard) }})
	}

	// Delta rejoin: ask the endpoint what it already holds. A durable
	// server that recovered its store from disk advertises its content
	// manifest with per-entry encoded byte totals; any entry whose block
	// count and byte total match what this pass would restore is skipped
	// wholesale — versions are immutable and each block is put once per
	// version, so matching count+bytes means the endpoint already holds
	// the identical set. A failed advertisement (old server, transport
	// fault) degrades to the full re-put pass, never aborts.
	type heldEntry struct {
		blocks int
		bytes  int64
	}
	type entryKey struct {
		name string
		ver  int
	}
	var held map[entryKey]heldEntry
	if adv, sizes, err := ep.client.Manifest(); err == nil {
		held = make(map[entryKey]heldEntry, len(adv.Entries))
		for i, e := range adv.Entries {
			held[entryKey{e.Var, e.Version}] = heldEntry{blocks: e.Blocks, bytes: sizes[i]}
		}
	}

	blocks, bytes := 0, int64(0)
	skippedBlocks, avoided := 0, int64(0)
	for len(live) > 0 {
		varName := live[0].Var
		k := 1
		for k < len(live) && live[k].Var == varName {
			k++
		}
		versions := live[:k]
		live = live[k:]
		for _, r := range roles {
			name := r.name(varName)
			// Merge, never wipe: the endpoint may hold blocks that exist
			// nowhere else (their replica writes failed while the pool was
			// degraded), so only versions evicted pool-wide while it was
			// down — everything below the oldest live version — are
			// dropped. Restored blocks are re-put with repair-tagged
			// sequence numbers; the server discards a restored copy it
			// already holds, so repairing an intact store is a no-op.
			if _, err := ep.client.DropBefore(name, versions[0].Version); err != nil {
				return false
			}
			for _, e := range versions {
				ver := e.Version
				fetched, ok := p.fetchShard(r.shard, ep, varName, ver)
				if !ok {
					return false
				}
				if held != nil && len(fetched) > 0 {
					var fb int64
					for _, b := range fetched {
						fb += EncodedSize(b)
					}
					if h, ok := held[entryKey{name, ver}]; ok && h.blocks == len(fetched) && h.bytes == fb {
						skippedBlocks += len(fetched)
						avoided += fb
						continue
					}
				}
				for _, b := range fetched {
					if err := ep.client.PutRepair(name, ver, b); err != nil {
						return false
					}
					blocks++
					bytes += b.Bytes()
				}
			}
		}
	}
	p.mRepaired.Add(float64(blocks))
	p.sinkEvent(ep.idx, rankRepair, obs.Repair(ep.idx, blocks, bytes))
	if held != nil {
		p.sinkEvent(ep.idx, rankRepair, obs.RepairDelta(ep.idx, blocks, skippedBlocks, avoided))
	}
	// One span per completed pass, mirroring the repair event (the chaos
	// span-tree invariant counts them against each other). Aborted passes
	// emit neither.
	if rec != nil {
		rec.op.Detail = fmt.Sprintf("ep=%d blocks=%d bytes=%d", ep.idx, blocks, bytes)
		rec.op.ExecNs = rec.nowNs() - t0
	}
	rec.finish(p, nil)
	return true
}

// fetchShard reads one shard's blocks of varName@version from any healthy
// member of the shard's replica set other than the endpoint being repaired.
// Down peers are not probed here (probing recurses into repair). ok is
// false when a source failed mid-transport and no later source answered
// cleanly — the caller cannot tell what it missed and must abort the
// repair. A shard with no eligible source at all yields (nil, true): every
// other replica died, the data is unrepairable, and the documented
// lost-version semantics apply.
func (p *Pool) fetchShard(shard int, exclude *endpoint, varName string, version int) ([]*field.BoxData, bool) {
	n := len(p.eps)
	failed := false
	for j := 0; j < p.replicas; j++ {
		src := p.eps[(shard+j)%n]
		if src == exclude || p.isDown(src) {
			continue
		}
		name := replicaName(varName, shard, j)
		blocks, err := p.fetchFrom(src, name, version)
		switch {
		case err == nil:
			p.opOK(src)
			return blocks, true
		case errors.Is(err, ErrNotFound):
			p.opOK(src)
			return nil, true
		default:
			p.opFail(src)
			failed = true
		}
	}
	return nil, !failed
}

// fetchFrom reads every block of name@version from src for a repair pass.
// With workers the read runs on src's own worker so it is ordered behind
// the replica write of any put whose primary-side write the repairing
// endpoint has already seen (Put enqueues replicas first) — a direct client
// call here could read the replica variable an instant before that write
// lands and the repair would silently drop the block. The job goes straight
// onto src's queue, skipping the execution semaphore, and the repair's own
// slot is handed back while it waits: concurrent repairs each hold one
// slot, so borrowing a second could exhaust the pool and deadlock the
// workers against each other. Down sources are filtered by the caller, so
// src's worker is never parked in a repair of its own and the queue drains.
// Inline the repair already runs inside the one admitted operation, so the
// read is a direct call.
func (p *Pool) fetchFrom(src *endpoint, name string, version int) (blocks []*field.BoxData, err error) {
	read := func() { blocks, err = src.client.GetBlocks(name, version, allRegion) }
	if p.inline() {
		read()
		return blocks, err
	}
	done := make(chan struct{})
	src.jobs <- func() {
		read()
		close(done)
	}
	<-p.sem // hand back the repair's execution slot while waiting
	<-done
	p.sem <- struct{}{}
	return blocks, err
}
