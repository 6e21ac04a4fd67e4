package staging

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"crosslayer/internal/field"
	"crosslayer/internal/grid"
	"crosslayer/internal/obs"
	"crosslayer/internal/obs/span"
)

// TCP transport for the staging space: a Server exposes a Space over a
// stream socket with a small binary protocol, and a Client gives remote
// processes the same Put/GetBlocks/DropBefore operations the in-process
// API offers. This is the deployment shape of a real staging service —
// dedicated staging nodes running servers, simulation ranks connecting as
// clients — realized with the stdlib net package.
//
// The staging area is a shared, failure-prone resource, so the client is
// resilient by default: every operation runs under a deadline, transport
// failures trigger bounded exponential-backoff retries with a transparent
// reconnect (the protocol is one request per round trip, so a retry is
// always a clean replay), and once the retry budget is exhausted the typed
// ErrStagingUnavailable surfaces so callers — the workflow's middleware
// layer above all — can degrade to in-situ execution instead of hanging.
//
// Protocol (little-endian), one request per round trip:
//
//	request:  op uint8 | varLen uint16 | var bytes | version int32 | body
//	  opPut   body = seq int64 | one wire-format block (seq identifies the
//	          logical put: a replayed request replaces, not duplicates)
//	  opGet   body = region box (6×int32)
//	  opDrop  body = empty (drops versions < version)
//	  opStat  body = empty
//	response: status uint8 | body
//	  opPut   -
//	  opGet   count uint32 | count wire-format blocks
//	  opDrop  freed int64
//	  opStat  used int64
//
// Trace-context extension: a client carrying an active span scope sets the
// opFlagTrace bit on the op byte and inserts a fixed 16-byte header —
// trace uint64 | parent-span uint64, little-endian — between the version
// and the body. A traced server parents its per-request child span under
// those IDs. The extension is strictly opt-in per deployment: a client with
// no span scope emits the exact pre-extension byte stream, so old servers
// interoperate with new clients (and a new server serves unflagged requests
// with no child spans, so old clients interoperate too). Stamping the
// extension at a server that predates it is a configuration error — the
// old server rejects the flagged op byte as an unknown op.
const (
	opPut  = 1
	opGet  = 2
	opDrop = 3
	opStat = 4
	// opManifest asks the server to advertise its content manifest plus
	// per-entry encoded byte totals (see Client.Manifest) — what a pool
	// uses to turn rejoin repair into a manifest-diff delta. Request: empty
	// var, version 0, empty body. Response: status | mlen uint32 | XLM1
	// manifest | entryCount × int64 byte totals (little-endian, in the
	// manifest's sorted entry order).
	opManifest = 5

	// opFlagTrace marks a request carrying the trace-context extension.
	opFlagTrace = 0x80

	statusOK       = 0
	statusNotFound = 1
	statusNoMemory = 2
	statusBad      = 3
	statusQuota    = 4

	maxVarName = 256 // longest variable name a request or an XLM1 manifest carries
)

// The framing's little-endian scalars: sequence numbers and byte totals are
// int64, counts and lengths uint32. Fixed-size fields are built in the
// writer's free buffer space and read out of the reader's buffer, so the
// framing around a block allocates nothing.
func writeU32(w *bufio.Writer, v uint32) error {
	_, err := w.Write(binary.LittleEndian.AppendUint32(w.AvailableBuffer(), v))
	return err
}

func writeI64(w *bufio.Writer, v int64) error {
	_, err := w.Write(binary.LittleEndian.AppendUint64(w.AvailableBuffer(), uint64(v)))
	return err
}

// readFixed consumes the next n bytes of r (n at most r's buffer size) and
// returns them in place; they are valid until the next read from r.
func readFixed(r *bufio.Reader, n int) ([]byte, error) {
	b, err := r.Peek(n)
	if err != nil {
		return nil, err
	}
	r.Discard(n) // cannot fail: Peek has just buffered n bytes
	return b, nil
}

func readU32(r *bufio.Reader) (uint32, error) {
	b, err := readFixed(r, 4)
	if err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint32(b), nil
}

func readI64(r *bufio.Reader) (int64, error) {
	b, err := readFixed(r, 8)
	if err != nil {
		return 0, err
	}
	return int64(binary.LittleEndian.Uint64(b)), nil
}

// traceExtSize is the wire size of the trace-context extension.
const traceExtSize = 16

// traceExt is the decoded trace-context request-header extension.
type traceExt struct {
	Trace  uint64 // trace ID (zero = no active trace; never stamped)
	Parent uint64 // parent span ID for server-side child spans
}

// encodeTraceExt renders ext into its fixed wire form.
func encodeTraceExt(ext traceExt) [traceExtSize]byte {
	var b [traceExtSize]byte
	binary.LittleEndian.PutUint64(b[0:], ext.Trace)
	binary.LittleEndian.PutUint64(b[8:], ext.Parent)
	return b
}

// decodeTraceExt parses the fixed wire form (decode ∘ encode ≡ identity —
// fuzz-enforced by FuzzSpanWireHeader).
func decodeTraceExt(b [traceExtSize]byte) traceExt {
	return traceExt{
		Trace:  binary.LittleEndian.Uint64(b[0:]),
		Parent: binary.LittleEndian.Uint64(b[8:]),
	}
}

// ErrProtocol reports a malformed or unexpected protocol exchange.
var ErrProtocol = errors.New("staging: protocol error")

// ErrStagingUnavailable reports that an operation's full retry budget was
// exhausted without one clean round trip: the staging service is
// unreachable, dead, or too degraded to use. The workflow treats it as a
// placement signal and falls back to in-situ analysis.
var ErrStagingUnavailable = errors.New("staging: service unavailable")

// ServerOptions tunes a staging server's admission control. The zero value
// preserves the historical behavior: every connection is accepted and
// served immediately, with no bound.
type ServerOptions struct {
	// MaxConns caps the connections served concurrently (≤0 = unlimited).
	MaxConns int

	// Backlog bounds the accept backlog: up to Backlog connections accepted
	// while all MaxConns slots are busy wait for a slot, each taking the
	// next one freed. A connection arriving with Backlog already waiting is
	// shed — closed immediately with a deterministic refuse-with-reason
	// event. Ignored when MaxConns ≤ 0.
	Backlog int

	// Events, when set, receives one structured event per shed connection
	// and per quota-rejected put (attributed by tenant).
	Events *obs.Emitter

	// Metrics, when set, registers the server's transport metrics in this
	// registry: requests served by op, raw bytes in/out, the active-connection
	// gauge, the admission counters AdmissionStats reads — and, for a durable
	// server, the space's xlayer_staging_wal_* instruments. Without it the
	// server does no per-request or per-byte metric work; only the admission
	// counters stay live, unregistered.
	Metrics *obs.Registry

	// DataDir, when set, makes the server durable: the space is persisted
	// under this directory (write-ahead log + snapshot compaction, see
	// wal.go) and a previous incarnation's state is recovered from it at
	// construction.
	DataDir string

	// ServerID names this server inside its data dir's file headers, so a
	// dir can never be recovered by a differently-configured server
	// (default "staging").
	ServerID string

	// RequestHook, when set, is called with each request's op byte after
	// the header is decoded and before the request is served — test
	// instrumentation for holding a handler in flight (e.g. to prove
	// Shutdown drains it).
	RequestHook func(op byte)
}

// Server serves a Space over TCP.
type Server struct {
	space *Space
	ln    net.Listener
	wg    sync.WaitGroup
	opts  ServerOptions

	// Admission control (nil slots = unlimited): a connection is served
	// only while holding a slot; waiting counts the connections whose
	// handlers wait for one. done is closed when the server stops.
	slots   chan struct{}
	waiting atomic.Int32
	done    chan struct{}

	// The admission book, registered in ServerOptions.Metrics when given and
	// live-but-unregistered otherwise, so update sites never branch: the
	// admitted/queued counters, and the shed and quota-rejected counts the
	// event table keeps for admission_shed and quota_rejected.
	admAdmitted, admQueued *obs.Counter
	counts                 *obs.Counts

	metrics *serverMetrics // per-request/per-byte instruments; nil without a registry
	tracer  atomic.Pointer[span.Tracer]

	// draining is set when the server stops: handlers finish the request
	// they are serving, then exit instead of reading another.
	draining  atomic.Bool
	recovered *RecoverStats // non-nil when DataDir recovery ran

	mu     sync.Mutex
	closed bool
	conns  map[net.Conn]*atomic.Bool // per-conn mid-request flag
}

// opNames names the request ops, indexed by op byte, in server spans and
// the per-op request counter.
var opNames = [...]string{opPut: "put", opGet: "get", opDrop: "drop", opStat: "stat", opManifest: "manifest"}

// opName renders an op byte for span names and errors.
func opName(op byte) string {
	if op == 0 || int(op) >= len(opNames) {
		return "unknown"
	}
	return opNames[op]
}

// serverMetrics is the per-request and per-byte instrument set of a server
// built with ServerOptions.Metrics.
type serverMetrics struct {
	requests          [len(opNames)]*obs.Counter // by op; [0] counts unknown ops
	bytesIn, bytesOut *obs.Counter
	activeConns       *obs.Gauge
}

// count tallies one decoded request by op.
func (m *serverMetrics) count(op byte) {
	if int(op) >= len(m.requests) {
		op = 0
	}
	m.requests[op].Inc()
}

// initMetrics binds the server's instruments to opts.Metrics. The admission
// counters are always live (a nil registry hands out unregistered ones);
// everything per request or per byte exists only with a registry.
func (s *Server) initMetrics() {
	reg := s.opts.Metrics
	s.admAdmitted = reg.Counter("xlayer_staging_admission_admitted_total",
		"Connections admitted for service by the staging server.")
	s.admQueued = reg.Counter("xlayer_staging_admission_queued_total",
		"Connections parked in the bounded accept backlog.")
	s.counts = obs.NewCounts(reg, obs.KindAdmissionShed, obs.KindQuotaRejected)
	if reg == nil {
		return
	}
	if s.opts.DataDir != "" {
		s.space.ObserveWAL(reg)
	}
	const reqName = "xlayer_staging_server_requests_total"
	const reqHelp = "Requests served by the staging server, by operation."
	m := &serverMetrics{}
	for op := 1; op < len(opNames); op++ {
		m.requests[op] = reg.Counter(reqName, reqHelp, "op", opNames[op])
	}
	m.requests[0] = reg.Counter(reqName, reqHelp, "op", "other")
	m.bytesIn = reg.Counter("xlayer_staging_server_bytes_in_total",
		"Raw bytes read from staging clients.")
	m.bytesOut = reg.Counter("xlayer_staging_server_bytes_out_total",
		"Raw bytes written to staging clients.")
	m.activeConns = reg.Gauge("xlayer_staging_server_active_conns",
		"Client connections currently being served.")
	s.metrics = m
}

// Trace installs a tracer for server-side child spans: every request that
// carries the trace-context extension emits one span for its decode/store
// (or read/encode) work, parented under the wire-propagated trace and
// parent-span IDs. Requests without the extension emit nothing — old
// clients stay span-silent. A nil tracer is ignored.
func (s *Server) Trace(tr *span.Tracer) {
	if tr == nil {
		return
	}
	s.tracer.Store(tr)
}

// countingConn tallies raw connection traffic into the server's counters.
type countingConn struct {
	net.Conn
	in, out *obs.Counter
}

func (c *countingConn) Read(b []byte) (int, error) {
	n, err := c.Conn.Read(b)
	c.in.Add(float64(n))
	return n, err
}

// Write counts b before writing it: the peer can read the bytes, and a
// scrape it sends next can arrive, before Write returns. The unwritten tail
// of a short write is taken back.
func (c *countingConn) Write(b []byte) (int, error) {
	c.out.Add(float64(len(b)))
	n, err := c.Conn.Write(b)
	c.out.Retract(float64(len(b) - n))
	return n, err
}

// ServeOptions listens on addr (e.g. "127.0.0.1:0") and starts a server
// there — NewServer for callers that do not bring their own listener.
func ServeOptions(addr string, space *Space, opts ServerOptions) (*Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	return NewServer(ln, space, opts)
}

// NewServer starts a server on an existing listener — the hook
// fault-injection harnesses use to interpose a wrapped listener (e.g.
// faultnet.Listen). When opts.DataDir is set the space is persisted under it
// first — recovering a previous incarnation's write-ahead log and snapshot —
// and a recovery failure closes ln and is returned instead of serving over
// wrong state; without DataDir NewServer cannot fail.
func NewServer(ln net.Listener, space *Space, opts ServerOptions) (*Server, error) {
	var recovered *RecoverStats
	if opts.DataDir != "" {
		id := opts.ServerID
		if id == "" {
			id = "staging"
		}
		var err error
		recovered, err = space.Persist(opts.DataDir, id)
		if err != nil {
			ln.Close()
			return nil, err
		}
	}
	s := &Server{
		space:     space,
		ln:        ln,
		opts:      opts,
		recovered: recovered,
		conns:     make(map[net.Conn]*atomic.Bool),
		done:      make(chan struct{}),
	}
	s.initMetrics()
	if opts.MaxConns > 0 {
		s.slots = make(chan struct{}, opts.MaxConns)
	}
	s.wg.Add(1)
	go s.acceptLoop()
	return s, nil
}

// Addr returns the server's listen address.
func (s *Server) Addr() string { return s.ln.Addr().String() }

// RecoverStats reports what DataDir recovery restored at construction
// (nil for a non-durable server).
func (s *Server) RecoverStats() *RecoverStats { return s.recovered }

// Close stops accepting connections, severs in-flight ones, closes the
// connections still waiting for a slot unserved, and waits for every
// handler goroutine to exit. A handler blocked mid-request cannot outlive
// Close: its connection is closed under it. A durable server's WAL file
// descriptor is dropped without a final flush — the hard-stop twin of
// Shutdown's fsync-and-close — which loses nothing acked, because every
// acked put was fsynced at append time. Close is idempotent.
func (s *Server) Close() error { return s.stop(false) }

// Shutdown stops the server gracefully: it stops accepting, lets every
// handler finish the request it is currently serving (idle connections are
// interrupted, waiting ones closed unserved), waits for all of them, and —
// for a durable server — flushes, fsyncs, and closes the space's write-ahead
// log. A request whose header had not fully arrived when Shutdown began may
// be severed; everything the server started serving completes with its
// response delivered. Shutdown and Close are each idempotent and safe to
// call in either order; the first call wins.
func (s *Server) Shutdown() error { return s.stop(true) }

// stop is Close (graceful false) and Shutdown (graceful true). Marking the
// server closed and closing done makes every waiting connection give up
// unserved, never counted as admitted.
func (s *Server) stop(graceful bool) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	s.draining.Store(true)
	var interrupt []net.Conn
	for c, busy := range s.conns {
		if !graceful || !busy.Load() {
			interrupt = append(interrupt, c)
		}
	}
	s.mu.Unlock()
	close(s.done)
	err := s.ln.Close()
	for _, c := range interrupt {
		if graceful {
			// Expire the idle connection's pending header read; busy
			// handlers run their request to completion and exit on the
			// draining flag.
			c.SetReadDeadline(time.Now())
		} else {
			c.Close()
		}
	}
	s.wg.Wait()
	if s.opts.DataDir == "" {
		return err
	}
	if !graceful {
		s.space.CrashPersist()
	} else if cerr := s.space.ClosePersist(); err == nil {
		err = cerr
	}
	return err
}

// AdmissionStats reports the server's cumulative admission tallies:
// connections admitted for service, connections that waited in the accept
// backlog, connections shed (over both reasons), and puts rejected by
// tenant quota. It reads the admission counters themselves, so it cannot
// drift from the xlayer_staging_admission_* metrics — and servers handed
// one shared registry share those series, so each then reports the
// fleet-wide totals.
func (s *Server) AdmissionStats() (admitted, queued, shed, quotaRejected int64) {
	return int64(s.admAdmitted.Value()), int64(s.admQueued.Value()),
		int64(s.counts.Value(obs.KindAdmissionShed)), int64(s.counts.Value(obs.KindQuotaRejected))
}

// track registers conn for Close-time severing, returning its mid-request
// flag; it reports false when the server is already closed (the conn must
// be dropped, not served).
func (s *Server) track(conn net.Conn) (*atomic.Bool, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil, false
	}
	busy := &atomic.Bool{}
	s.conns[conn] = busy
	return busy, true
}

func (s *Server) untrack(conn net.Conn) {
	s.mu.Lock()
	delete(s.conns, conn)
	s.mu.Unlock()
}

func (s *Server) acceptLoop() {
	defer s.wg.Done()
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			s.mu.Lock()
			closed := s.closed
			s.mu.Unlock()
			if closed {
				return
			}
			continue // transient accept error
		}
		s.admit(conn)
	}
}

// admit routes one accepted connection through admission control: serve
// it while a slot is free, let it wait for one while fewer than Backlog
// connections wait, and shed it — close with a refuse-with-reason event —
// otherwise. With no MaxConns every connection is served.
func (s *Server) admit(conn net.Conn) {
	wait := false
	if s.slots != nil {
		select {
		case s.slots <- struct{}{}:
		default:
			if int(s.waiting.Load()) >= s.opts.Backlog {
				s.shed(conn)
				return
			}
			s.waiting.Add(1)
			s.admQueued.Inc()
			wait = true
		}
	}
	s.serveConn(conn, wait)
}

// shed refuses one connection deterministically: close it, then count and
// emit the structured refuse-with-reason event.
func (s *Server) shed(conn net.Conn) {
	conn.Close()
	reason := "max_conns"
	if s.opts.Backlog > 0 {
		reason = "backlog_full"
	}
	s.counts.Record(s.opts.Events, obs.AdmissionShed(reason, len(s.slots), int(s.waiting.Load())))
}

// serveConn spawns the handler goroutine for an accepted connection. The
// caller has acquired its slot (when admission is on) unless wait is set:
// then the handler first waits for a slot, and gives up unserved if the
// server stops first. A blocked send on slots takes the next slot freed,
// ahead of any connection accepted later. The handler releases its slot on
// exit.
func (s *Server) serveConn(conn net.Conn, wait bool) {
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		defer conn.Close()
		if wait {
			select {
			case s.slots <- struct{}{}:
				s.waiting.Add(-1)
			case <-s.done:
				s.waiting.Add(-1)
				return
			}
		}
		if s.slots != nil {
			defer func() { <-s.slots }()
		}
		busy, ok := s.track(conn)
		if !ok {
			return
		}
		defer s.untrack(conn)
		s.admAdmitted.Inc()
		served := conn
		if m := s.metrics; m != nil {
			m.activeConns.Add(1)
			defer m.activeConns.Add(-1)
			served = &countingConn{Conn: conn, in: m.bytesIn, out: m.bytesOut}
		}
		s.handle(served, busy)
	}()
}

// handle serves one connection until EOF, error, or drain. busy is raised
// while a request is mid-flight so Shutdown can tell handlers it may
// interrupt (idle, parked on the next header) from ones it must wait out.
func (s *Server) handle(conn net.Conn, busy *atomic.Bool) {
	r := bufio.NewReader(conn)
	w := bufio.NewWriter(conn)
	for {
		if s.draining.Load() {
			return
		}
		if err := s.handleOne(r, w, busy); err != nil {
			return // connection-level error or clean EOF
		}
		if err := w.Flush(); err != nil {
			return
		}
		busy.Store(false)
	}
}

func (s *Server) handleOne(r *bufio.Reader, w *bufio.Writer, busy *atomic.Bool) error {
	hdr, err := readFixed(r, 3)
	if err != nil {
		return err
	}
	busy.Store(true)
	op, traced := hdr[0]&^opFlagTrace, hdr[0]&opFlagTrace != 0
	varLen := int(binary.LittleEndian.Uint16(hdr[1:]))
	if s.metrics != nil {
		s.metrics.count(op)
	}
	if s.opts.RequestHook != nil {
		s.opts.RequestHook(op)
	}
	if varLen > maxVarName {
		return fmt.Errorf("%w: variable name too long", ErrProtocol)
	}
	name, err := readFixed(r, varLen)
	if err != nil {
		return err
	}
	varName := string(name)
	ver, err := readU32(r)
	if err != nil {
		return err
	}
	version := int(int32(ver))

	var ext traceExt
	if traced {
		b, err := readFixed(r, traceExtSize)
		if err != nil {
			return err
		}
		ext = decodeTraceExt([traceExtSize]byte(b))
	}
	if tr := s.tracer.Load(); tr != nil && ext.Trace != 0 {
		t0 := tr.NowNs()
		err := s.dispatch(op, varName, version, r, w)
		tr.RecordRemote(ext.Trace, ext.Parent, span.Op{
			Name:   "srv:" + opName(op),
			Layer:  span.LayerStagingExec,
			ExecNs: tr.NowNs() - t0,
			Err:    srvErrLabel(err),
			Detail: fmt.Sprintf("var=%s version=%d", varName, version),
		})
		return err
	}
	return s.dispatch(op, varName, version, r, w)
}

// srvErrLabel reduces a dispatch error to a stable label for server spans.
func srvErrLabel(err error) string {
	switch {
	case err == nil:
		return ""
	case errors.Is(err, ErrProtocol):
		return "protocol error"
	}
	return "transport error"
}

// dispatch serves one decoded request header's body and response.
func (s *Server) dispatch(op byte, varName string, version int, r *bufio.Reader, w *bufio.Writer) error {
	switch op {
	case opPut:
		seq, err := readI64(r)
		if err != nil {
			return err
		}
		d, err := DecodeBlock(r)
		if err != nil {
			if errors.Is(err, ErrBadBlock) {
				w.WriteByte(statusBad)
				return nil
			}
			return err
		}
		switch err := s.space.PutSeq(varName, version, seq, d); {
		case errors.Is(err, ErrQuotaExceeded):
			s.counts.Record(s.opts.Events, obs.QuotaRejected(TenantOf(varName), varName, d.Bytes()))
			return w.WriteByte(statusQuota)
		case errors.Is(err, ErrNoMemory):
			return w.WriteByte(statusNoMemory)
		case err != nil:
			return w.WriteByte(statusBad)
		default:
			return w.WriteByte(statusOK)
		}

	case opGet:
		boxBuf, err := readFixed(r, boxWireSize)
		if err != nil {
			return err
		}
		blocks, err := s.space.GetBlocks(varName, version, getBox(boxBuf))
		if errors.Is(err, ErrNotFound) {
			return w.WriteByte(statusNotFound)
		}
		if err != nil {
			return w.WriteByte(statusBad)
		}
		if err := w.WriteByte(statusOK); err != nil {
			return err
		}
		if err := writeU32(w, uint32(len(blocks))); err != nil {
			return err
		}
		for _, b := range blocks {
			if err := EncodeBlock(w, b); err != nil {
				return err
			}
		}
		return nil

	case opDrop:
		freed, err := s.space.DropBefore(varName, version)
		if err != nil {
			return w.WriteByte(statusBad)
		}
		if err := w.WriteByte(statusOK); err != nil {
			return err
		}
		return writeI64(w, freed)

	case opStat:
		if err := w.WriteByte(statusOK); err != nil {
			return err
		}
		return writeI64(w, s.space.MemUsed())

	case opManifest:
		m, sizes := s.space.ContentManifestSized()
		raw, err := EncodeManifest(m)
		if err != nil {
			return w.WriteByte(statusBad)
		}
		if err := w.WriteByte(statusOK); err != nil {
			return err
		}
		if err := writeU32(w, uint32(len(raw))); err != nil {
			return err
		}
		if _, err := w.Write(raw); err != nil {
			return err
		}
		for _, sz := range sizes {
			if err := writeI64(w, sz); err != nil {
				return err
			}
		}
		return nil
	}
	return fmt.Errorf("%w: unknown op %d", ErrProtocol, op)
}

// ClientOptions tunes the client's resilience behavior. The zero value
// selects the defaults noted on each field.
type ClientOptions struct {
	// OpTimeout bounds one attempt of one operation, reconnect included
	// (default 10s).
	OpTimeout time.Duration

	// MaxRetries is how many times a failed operation is retried after the
	// first attempt (default 3; negative disables retries entirely).
	MaxRetries int

	// BackoffBase is the first retry's delay; each further retry doubles it
	// up to BackoffMax (defaults 5ms and 250ms).
	BackoffBase time.Duration
	BackoffMax  time.Duration

	// DialFunc replaces the transport dial — fault-injection harnesses use
	// it to interpose a faultnet wrapper (default net.DialTimeout over tcp).
	DialFunc func(addr string, timeout time.Duration) (net.Conn, error)

	// Metrics, when set, registers the client's cumulative retry/reconnect
	// counters (xlayer_staging_client_*) in this registry.
	Metrics *obs.Registry
}

func (o ClientOptions) withDefaults() ClientOptions {
	if o.OpTimeout == 0 {
		o.OpTimeout = 10 * time.Second
	}
	if o.MaxRetries == 0 {
		o.MaxRetries = 3
	}
	if o.MaxRetries < 0 {
		o.MaxRetries = 0
	}
	if o.BackoffBase == 0 {
		o.BackoffBase = 5 * time.Millisecond
	}
	if o.BackoffMax == 0 {
		o.BackoffMax = 250 * time.Millisecond
	}
	if o.DialFunc == nil {
		o.DialFunc = func(addr string, timeout time.Duration) (net.Conn, error) {
			return net.DialTimeout("tcp", addr, timeout)
		}
	}
	return o
}

// Client talks to a staging Server. It is safe for concurrent use; requests
// on one client serialize over its single connection. Transport failures
// are retried with reconnect under the client's options; application-level
// outcomes (ErrNotFound, ErrNoMemory) are returned as-is.
type Client struct {
	addr string
	opts ClientOptions

	retries    atomic.Int64 // retry attempts across all operations
	reconnects atomic.Int64 // re-dials after a failure that carried a reply
	seq        atomic.Int64 // last logical-put sequence number issued
	seqBase    int64        // this client's slice of the process seq space

	// Wire trace context (SetSpanScope): stamped into the request-header
	// extension while traceID is nonzero.
	traceID  atomic.Uint64
	parentID atomic.Uint64

	// The table's staging_retry/staging_reconnect counters, shared with
	// every client on the same registry (live but unregistered when
	// ClientOptions.Metrics is nil, so no branching); retries/reconnects
	// above are this client's own.
	counts *obs.Counts

	mu        sync.Mutex
	conn      net.Conn
	r         *bufio.Reader
	w         *bufio.Writer
	connected bool // a connection has been established at least once
	closed    bool
}

// clientSeqSlices hands each client in this process a disjoint 2^32-wide
// slice of the sequence space, so concurrent clients writing the same
// variable never dedupe each other's puts. Clients in different processes
// are distinguished by their separate connections' write ordering only;
// cross-process seq collisions would need 2^32 puts from one client.
var clientSeqSlices atomic.Int64

func newSeqBase() int64 { return clientSeqSlices.Add(1) << 32 }

// Dial connects to a staging server with default resilience options.
func Dial(addr string) (*Client, error) {
	return DialOptions(addr, ClientOptions{})
}

// NewClient builds a client without dialing: the first operation connects
// lazily under the retry policy. Use it when the server may legitimately be
// unreachable at construction time (fault-injection runs) and failures
// should surface as ErrStagingUnavailable per operation instead.
func NewClient(addr string, opts ClientOptions) *Client {
	opts = opts.withDefaults()
	return &Client{addr: addr, opts: opts, seqBase: newSeqBase(),
		counts: obs.NewCounts(opts.Metrics, obs.KindStagingRetry, obs.KindStagingReconnect)}
}

// DialOptions connects to a staging server with explicit options. The
// initial connection attempt runs under OpTimeout and its failure is
// returned immediately (no retry): a server that was never there is a
// configuration error, not a transient fault.
func DialOptions(addr string, opts ClientOptions) (*Client, error) {
	c := NewClient(addr, opts)
	conn, err := c.opts.DialFunc(addr, c.opts.OpTimeout)
	if err != nil {
		return nil, err
	}
	c.attach(conn)
	return c, nil
}

// attach installs conn as the client's current connection.
func (c *Client) attach(conn net.Conn) {
	c.conn = conn
	c.r = bufio.NewReader(conn)
	c.w = bufio.NewWriter(conn)
	c.connected = true
}

// dropConnLocked severs the current connection after a failure so the next
// attempt starts from a clean dial (the stream may be desynced mid-message).
func (c *Client) dropConnLocked() {
	if c.conn != nil {
		c.conn.Close()
		c.conn = nil
		c.r, c.w = nil, nil
	}
}

// Close closes the connection; operations in flight or issued later fail
// with net.ErrClosed.
func (c *Client) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.closed = true
	if c.conn == nil {
		return nil
	}
	err := c.conn.Close()
	c.conn = nil
	c.r, c.w = nil, nil
	return err
}

// TransportStats reports the cumulative retry and reconnect counts — the
// observability hook the workflow copies into its per-step trace records.
func (c *Client) TransportStats() (retries, reconnects int64) {
	return c.retries.Load(), c.reconnects.Load()
}

// SetSpanScope installs the trace context stamped into subsequent requests'
// header extension: the current phase span's (trace, span) IDs, under which
// a traced server parents its per-request child spans. A zero trace
// disables stamping and restores the exact pre-extension byte stream —
// required when the server predates the extension, which rejects flagged
// ops as unknown.
func (c *Client) SetSpanScope(trace, parent uint64) {
	c.traceID.Store(trace)
	c.parentID.Store(parent)
}

// errDetail reduces a transport error to a stable, address-free label for
// the event stream: raw net errors embed ephemeral ports, which would stop
// seeded fault runs from reproducing their event log byte for byte.
func errDetail(err error) string {
	switch {
	case err == nil:
		return ""
	case errors.Is(err, os.ErrDeadlineExceeded):
		return "op timeout"
	case errors.Is(err, syscall.ECONNREFUSED):
		return "connection refused"
	case errors.Is(err, syscall.ECONNRESET):
		return "connection reset"
	case errors.Is(err, io.EOF), errors.Is(err, io.ErrUnexpectedEOF),
		errors.Is(err, net.ErrClosed):
		return "connection closed"
	}
	// Injected faults describe themselves deterministically.
	if s := err.Error(); strings.Contains(s, "faultnet: ") {
		return s[strings.Index(s, "faultnet: "):]
	}
	var oe *net.OpError
	if errors.As(err, &oe) {
		return oe.Op + " failed"
	}
	return "transport error"
}

// do runs op, a request on varName, under the retry policy: each attempt
// gets a fresh per-op deadline; any transport or protocol error drops the
// connection, backs off, re-dials and replays. Application-level results
// (nil, ErrNotFound, ErrNoMemory, ErrQuotaExceeded) end the loop
// immediately. When the budget is exhausted the last error is wrapped in
// ErrStagingUnavailable. A name longer than the wire carries is the
// caller's error, not the link's: it fails with ErrBadBlock, unsent.
func (c *Client) do(varName string, op func() error) error {
	if len(varName) > maxVarName {
		return fmt.Errorf("%w: variable name of %d bytes, the wire carries at most %d", ErrBadBlock, len(varName), maxVarName)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	var lastErr error
	for attempt := 0; attempt <= c.opts.MaxRetries; attempt++ {
		if c.closed {
			return net.ErrClosed
		}
		if attempt > 0 {
			c.retries.Add(1)
			c.counts.Record(nil, obs.StagingRetry(attempt, errDetail(lastErr)))
			backoff := c.opts.BackoffMax
			if shift := attempt - 1; shift < 20 {
				if b := c.opts.BackoffBase << shift; b < backoff {
					backoff = b
				}
			}
			time.Sleep(backoff)
		}
		// Only a dial after an established connection was lost is a
		// re-dial (a lazily-built client's first dial is its initial
		// connection), and it counts as a reconnect once the new connection
		// has carried a reply: a server that accepts and at once closes was
		// not reconnected to.
		redial := false
		if c.conn == nil {
			conn, err := c.opts.DialFunc(c.addr, c.opts.OpTimeout)
			if err != nil {
				lastErr = err
				continue
			}
			redial = c.connected
			c.attach(conn)
		}
		c.conn.SetDeadline(time.Now().Add(c.opts.OpTimeout))
		err := op()
		if err == nil || errors.Is(err, ErrNotFound) || errors.Is(err, ErrNoMemory) ||
			errors.Is(err, ErrQuotaExceeded) {
			c.conn.SetDeadline(time.Time{})
			if redial {
				c.reconnects.Add(1)
				c.counts.Record(nil, obs.StagingReconnect())
			}
			return err
		}
		lastErr = err
		c.dropConnLocked()
	}
	return fmt.Errorf("%w: %d attempts failed, last: %v", ErrStagingUnavailable, c.opts.MaxRetries+1, lastErr)
}

// writeHeader frames a request header; do has checked that varName fits.
func (c *Client) writeHeader(op byte, varName string, version int) error {
	trace := c.traceID.Load()
	if trace != 0 {
		op |= opFlagTrace
	}
	hdr := append(c.w.AvailableBuffer(), op)
	hdr = binary.LittleEndian.AppendUint16(hdr, uint16(len(varName)))
	hdr = append(hdr, varName...)
	hdr = binary.LittleEndian.AppendUint32(hdr, uint32(int32(version)))
	if trace != 0 {
		ext := encodeTraceExt(traceExt{Trace: trace, Parent: c.parentID.Load()})
		hdr = append(hdr, ext[:]...)
	}
	_, err := c.w.Write(hdr)
	return err
}

func (c *Client) readStatus() (byte, error) {
	if err := c.w.Flush(); err != nil {
		return statusBad, err
	}
	return c.r.ReadByte()
}

// Put stores a block of varName at version on the server. Each call is one
// logical put with a sequence number fixed across its retries, so a replay
// after a lost response replaces the stored block instead of duplicating it.
func (c *Client) Put(varName string, version int, d *field.BoxData) error {
	return c.put(varName, version, c.seqBase+c.seq.Add(1), d)
}

// PutRepair stores a block restored by the pool's anti-entropy repair. The
// sequence number is negated so the server can tell a restored copy from a
// first-hand write: a normal put racing the repair of its own block then
// replaces the restored copy instead of duplicating it, while the unique
// magnitude keeps retries idempotent.
func (c *Client) PutRepair(varName string, version int, d *field.BoxData) error {
	return c.put(varName, version, -(c.seqBase + c.seq.Add(1)), d)
}

// put runs one logical put under the retry policy. A block or name the wire
// format cannot carry is the caller's error, not the link's: it fails with
// ErrBadBlock before the request header goes out and is not retried. (A
// response that fails to decode is ErrBadBlock too, but that is a damaged
// stream, which do drops and retries.)
func (c *Client) put(varName string, version int, seq int64, d *field.BoxData) error {
	if err := checkBlock(d); err != nil {
		return err
	}
	return c.do(varName, func() error { return c.sendPut(varName, version, seq, d) })
}

// sendPut writes one put request and reads its status.
func (c *Client) sendPut(varName string, version int, seq int64, d *field.BoxData) error {
	if err := c.writeHeader(opPut, varName, version); err != nil {
		return err
	}
	if err := writeI64(c.w, seq); err != nil {
		return err
	}
	if err := EncodeBlock(c.w, d); err != nil {
		return err
	}
	st, err := c.readStatus()
	if err != nil {
		return err
	}
	switch st {
	case statusOK:
		return nil
	case statusNoMemory:
		return ErrNoMemory
	case statusQuota:
		return ErrQuotaExceeded
	default:
		return fmt.Errorf("%w: put status %d", ErrProtocol, st)
	}
}

// GetBlocks fetches the stored blocks of varName at version intersecting
// region.
func (c *Client) GetBlocks(varName string, version int, region grid.Box) ([]*field.BoxData, error) {
	var out []*field.BoxData
	err := c.do(varName, func() error {
		var err error
		out, err = c.getBlocks(varName, version, region)
		return err
	})
	return out, err
}

func (c *Client) getBlocks(varName string, version int, region grid.Box) ([]*field.BoxData, error) {
	if err := c.writeHeader(opGet, varName, version); err != nil {
		return nil, err
	}
	if _, err := c.w.Write(appendBox(c.w.AvailableBuffer(), region)); err != nil {
		return nil, err
	}
	st, err := c.readStatus()
	if err != nil {
		return nil, err
	}
	switch st {
	case statusNotFound:
		return nil, ErrNotFound
	case statusOK:
	default:
		return nil, fmt.Errorf("%w: get status %d", ErrProtocol, st)
	}
	n, err := readU32(c.r)
	if err != nil {
		return nil, err
	}
	if n > 1<<20 {
		return nil, fmt.Errorf("%w: absurd block count %d", ErrProtocol, n)
	}
	out := make([]*field.BoxData, 0, n)
	for i := uint32(0); i < n; i++ {
		b, err := DecodeBlock(c.r)
		if err != nil {
			return nil, err
		}
		out = append(out, b)
	}
	return out, nil
}

// DropBefore evicts versions of varName below version, returning bytes
// freed on the server.
func (c *Client) DropBefore(varName string, version int) (int64, error) {
	return c.scalar(opDrop, varName, version)
}

// MemUsed reports the server's total stored bytes.
func (c *Client) MemUsed() (int64, error) { return c.scalar(opStat, "", 0) }

// scalar runs an op whose whole reply is a status and one int64.
func (c *Client) scalar(op byte, varName string, version int) (out int64, err error) {
	err = c.do(varName, func() error {
		if err := c.writeHeader(op, varName, version); err != nil {
			return err
		}
		st, err := c.readStatus()
		if err != nil {
			return err
		}
		if st != statusOK {
			return fmt.Errorf("%w: %s status %d", ErrProtocol, opName(op), st)
		}
		out, err = readI64(c.r)
		return err
	})
	return out, err
}

// Manifest fetches the server's advertised content manifest plus each
// entry's total encoded payload bytes (aligned with the sorted entries) —
// what the pool's rejoin repair diffs against its expectation to ship only
// the blocks the server is actually missing. A pre-manifest server rejects
// the op by dropping the connection, which surfaces here as
// ErrStagingUnavailable; callers treat that as "no advertisement" and fall
// back to full repair.
func (c *Client) Manifest() (Manifest, []int64, error) {
	var m Manifest
	var sizes []int64
	err := c.do("", func() error {
		var err error
		m, sizes, err = c.manifest()
		return err
	})
	return m, sizes, err
}

func (c *Client) manifest() (Manifest, []int64, error) {
	if err := c.writeHeader(opManifest, "", 0); err != nil {
		return Manifest{}, nil, err
	}
	st, err := c.readStatus()
	if err != nil {
		return Manifest{}, nil, err
	}
	if st != statusOK {
		return Manifest{}, nil, fmt.Errorf("%w: manifest status %d", ErrProtocol, st)
	}
	n, err := readU32(c.r)
	if err != nil {
		return Manifest{}, nil, err
	}
	if n > 64<<20 {
		return Manifest{}, nil, fmt.Errorf("%w: absurd manifest size %d", ErrProtocol, n)
	}
	raw := make([]byte, n)
	if _, err := io.ReadFull(c.r, raw); err != nil {
		return Manifest{}, nil, err
	}
	m, err := DecodeManifest(raw)
	if err != nil {
		return Manifest{}, nil, fmt.Errorf("%w: %v", ErrProtocol, err)
	}
	sizes := make([]int64, len(m.Entries))
	for i := range sizes {
		if sizes[i], err = readI64(c.r); err != nil {
			return Manifest{}, nil, err
		}
		if sizes[i] < 0 {
			return Manifest{}, nil, fmt.Errorf("%w: negative entry size", ErrProtocol)
		}
	}
	return m, sizes, nil
}
