package staging

import (
	"bytes"
	"encoding/binary"
	"io"
	"net"
	"testing"
	"time"

	"crosslayer/internal/faultnet"
	"crosslayer/internal/field"
	"crosslayer/internal/grid"
	"crosslayer/internal/obs/span"
)

// FuzzSpanWireHeader pins decode∘encode identity on the trace-context
// request-header extension, in both directions: any (trace, parent) pair
// survives the wire round trip, and any 16 raw bytes decode to an extension
// that re-encodes to the same bytes.
func FuzzSpanWireHeader(f *testing.F) {
	f.Add(uint64(0), uint64(0))
	f.Add(uint64(1), uint64(0xdeadbeef))
	f.Add(^uint64(0), ^uint64(0))
	f.Add(uint64(0xcbf29ce484222325), uint64(0x100000001b3))
	f.Fuzz(func(t *testing.T, trace, parent uint64) {
		ext := traceExt{Trace: trace, Parent: parent}
		wire := encodeTraceExt(ext)
		if got := decodeTraceExt(wire); got != ext {
			t.Fatalf("decode(encode(%+v)) = %+v", ext, got)
		}
		// The other direction: bytes → ext → same bytes.
		if again := encodeTraceExt(decodeTraceExt(wire)); again != wire {
			t.Fatalf("encode(decode(%x)) = %x", wire, again)
		}
	})
}

// oldDropRequest hand-builds the pre-extension wire format of a DropBefore
// request — the byte stream an old client emits and an old server expects.
func oldDropRequest(varName string, version int) []byte {
	var buf bytes.Buffer
	buf.WriteByte(opDrop)
	var l [2]byte
	binary.LittleEndian.PutUint16(l[:], uint16(len(varName)))
	buf.Write(l[:])
	buf.WriteString(varName)
	var v [4]byte
	binary.LittleEndian.PutUint32(v[:], uint32(int32(version)))
	buf.Write(v[:])
	return buf.Bytes()
}

// TestUntracedClientEmitsOldWireFormat is the new-client ↔ old-server half
// of the interop contract: a client with no span scope must produce the
// exact pre-extension byte stream, so a server that predates the extension
// parses it unchanged. Asserted by byte equality against the hand-built old
// format, not by behavior — any stray flag bit or inserted byte fails.
func TestUntracedClientEmitsOldWireFormat(t *testing.T) {
	cliConn, srvConn := net.Pipe()
	c := NewClient("pipe", ClientOptions{
		OpTimeout:  2 * time.Second,
		MaxRetries: -1,
		DialFunc:   func(addr string, _ time.Duration) (net.Conn, error) { return cliConn, nil },
	})
	defer c.Close()

	want := oldDropRequest("rho", 7)
	done := make(chan error, 1)
	go func() {
		got := make([]byte, len(want))
		if _, err := io.ReadFull(srvConn, got); err != nil {
			done <- err
			return
		}
		if !bytes.Equal(got, want) {
			t.Errorf("untraced request bytes:\n got %x\nwant %x", got, want)
		}
		resp := append([]byte{statusOK}, make([]byte, 8)...)
		_, err := srvConn.Write(resp)
		done <- err
	}()
	if _, err := c.DropBefore("rho", 7); err != nil {
		t.Fatalf("drop over pipe: %v", err)
	}
	if err := <-done; err != nil {
		t.Fatalf("pipe server: %v", err)
	}
}

// TestTracedClientStampsExtension pins the flagged wire shape: with a span
// scope installed the op byte carries opFlagTrace and the 16-byte extension
// sits between the version field and the body.
func TestTracedClientStampsExtension(t *testing.T) {
	cliConn, srvConn := net.Pipe()
	c := NewClient("pipe", ClientOptions{
		OpTimeout:  2 * time.Second,
		MaxRetries: -1,
		DialFunc:   func(addr string, _ time.Duration) (net.Conn, error) { return cliConn, nil },
	})
	defer c.Close()
	c.SetSpanScope(0xabc, 0xdef)

	old := oldDropRequest("rho", 7)
	want := make([]byte, 0, len(old)+traceExtSize)
	want = append(want, old[0]|opFlagTrace)
	want = append(want, old[1:]...)
	ext := encodeTraceExt(traceExt{Trace: 0xabc, Parent: 0xdef})
	want = append(want, ext[:]...)

	done := make(chan error, 1)
	go func() {
		got := make([]byte, len(want))
		if _, err := io.ReadFull(srvConn, got); err != nil {
			done <- err
			return
		}
		if !bytes.Equal(got, want) {
			t.Errorf("traced request bytes:\n got %x\nwant %x", got, want)
		}
		resp := append([]byte{statusOK}, make([]byte, 8)...)
		_, err := srvConn.Write(resp)
		done <- err
	}()
	if _, err := c.DropBefore("rho", 7); err != nil {
		t.Fatalf("drop over pipe: %v", err)
	}
	if err := <-done; err != nil {
		t.Fatalf("pipe server: %v", err)
	}
}

// TestOldClientNewServerInterop is the old-client ↔ new-server half: raw
// pre-extension requests written straight to a new server's socket must be
// served without protocol errors and with no child spans emitted.
func TestOldClientNewServerInterop(t *testing.T) {
	space := NewSpace(1, 0, dom())
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := serveOn(t, ln, space)
	sink := &span.MemSink{}
	srv.Trace(span.NewTracer(sink, "interop-server"))

	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(5 * time.Second))

	// Old-format put: header | seq | block.
	b := block(grid.IV(0, 0, 0), 4, 1.5)
	var req bytes.Buffer
	req.WriteByte(opPut)
	var l [2]byte
	binary.LittleEndian.PutUint16(l[:], uint16(len("rho")))
	req.Write(l[:])
	req.WriteString("rho")
	var v [4]byte
	binary.LittleEndian.PutUint32(v[:], 3)
	req.Write(v[:])
	req.Write(make([]byte, 8)) // seq
	if err := EncodeBlock(&req, b); err != nil {
		t.Fatal(err)
	}
	if _, err := conn.Write(req.Bytes()); err != nil {
		t.Fatal(err)
	}
	st := make([]byte, 1)
	if _, err := io.ReadFull(conn, st); err != nil {
		t.Fatal(err)
	}
	if st[0] != statusOK {
		t.Fatalf("old-format put: status %d, want OK", st[0])
	}

	// Old-format drop on the same connection.
	if _, err := conn.Write(oldDropRequest("rho", 10)); err != nil {
		t.Fatal(err)
	}
	resp := make([]byte, 9)
	if _, err := io.ReadFull(conn, resp); err != nil {
		t.Fatal(err)
	}
	if resp[0] != statusOK {
		t.Fatalf("old-format drop: status %d, want OK", resp[0])
	}

	if got := sink.Spans(); len(got) != 0 {
		t.Fatalf("unflagged requests produced %d server spans, want 0", len(got))
	}
}

// TestTracedClientServerChildSpans is the new ↔ new path: a traced client
// against a traced server yields one server child span per request, in the
// client's trace, parented under the client's scope span.
func TestTracedClientServerChildSpans(t *testing.T) {
	space := NewSpace(1, 0, dom())
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := serveOn(t, ln, space)
	sink := &span.MemSink{}
	srv.Trace(span.NewTracer(sink, "interop-server"))

	c, err := DialOptions(ln.Addr().String(), ClientOptions{
		OpTimeout: 2 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	c.SetSpanScope(0xabc, 0xdef)

	b := block(grid.IV(0, 0, 0), 4, 2.5)
	if err := c.Put("rho", 1, b); err != nil {
		t.Fatal(err)
	}
	if _, err := c.GetBlocks("rho", 1, dom()); err != nil {
		t.Fatal(err)
	}
	if _, err := c.DropBefore("rho", 2); err != nil {
		t.Fatal(err)
	}

	spans := sink.Spans()
	wantNames := []string{"srv:put", "srv:get", "srv:drop"}
	if len(spans) != len(wantNames) {
		t.Fatalf("server emitted %d spans, want %d: %+v", len(spans), len(wantNames), spans)
	}
	for i, s := range spans {
		if s.Name != wantNames[i] {
			t.Errorf("span %d: name %q, want %q", i, s.Name, wantNames[i])
		}
		if s.Trace != span.FormatID(0xabc) {
			t.Errorf("span %d: trace %s, want client trace %s", i, s.Trace, span.FormatID(0xabc))
		}
		if s.Parent != span.FormatID(0xdef) {
			t.Errorf("span %d: parent %s, want client scope %s", i, s.Parent, span.FormatID(0xdef))
		}
		if s.Step != span.StepUnset {
			t.Errorf("span %d: step %d, want StepUnset", i, s.Step)
		}
	}
}

// TestPoolSpansTreeShape drives a traced pool and checks the emitted op
// spans: each pool op parented under the installed scope, RPC children in
// replica order, and the concurrent path's drain producing the identical
// log across repeated identical runs.
func TestPoolSpansTreeShape(t *testing.T) {
	runOnce := func(conc int) []span.Span {
		sink := &span.MemSink{}
		tr := span.NewTracer(sink, "pool-spans")
		scope := tr.Begin(span.Ctx{}, "ship", span.LayerStagingExec, 0)

		rig := newPoolRigConc(t, 3, 2, conc)
		rig.pool.SetSpanScope(scope)
		for i, b := range spread() {
			if err := rig.pool.Put("rho", 0, b); err != nil {
				t.Fatalf("put %d: %v", i, err)
			}
		}
		if _, err := rig.pool.GetBlocks("rho", 0, dom()); err != nil {
			t.Fatal(err)
		}
		rig.pool.DrainSpans()
		scope.End()
		return sink.Spans()
	}

	for _, conc := range []int{1, 4} {
		spans := runOnce(conc)
		var puts, rpcPuts, gets int
		byID := map[string]span.Span{}
		for _, s := range spans {
			byID[s.ID] = s
		}
		scopeID := ""
		for _, s := range spans {
			switch s.Name {
			case "ship":
				scopeID = s.ID
			case "pool:put":
				puts++
			case "rpc:put":
				rpcPuts++
			case "pool:get":
				gets++
			}
		}
		if puts != len(spread()) {
			t.Errorf("conc=%d: %d pool:put spans, want %d", conc, puts, len(spread()))
		}
		// Two replicas per put.
		if rpcPuts != 2*puts {
			t.Errorf("conc=%d: %d rpc:put spans, want %d", conc, rpcPuts, 2*puts)
		}
		if gets == 0 {
			t.Errorf("conc=%d: no pool:get spans", conc)
		}
		for _, s := range spans {
			if s.Name == "pool:put" || s.Name == "pool:get" {
				if s.Parent != scopeID {
					t.Errorf("conc=%d: %s parented under %s, want scope %s", conc, s.Name, s.Parent, scopeID)
				}
			}
		}

		// The concurrent drain must reproduce byte for byte.
		again := runOnce(conc)
		if len(again) != len(spans) {
			t.Fatalf("conc=%d: span count differs across runs: %d vs %d", conc, len(spans), len(again))
		}
		for i := range spans {
			if spans[i] != again[i] {
				t.Fatalf("conc=%d: span %d differs across runs:\n%+v\n%+v", conc, i, spans[i], again[i])
			}
		}
	}
}

// TestPoolSpanDrainOrdersTiedPuts puts two blocks that share a low corner —
// so the same Morton key — but route to different primaries, in both
// arrival orders. The concurrent drain must emit the same log either way:
// the primary breaks the tie, not the goroutine that finished first.
func TestPoolSpanDrainOrdersTiedPuts(t *testing.T) {
	small := block(grid.IV(0, 0, 0), 2, 1)
	long := field.New(grid.BoxFromSize(grid.IV(0, 0, 0), grid.IV(200, 2, 2)), 1)
	runOnce := func(blocks ...*field.BoxData) []span.Span {
		sink := &span.MemSink{}
		scope := span.NewTracer(sink, "tied-puts").Begin(span.Ctx{}, "ship", span.LayerStagingExec, 0)
		rig := newPoolRigConc(t, 3, 2, 4)
		if a, b := rig.pool.route(small.Box), rig.pool.route(long.Box); a == b {
			t.Fatalf("both blocks route to endpoint %d", a)
		}
		rig.pool.SetSpanScope(scope)
		for _, b := range blocks {
			if err := rig.pool.Put("rho", 0, b); err != nil {
				t.Fatal(err)
			}
		}
		rig.pool.DrainSpans()
		scope.End()
		return sink.Spans()
	}
	ab, ba := runOnce(small, long), runOnce(long, small)
	if len(ab) != len(ba) {
		t.Fatalf("span counts differ: %d vs %d", len(ab), len(ba))
	}
	for i := range ab {
		if ab[i] != ba[i] {
			t.Fatalf("span %d depends on put order:\n%+v\n%+v", i, ab[i], ba[i])
		}
	}
}

// TestPoolSpanWallSplit checks the queue-wait vs execution split: with wall
// durations enabled, concurrent RPC spans carry a positive ExecNs (a real
// client call happened) and the op span aggregates its children.
func TestPoolSpanWallSplit(t *testing.T) {
	sink := &span.MemSink{}
	tr := span.NewTracer(sink, "pool-wall").WithWallDurations()
	scope := tr.Begin(span.Ctx{}, "ship", span.LayerStagingExec, 0)

	rig := newPoolRigConc(t, 3, 1, 4)
	rig.pool.SetSpanScope(scope)
	for _, b := range spread() {
		if err := rig.pool.Put("rho", 0, b); err != nil {
			t.Fatal(err)
		}
	}
	rig.pool.DrainSpans()
	scope.End()

	var rpcs, withExec int
	for _, s := range sink.Spans() {
		if s.Name != "rpc:put" {
			continue
		}
		rpcs++
		if s.ExecNs > 0 {
			withExec++
		}
		if s.QueueNs < 0 {
			t.Errorf("rpc span with negative queue wait: %+v", s)
		}
	}
	if rpcs == 0 {
		t.Fatal("no rpc:put spans")
	}
	if withExec == 0 {
		t.Error("wall durations enabled but no rpc span measured ExecNs > 0")
	}
}

// newPoolRigConc is newPoolRig with an explicit pool concurrency.
func newPoolRigConc(t *testing.T, n, replicas, conc int) *poolRig {
	t.Helper()
	rig := &poolRig{}
	var addrs []string
	for i := 0; i < n; i++ {
		sp := NewSpace(1, 0, dom())
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		g := faultnet.NewGate(ln)
		serveOn(t, g, sp)
		rig.gates = append(rig.gates, g)
		rig.spaces = append(rig.spaces, sp)
		addrs = append(addrs, ln.Addr().String())
	}
	p, err := NewPool(addrs, dom(), PoolOptions{
		Replicas:    replicas,
		Concurrency: conc,
		Client: ClientOptions{
			OpTimeout:   2 * time.Second,
			MaxRetries:  -1,
			BackoffBase: time.Millisecond,
			BackoffMax:  time.Millisecond,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { p.Close() })
	rig.pool = p
	return rig
}
