package staging

import (
	"errors"
	"net"
	"testing"
	"time"

	"crosslayer/internal/faultnet"
	"crosslayer/internal/grid"
	"crosslayer/internal/obs"
)

// fastOpts keeps failure tests quick: tight deadlines, short backoff.
func fastOpts() ClientOptions {
	return ClientOptions{
		OpTimeout:   500 * time.Millisecond,
		MaxRetries:  2,
		BackoffBase: time.Millisecond,
		BackoffMax:  5 * time.Millisecond,
	}
}

// faultServer starts a staging server behind a faultnet listener.
func faultServer(t *testing.T, plan faultnet.Plan) *Server {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	return serveOn(t, faultnet.Listen(ln, plan), NewSpace(2, 0, dom()))
}

func TestClientReconnectsAfterRefusedFirstConn(t *testing.T) {
	// The first accepted connection is refused: the initial dial succeeds
	// at the TCP level but the first operation fails. The client must back
	// off, redial transparently, and complete the operation on the second
	// connection.
	srv := faultServer(t, faultnet.Plan{RefuseAccepts: 1})
	cl, err := DialOptions(srv.Addr(), fastOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	d := block(grid.IV(0, 0, 0), 4, 2.5)
	if err := cl.Put("rho", 1, d); err != nil {
		t.Fatalf("Put through refused-then-healthy server: %v", err)
	}
	got, err := cl.GetBlocks("rho", 1, dom())
	if err != nil || len(got) != 1 || !got[0].Equal(d) {
		t.Fatalf("GetBlocks after reconnect: %d blocks, %v", len(got), err)
	}
	retries, reconnects := cl.TransportStats()
	if retries < 1 || reconnects < 1 {
		t.Fatalf("stats = %d retries, %d reconnects; want >= 1 each", retries, reconnects)
	}
}

func TestClientUnavailableWhenServerRefusesEverything(t *testing.T) {
	srv := faultServer(t, faultnet.Plan{RefuseAccepts: -1})
	cl, err := DialOptions(srv.Addr(), fastOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	start := time.Now()
	err = cl.Put("rho", 0, block(grid.IV(0, 0, 0), 4, 1))
	if !errors.Is(err, ErrStagingUnavailable) {
		t.Fatalf("Put err = %v, want ErrStagingUnavailable", err)
	}
	if d := time.Since(start); d > 5*time.Second {
		t.Fatalf("budget exhaustion took %v", d)
	}
	retries, _ := cl.TransportStats()
	if retries != 2 {
		t.Fatalf("retries = %d, want exactly MaxRetries = 2", retries)
	}
}

func TestRefusedRedialsAreNotReconnects(t *testing.T) {
	// Every accepted connection is closed at once, so every re-dial
	// succeeds at the TCP level and then carries no reply: none of them
	// reconnected the client to a server, on either counter.
	srv := faultServer(t, faultnet.Plan{RefuseAccepts: -1})
	for _, eager := range []bool{true, false} {
		reg := obs.NewRegistry()
		opts := fastOpts()
		opts.Metrics = reg
		cl := NewClient(srv.Addr(), opts)
		if eager {
			var err error
			if cl, err = DialOptions(srv.Addr(), opts); err != nil {
				t.Fatal(err)
			}
		}
		for i := 0; i < 3; i++ {
			if err := cl.Put("rho", i, block(grid.IV(0, 0, 0), 4, 1)); !errors.Is(err, ErrStagingUnavailable) {
				t.Fatalf("eager=%v: Put err = %v, want ErrStagingUnavailable", eager, err)
			}
		}
		retries, reconnects := cl.TransportStats()
		counted := reg.Counter("xlayer_staging_client_reconnects_total", "").Value()
		if retries != 6 || reconnects != 0 || counted != 0 {
			t.Errorf("eager=%v: %d retries, %d reconnects, counter %g; want 6, 0, 0", eager, retries, reconnects, counted)
		}
		cl.Close()
	}
}

func TestClientUnavailableWhenConnsDropMidRequest(t *testing.T) {
	// Every connection dies after 16 bytes: puts can never complete.
	srv := faultServer(t, faultnet.Plan{DropAfterBytes: 16})
	cl, err := DialOptions(srv.Addr(), fastOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	err = cl.Put("rho", 0, block(grid.IV(0, 0, 0), 8, 1))
	if !errors.Is(err, ErrStagingUnavailable) {
		t.Fatalf("Put err = %v, want ErrStagingUnavailable", err)
	}
}

func TestClientRejectsCorruptResponsesWithoutHanging(t *testing.T) {
	// Every server write has one byte flipped: responses are garbage. The
	// client must fail each attempt cleanly (protocol error), reconnect,
	// and surface ErrStagingUnavailable — never hang or accept bad data.
	srv := faultServer(t, faultnet.Plan{Seed: 11, CorruptRate: 1})
	cl, err := DialOptions(srv.Addr(), fastOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if err := cl.Put("rho", 0, block(grid.IV(0, 0, 0), 4, 1)); !errors.Is(err, ErrStagingUnavailable) {
		t.Fatalf("Put err = %v, want ErrStagingUnavailable", err)
	}
	if _, err := cl.GetBlocks("rho", 0, dom()); !errors.Is(err, ErrStagingUnavailable) {
		t.Fatalf("GetBlocks err = %v, want ErrStagingUnavailable", err)
	}
}

func TestPutRetriesAreIdempotent(t *testing.T) {
	// Corrupt responses make the client replay puts that actually landed;
	// a replay carries the same put sequence number, so it must replace,
	// not duplicate. Verify through a second, healthy server sharing the
	// space.
	sp := NewSpace(2, 0, dom())
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	faulty := serveOn(t, faultnet.Listen(ln, faultnet.Plan{Seed: 11, CorruptRate: 1}), sp)
	healthy, err := ServeOptions("127.0.0.1:0", sp, ServerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer healthy.Close()

	cl, err := DialOptions(faulty.Addr(), fastOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	d := block(grid.IV(0, 0, 0), 4, 7)
	cl.Put("rho", 0, d) // fails client-side, lands (possibly repeatedly) server-side

	ok, err := Dial(healthy.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer ok.Close()
	got, err := ok.GetBlocks("rho", 0, dom())
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 {
		t.Fatalf("replayed put stored %d blocks, want 1", len(got))
	}
	if !got[0].Equal(d) {
		t.Fatal("stored block corrupted")
	}
}

func TestClientOpDeadlineOnSilentServer(t *testing.T) {
	// A listener that accepts and then never responds: without per-op
	// deadlines the client would block forever on the status read.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			// Swallow the request, never reply.
			go func() {
				buf := make([]byte, 1024)
				for {
					if _, err := conn.Read(buf); err != nil {
						conn.Close()
						return
					}
				}
			}()
		}
	}()
	opts := fastOpts()
	opts.OpTimeout = 100 * time.Millisecond
	cl, err := DialOptions(ln.Addr().String(), opts)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	start := time.Now()
	if err := cl.Put("rho", 0, block(grid.IV(0, 0, 0), 4, 1)); !errors.Is(err, ErrStagingUnavailable) {
		t.Fatalf("Put err = %v, want ErrStagingUnavailable", err)
	}
	if d := time.Since(start); d > 3*time.Second {
		t.Fatalf("silent server wedged the client for %v", d)
	}
}

func TestClientLatencyTolerated(t *testing.T) {
	// Slow but functional links succeed within the deadline.
	srv := faultServer(t, faultnet.Plan{Latency: 2 * time.Millisecond})
	cl, err := DialOptions(srv.Addr(), ClientOptions{OpTimeout: 5 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if err := cl.Put("rho", 0, block(grid.IV(0, 0, 0), 4, 3)); err != nil {
		t.Fatalf("Put over slow link: %v", err)
	}
}

func TestClientClosedFailsFast(t *testing.T) {
	_, cl := startServer(t)
	if err := cl.Close(); err != nil {
		t.Fatal(err)
	}
	if err := cl.Put("rho", 0, block(grid.IV(0, 0, 0), 4, 1)); !errors.Is(err, net.ErrClosed) {
		t.Fatalf("Put after Close: %v, want net.ErrClosed", err)
	}
}

func TestServerCloseSeversInFlightConns(t *testing.T) {
	// Regression: a handler blocked mid-request must not keep Close (and
	// its wg.Wait) hanging. Open a raw connection, send a partial request
	// header, and demand Close returns promptly.
	sp := NewSpace(1, 0, dom())
	srv, err := ServeOptions("127.0.0.1:0", sp, ServerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	conn, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := conn.Write([]byte{opPut}); err != nil { // header is 3 bytes; handler now blocks
		t.Fatal(err)
	}
	time.Sleep(20 * time.Millisecond) // let the handler reach its blocking read

	done := make(chan error, 1)
	go func() { done <- srv.Close() }()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Server.Close hung on an in-flight connection")
	}
}

func TestServerCloseRejectsLateConns(t *testing.T) {
	sp := NewSpace(1, 0, dom())
	srv, err := ServeOptions("127.0.0.1:0", sp, ServerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	// Double Close is safe.
	srv.Close()
}

func TestDeterministicFailureCounts(t *testing.T) {
	// The same fault plan against the same traffic yields the same retry
	// and reconnect counters — the property the workflow-level
	// reproducibility test builds on.
	run := func() (int64, int64) {
		srv := faultServer(t, faultnet.Plan{Seed: 9, RefuseAccepts: -1})
		cl, err := DialOptions(srv.Addr(), fastOpts())
		if err != nil {
			t.Fatal(err)
		}
		defer cl.Close()
		for i := 0; i < 3; i++ {
			cl.Put("rho", i, block(grid.IV(0, 0, 0), 4, 1))
		}
		return cl.TransportStats()
	}
	r1, c1 := run()
	r2, c2 := run()
	if r1 != r2 || c1 != c2 {
		t.Fatalf("runs differ: (%d,%d) vs (%d,%d)", r1, c1, r2, c2)
	}
}
