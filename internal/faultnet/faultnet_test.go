package faultnet

import (
	"errors"
	"io"
	"net"
	"strings"
	"testing"
	"time"
)

// pipeServer starts a TCP listener wrapped with the plan whose accepted
// connections are echoed by a trivial server goroutine.
func pipeServer(t *testing.T, plan Plan) *Listener {
	t.Helper()
	inner, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ln := Listen(inner, plan)
	t.Cleanup(func() { ln.Close() })
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			go func() {
				defer conn.Close()
				io.Copy(conn, conn) // echo
			}()
		}
	}()
	return ln
}

func TestParsePlanRoundTrip(t *testing.T) {
	p, err := ParsePlan("seed=42,refuse=-1,drop-after=4096,latency=2ms,truncate=0.1,corrupt=0.01")
	if err != nil {
		t.Fatal(err)
	}
	want := Plan{Seed: 42, RefuseAccepts: -1, DropAfterBytes: 4096,
		Latency: 2 * time.Millisecond, TruncateRate: 0.1, CorruptRate: 0.01}
	if p != want {
		t.Fatalf("parsed %+v, want %+v", p, want)
	}
	back, err := ParsePlan(p.String())
	if err != nil || back != p {
		t.Fatalf("String round trip: %+v, %v", back, err)
	}
}

func TestParsePlanErrors(t *testing.T) {
	for _, s := range []string{"bogus=1", "drop-after", "corrupt=1.5", "latency=-1s", "drop-after=x"} {
		if _, err := ParsePlan(s); err == nil {
			t.Errorf("ParsePlan(%q) accepted", s)
		}
	}
	if p, err := ParsePlan(""); err != nil || p.String() != "none" {
		t.Errorf("empty plan: %+v, %v", p, err)
	}
	if p, err := ParsePlan("none"); err != nil || p.String() != "none" {
		t.Errorf("none plan: %+v, %v", p, err)
	}
}

func TestZeroPlanPassesTraffic(t *testing.T) {
	ln := pipeServer(t, Plan{})
	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	msg := []byte("hello staging")
	if _, err := conn.Write(msg); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, len(msg))
	if _, err := io.ReadFull(conn, got); err != nil {
		t.Fatal(err)
	}
	if string(got) != string(msg) {
		t.Fatalf("echo = %q", got)
	}
}

func TestRefuseAcceptsAll(t *testing.T) {
	ln := pipeServer(t, Plan{RefuseAccepts: -1})
	for i := 0; i < 3; i++ {
		conn, err := net.Dial("tcp", ln.Addr().String())
		if err != nil {
			// Kernel may reject outright once the refused conn resets.
			continue
		}
		conn.SetDeadline(time.Now().Add(2 * time.Second))
		// The refused connection must fail on I/O, never hang.
		one := []byte{0}
		_, werr := conn.Write(one)
		_, rerr := conn.Read(one)
		if werr == nil && rerr == nil {
			t.Fatalf("dial %d: I/O succeeded on refused connection", i)
		}
		conn.Close()
	}
}

func TestRefuseAcceptsFirstN(t *testing.T) {
	ln := pipeServer(t, Plan{RefuseAccepts: 2})
	deadline := time.Now().Add(5 * time.Second)
	ok := 0
	for i := 0; i < 10 && time.Now().Before(deadline); i++ {
		conn, err := net.Dial("tcp", ln.Addr().String())
		if err != nil {
			continue
		}
		conn.SetDeadline(time.Now().Add(time.Second))
		msg := []byte("x")
		if _, err := conn.Write(msg); err == nil {
			if _, err := io.ReadFull(conn, msg); err == nil {
				ok++
				conn.Close()
				break
			}
		}
		conn.Close()
	}
	if ok == 0 {
		t.Fatal("no connection survived after the refused prefix")
	}
	if ln.accepted < 3 {
		t.Fatalf("accepted %d, want >= 3", ln.accepted)
	}
}

func TestDropAfterBytesSevers(t *testing.T) {
	ln := pipeServer(t, Plan{DropAfterBytes: 8})
	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(5 * time.Second))
	// 16 bytes out exceed the server-side budget (reads count): the echo
	// dies and the client sees EOF/reset rather than the full echo.
	if _, err := conn.Write(make([]byte, 16)); err != nil {
		return // already reset: fine
	}
	if _, err := io.ReadFull(conn, make([]byte, 16)); err == nil {
		t.Fatal("full echo arrived through an 8-byte budget")
	}
}

func TestDropAfterBytesDeterministic(t *testing.T) {
	// The sever point is a function of bytes moved, not time: wrap an
	// in-memory pipe and count how many bytes each of two identical runs
	// accepts before failing.
	run := func() int64 {
		client, server := net.Pipe()
		defer client.Close()
		fc := Wrap(server, Plan{DropAfterBytes: 100}, 7)
		go io.Copy(io.Discard, client)
		var moved int64
		buf := make([]byte, 9)
		for {
			n, err := fc.Write(buf)
			moved += int64(n)
			if err != nil {
				return moved
			}
		}
	}
	a, b := run(), run()
	if a != b {
		t.Fatalf("runs moved %d vs %d bytes", a, b)
	}
	if a > 100 {
		t.Fatalf("moved %d bytes through a 100-byte budget", a)
	}
}

func TestCorruptWritesFlipBytes(t *testing.T) {
	client, server := net.Pipe()
	defer client.Close()
	defer server.Close()
	fc := Wrap(server, Plan{Seed: 3, CorruptRate: 1}, 3)
	go fc.Write([]byte{1, 2, 3, 4})
	got := make([]byte, 4)
	if _, err := io.ReadFull(client, got); err != nil {
		t.Fatal(err)
	}
	want := []byte{1, 2, 3, 4}
	diff := 0
	for i := range got {
		if got[i] != want[i] {
			diff++
		}
	}
	if diff != 1 {
		t.Fatalf("corrupt=1 flipped %d bytes, want exactly 1 (got %v)", diff, got)
	}
}

func TestTruncateSeversAfterPrefix(t *testing.T) {
	client, server := net.Pipe()
	defer client.Close()
	fc := Wrap(server, Plan{Seed: 5, TruncateRate: 1}, 5)
	errc := make(chan error, 1)
	go func() {
		_, err := fc.Write(make([]byte, 64))
		errc <- err
	}()
	buf := make([]byte, 64)
	n, _ := client.Read(buf)
	if n >= 64 {
		t.Fatalf("truncate=1 delivered all %d bytes", n)
	}
	if err := <-errc; err == nil || !strings.Contains(err.Error(), "write truncated") {
		t.Fatalf("truncated write: err = %v, want the truncation sever", err)
	}
	// The connection is severed: further writes fail immediately.
	if _, err := fc.Write([]byte{0}); err == nil {
		t.Fatal("write after truncation-sever succeeded")
	}
}

func TestLatencyInjected(t *testing.T) {
	client, server := net.Pipe()
	defer client.Close()
	defer server.Close()
	fc := Wrap(server, Plan{Latency: 20 * time.Millisecond}, 1)
	go io.Copy(io.Discard, client)
	start := time.Now()
	for i := 0; i < 3; i++ {
		if _, err := fc.Write([]byte{1}); err != nil {
			t.Fatal(err)
		}
	}
	if d := time.Since(start); d < 60*time.Millisecond {
		t.Fatalf("3 writes with 20ms latency took %v", d)
	}
}

// TestWrapAppliesClientSide: a wrapped dialed connection carries the plan's
// faults on the client side of the link.
func TestWrapAppliesClientSide(t *testing.T) {
	inner, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer inner.Close()
	go func() {
		for {
			conn, err := inner.Accept()
			if err != nil {
				return
			}
			go func() { defer conn.Close(); io.Copy(conn, conn) }()
		}
	}()
	raw, err := net.DialTimeout("tcp", inner.Addr().String(), time.Second)
	if err != nil {
		t.Fatal(err)
	}
	conn := Wrap(raw, Plan{DropAfterBytes: 4}, 0)
	defer conn.Close()
	n, err := conn.Write(make([]byte, 16))
	if n != 4 || err == nil || !strings.Contains(err.Error(), "byte budget exhausted") {
		t.Fatalf("16-byte write through a 4-byte budget: %d bytes, err = %v", n, err)
	}
	if _, err := io.ReadFull(conn, make([]byte, 4)); err == nil {
		t.Fatal("read on a connection severed client-side succeeded")
	}
}

func TestSeveredConnFailsFast(t *testing.T) {
	client, server := net.Pipe()
	defer client.Close()
	fc := Wrap(server, Plan{DropAfterBytes: 1}, 1)
	go io.Copy(io.Discard, client)
	fc.Write([]byte{1, 2}) // exhausts the budget
	start := time.Now()
	if _, err := fc.Read(make([]byte, 1)); err == nil {
		t.Fatal("read on severed conn succeeded")
	}
	if time.Since(start) > time.Second {
		t.Fatal("severed read blocked")
	}
	if err := fc.Close(); err != nil {
		t.Fatalf("Close after sever: %v", err)
	}
}

func TestWrapErrorsAreNotTemporaryPanics(t *testing.T) {
	// Severed errors must be plain errors usable with errors.Is/As chains.
	client, server := net.Pipe()
	defer client.Close()
	fc := Wrap(server, Plan{DropAfterBytes: 1}, 1)
	go io.Copy(io.Discard, client)
	fc.Write([]byte{1, 2})
	_, err := fc.Write([]byte{3})
	if err == nil {
		t.Fatal("expected error")
	}
	var ne net.Error
	_ = errors.As(err, &ne) // must not panic
}
