package staging

import (
	"bytes"
	"errors"
	"io"
	"math"
	"math/rand"
	"net"
	"sync"
	"testing"

	"crosslayer/internal/field"
	"crosslayer/internal/grid"
	"crosslayer/internal/obs"
)

func TestCodecRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	d := field.New(grid.NewBox(grid.IV(-3, 2, 5), grid.IV(4, 9, 12)), 3)
	for c := 0; c < 3; c++ {
		for i := range d.Comp(c) {
			d.Comp(c)[i] = rng.NormFloat64()
		}
	}
	var buf bytes.Buffer
	if err := EncodeBlock(&buf, d); err != nil {
		t.Fatal(err)
	}
	if int64(buf.Len()) != EncodedSize(d) {
		t.Errorf("encoded %d bytes, EncodedSize says %d", buf.Len(), EncodedSize(d))
	}
	got, err := DecodeBlock(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(d) {
		t.Error("round trip lost data")
	}
}

func TestCodecRejectsGarbage(t *testing.T) {
	if _, err := DecodeBlock(bytes.NewReader(make([]byte, 64))); !errors.Is(err, ErrBadBlock) {
		t.Errorf("garbage decode err = %v", err)
	}
	var buf bytes.Buffer
	if err := EncodeBlock(&buf, nil); !errors.Is(err, ErrBadBlock) {
		t.Errorf("nil encode err = %v", err)
	}
	// Truncated stream: header ok, payload missing.
	d := field.New(grid.BoxFromSize(grid.IV(0, 0, 0), grid.IV(4, 4, 4)), 1)
	buf.Reset()
	if err := EncodeBlock(&buf, d); err != nil {
		t.Fatal(err)
	}
	trunc := bytes.NewReader(buf.Bytes()[:buf.Len()-8])
	if _, err := DecodeBlock(trunc); err == nil {
		t.Error("truncated decode succeeded")
	}
}

func TestCodecRejectsAbsurdHeader(t *testing.T) {
	// A header claiming a gigantic box must be rejected before allocation.
	d := field.New(grid.BoxFromSize(grid.IV(0, 0, 0), grid.IV(2, 2, 2)), 1)
	var buf bytes.Buffer
	if err := EncodeBlock(&buf, d); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	// hi.X at offset 4+3*4: bump it enormously
	raw[16] = 0xff
	raw[17] = 0xff
	raw[18] = 0xff
	raw[19] = 0x0f
	if _, err := DecodeBlock(bytes.NewReader(raw)); !errors.Is(err, ErrBadBlock) {
		t.Errorf("absurd box err = %v", err)
	}
}

// serveOn starts a non-durable server on ln — typically a fault-injecting
// wrapper — and closes it with the test.
func serveOn(t testing.TB, ln net.Listener, sp *Space) *Server {
	t.Helper()
	srv, err := NewServer(ln, sp, ServerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	return srv
}

func startServer(t *testing.T) (*Server, *Client) {
	t.Helper()
	sp := NewSpace(4, 0, dom())
	srv, err := ServeOptions("127.0.0.1:0", sp, ServerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	cl, err := Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cl.Close() })
	return srv, cl
}

func TestTCPPutGetRoundTrip(t *testing.T) {
	_, cl := startServer(t)
	d := block(grid.IV(8, 8, 8), 8, 3.5)
	if err := cl.Put("rho", 2, d); err != nil {
		t.Fatal(err)
	}
	blocks, err := cl.GetBlocks("rho", 2, dom())
	if err != nil {
		t.Fatal(err)
	}
	if len(blocks) != 1 || !blocks[0].Equal(d) {
		t.Fatal("remote round trip lost data")
	}
}

func TestTCPNotFound(t *testing.T) {
	_, cl := startServer(t)
	if _, err := cl.GetBlocks("nope", 0, dom()); !errors.Is(err, ErrNotFound) {
		t.Errorf("err = %v", err)
	}
}

func TestTCPNoMemory(t *testing.T) {
	sp := NewSpace(1, 100, dom()) // tiny capacity
	srv, err := ServeOptions("127.0.0.1:0", sp, ServerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	cl, err := Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if err := cl.Put("rho", 0, block(grid.IV(0, 0, 0), 8, 1)); !errors.Is(err, ErrNoMemory) {
		t.Errorf("err = %v", err)
	}
}

func TestTCPDropAndStat(t *testing.T) {
	_, cl := startServer(t)
	d := block(grid.IV(0, 0, 0), 4, 1)
	want := d.Bytes()
	for v := 0; v < 3; v++ {
		if err := cl.Put("rho", v, block(grid.IV(0, 0, 0), 4, 1)); err != nil {
			t.Fatal(err)
		}
	}
	used, err := cl.MemUsed()
	if err != nil || used != 3*want {
		t.Fatalf("MemUsed = %d, %v; want %d", used, err, 3*want)
	}
	freed, err := cl.DropBefore("rho", 2)
	if err != nil || freed != 2*want {
		t.Fatalf("DropBefore freed %d, %v; want %d", freed, err, 2*want)
	}
	if _, err := cl.GetBlocks("rho", 0, dom()); !errors.Is(err, ErrNotFound) {
		t.Error("dropped version still present")
	}
	if _, err := cl.GetBlocks("rho", 2, dom()); err != nil {
		t.Error("surviving version lost")
	}
}

func TestTCPManyClientsConcurrent(t *testing.T) {
	srv, _ := startServer(t)
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			cl, err := Dial(srv.Addr())
			if err != nil {
				errs <- err
				return
			}
			defer cl.Close()
			for i := 0; i < 10; i++ {
				lo := grid.IV((w*8)%56, (i*4)%56, 0)
				if err := cl.Put("v", i, block(lo, 4, float64(w))); err != nil {
					errs <- err
					return
				}
				if _, err := cl.GetBlocks("v", i, dom()); err != nil {
					errs <- err
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

func TestTCPSharedClientConcurrent(t *testing.T) {
	_, cl := startServer(t)
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 10; i++ {
				if err := cl.Put("s", w*100+i, block(grid.IV(0, 0, 0), 4, 1)); err != nil {
					t.Errorf("put: %v", err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	used, err := cl.MemUsed()
	if err != nil || used == 0 {
		t.Fatalf("MemUsed after concurrent puts: %d, %v", used, err)
	}
}

func TestServerCloseUnblocksAccept(t *testing.T) {
	sp := NewSpace(1, 0, dom())
	srv, err := ServeOptions("127.0.0.1:0", sp, ServerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if _, err := Dial(srv.Addr()); err == nil {
		t.Error("dial succeeded after Close")
	}
}

func TestCodecQuickRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for i := 0; i < 60; i++ {
		lo := grid.IV(rng.Intn(20)-10, rng.Intn(20)-10, rng.Intn(20)-10)
		size := grid.IV(rng.Intn(6)+1, rng.Intn(6)+1, rng.Intn(6)+1)
		ncomp := rng.Intn(4) + 1
		d := field.New(grid.BoxFromSize(lo, size), ncomp)
		for c := 0; c < ncomp; c++ {
			for j := range d.Comp(c) {
				d.Comp(c)[j] = rng.NormFloat64() * math.Pow(10, float64(rng.Intn(20)-10))
			}
		}
		var buf bytes.Buffer
		if err := EncodeBlock(&buf, d); err != nil {
			t.Fatal(err)
		}
		got, err := DecodeBlock(&buf)
		if err != nil {
			t.Fatal(err)
		}
		if !got.Equal(d) {
			t.Fatalf("round trip lost data for box %v ncomp %d", d.Box, ncomp)
		}
	}
}

func TestCodecSpecialFloats(t *testing.T) {
	d := field.New(grid.BoxFromSize(grid.IV(0, 0, 0), grid.IV(2, 1, 1)), 1)
	d.Comp(0)[0] = math.Inf(1)
	d.Comp(0)[1] = math.Copysign(0, -1) // -0.0
	var buf bytes.Buffer
	if err := EncodeBlock(&buf, d); err != nil {
		t.Fatal(err)
	}
	got, err := DecodeBlock(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !math.IsInf(got.Comp(0)[0], 1) {
		t.Error("+Inf not preserved")
	}
	if math.Signbit(got.Comp(0)[1]) != true || got.Comp(0)[1] != 0 {
		t.Error("-0.0 not preserved bit-exactly")
	}
}

// TestCountingConnCountsBeforeDelivery reads a server-side write from the
// peer's end of a pipe and checks the bytes-out counter right away: a client
// that has read its reply and scrapes /metrics next must see the reply
// counted. A short write takes its unwritten tail back.
func TestCountingConnCountsBeforeDelivery(t *testing.T) {
	srv, cli := net.Pipe()
	c := &countingConn{Conn: srv, in: &obs.Counter{}, out: &obs.Counter{}}
	done := make(chan error, 1)
	go func() {
		_, err := c.Write(make([]byte, 9))
		done <- err
	}()
	if _, err := io.ReadFull(cli, make([]byte, 9)); err != nil {
		t.Fatal(err)
	}
	if got := c.out.Value(); got != 9 {
		t.Fatalf("bytes out = %v once the peer read the reply, want 9", got)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	cli.Close()
	if n, err := c.Write(make([]byte, 5)); err == nil || n != 0 {
		t.Fatalf("write to a closed pipe = %d, %v", n, err)
	}
	if got := c.out.Value(); got != 9 {
		t.Fatalf("bytes out = %v after a failed write, want 9", got)
	}
}
