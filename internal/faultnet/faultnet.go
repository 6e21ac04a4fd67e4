// Package faultnet injects deterministic transport faults into net.Conn /
// net.Listener pairs. It is the controlled-failure substrate for testing the
// staging transport and the workflow's graceful degradation: a declarative
// Plan names the faults, a seeded PRNG makes every probabilistic choice, and
// the per-connection fault state depends only on the order connections are
// accepted and the bytes that flow over them — never on wall-clock time — so
// a given (plan, traffic) pair reproduces the same failures run after run.
//
// Faults:
//
//   - RefuseAccepts: accepted connections are closed immediately (the
//     "killed server": the TCP handshake succeeds against the kernel
//     backlog, then the first I/O fails).
//   - DropAfterBytes: a connection is severed once this many bytes have
//     crossed it (reads + writes combined).
//   - Latency: every Read/Write sleeps first (a congested or degraded
//     interconnect).
//   - TruncateRate: a Write sends only a prefix, then severs the
//     connection (a crashed peer mid-message).
//   - CorruptRate: a Write flips one byte (a corrupted payload; exercises
//     the codec's defenses and the client's reconnect-on-desync).
//
// Wrap a listener with Listen: every connection it accepts carries the
// plan's faults.
package faultnet

import (
	"fmt"
	"io"
	"math/rand"
	"net"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// Plan declares the faults to inject. The zero value injects nothing.
type Plan struct {
	// Seed drives every probabilistic choice. Two listeners built from the
	// same plan make identical per-connection decisions.
	Seed int64

	// RefuseAccepts closes the first N accepted connections immediately;
	// negative refuses every accept (a dead server that still has a
	// listening socket).
	RefuseAccepts int

	// DropAfterBytes severs each connection after this many total bytes
	// have been read plus written through it (0 = disabled).
	DropAfterBytes int64

	// Latency is slept before every Read and Write (0 = disabled).
	Latency time.Duration

	// TruncateRate is the per-Write probability of writing only a prefix of
	// the buffer and then severing the connection (0 = disabled).
	TruncateRate float64

	// CorruptRate is the per-Write probability of flipping one byte of the
	// buffer before it is sent (0 = disabled).
	CorruptRate float64
}

// Validate checks rate bounds.
func (p Plan) Validate() error {
	if p.TruncateRate < 0 || p.TruncateRate > 1 {
		return fmt.Errorf("faultnet: truncate rate %v outside [0,1]", p.TruncateRate)
	}
	if p.CorruptRate < 0 || p.CorruptRate > 1 {
		return fmt.Errorf("faultnet: corrupt rate %v outside [0,1]", p.CorruptRate)
	}
	if p.DropAfterBytes < 0 {
		return fmt.Errorf("faultnet: negative drop-after %d", p.DropAfterBytes)
	}
	if p.Latency < 0 {
		return fmt.Errorf("faultnet: negative latency %v", p.Latency)
	}
	return nil
}

// String renders the plan in ParsePlan's format.
func (p Plan) String() string {
	var parts []string
	add := func(k, v string) { parts = append(parts, k+"="+v) }
	if p.Seed != 0 {
		add("seed", strconv.FormatInt(p.Seed, 10))
	}
	if p.RefuseAccepts != 0 {
		add("refuse", strconv.Itoa(p.RefuseAccepts))
	}
	if p.DropAfterBytes != 0 {
		add("drop-after", strconv.FormatInt(p.DropAfterBytes, 10))
	}
	if p.Latency != 0 {
		add("latency", p.Latency.String())
	}
	if p.TruncateRate != 0 {
		add("truncate", strconv.FormatFloat(p.TruncateRate, 'g', -1, 64))
	}
	if p.CorruptRate != 0 {
		add("corrupt", strconv.FormatFloat(p.CorruptRate, 'g', -1, 64))
	}
	if len(parts) == 0 {
		return "none"
	}
	sort.Strings(parts)
	return strings.Join(parts, ",")
}

// ParsePlan parses a comma-separated key=value fault specification, the
// format the CLI's -fault flag uses:
//
//	seed=42,refuse=-1,drop-after=4096,latency=2ms,truncate=0.1,corrupt=0.01
//
// Unknown keys are an error; "none" or "" is the zero plan.
func ParsePlan(s string) (Plan, error) {
	var p Plan
	s = strings.TrimSpace(s)
	if s == "" || s == "none" {
		return p, nil
	}
	for _, kv := range strings.Split(s, ",") {
		k, v, ok := strings.Cut(strings.TrimSpace(kv), "=")
		if !ok {
			return p, fmt.Errorf("faultnet: malformed fault %q (want key=value)", kv)
		}
		var err error
		switch k {
		case "seed":
			p.Seed, err = strconv.ParseInt(v, 10, 64)
		case "refuse":
			p.RefuseAccepts, err = strconv.Atoi(v)
		case "drop-after":
			p.DropAfterBytes, err = strconv.ParseInt(v, 10, 64)
		case "latency":
			p.Latency, err = time.ParseDuration(v)
		case "truncate":
			p.TruncateRate, err = strconv.ParseFloat(v, 64)
		case "corrupt":
			p.CorruptRate, err = strconv.ParseFloat(v, 64)
		default:
			return p, fmt.Errorf("faultnet: unknown fault key %q", k)
		}
		if err != nil {
			return p, fmt.Errorf("faultnet: bad value for %q: %v", k, err)
		}
	}
	return p, p.Validate()
}

// Listener wraps an inner listener and applies the plan to every accepted
// connection.
type Listener struct {
	inner net.Listener
	plan  Plan

	mu       sync.Mutex
	accepted int
}

// Listen wraps ln with the plan's faults.
func Listen(ln net.Listener, plan Plan) *Listener {
	return &Listener{inner: ln, plan: plan}
}

// Accept accepts from the inner listener, refusing (closing) connections the
// plan says to refuse and wrapping the rest with per-connection faults.
func (l *Listener) Accept() (net.Conn, error) {
	for {
		conn, err := l.inner.Accept()
		if err != nil {
			return nil, err
		}
		l.mu.Lock()
		n := l.accepted
		l.accepted++
		refuse := l.plan.RefuseAccepts < 0 || n < l.plan.RefuseAccepts
		// Each connection owns an independent PRNG derived from the shared
		// seed and its accept ordinal, so its fault sequence depends only on
		// its own traffic, not on interleaving with other connections.
		connSeed := l.plan.Seed + int64(n)*0x9e3779b9
		l.mu.Unlock()
		if refuse {
			conn.Close()
			continue
		}
		return Wrap(conn, l.plan, connSeed), nil
	}
}

// Close closes the inner listener.
func (l *Listener) Close() error { return l.inner.Close() }

// Addr returns the inner listener's address.
func (l *Listener) Addr() net.Addr { return l.inner.Addr() }

// Conn applies per-connection faults to an inner net.Conn.
type Conn struct {
	net.Conn
	plan Plan

	mu       sync.Mutex
	rng      *rand.Rand
	moved    int64 // bytes read + written
	severed  bool
	severErr error
}

// Wrap applies the plan's per-connection faults to conn, drawing
// probabilistic choices from a PRNG seeded with seed.
func Wrap(conn net.Conn, plan Plan, seed int64) *Conn {
	return &Conn{Conn: conn, plan: plan, rng: rand.New(rand.NewSource(seed))}
}

// sever closes the connection and makes every later operation fail with
// an error naming reason.
func (c *Conn) sever(reason string) error {
	if !c.severed {
		c.severed = true
		c.severErr = fmt.Errorf("faultnet: connection severed (%s)", reason)
		c.Conn.Close()
	}
	return c.severErr
}

// budget returns how many of n bytes may still move before DropAfterBytes
// severs the connection; ok is false when the connection is already dead.
func (c *Conn) budget(n int) (int, bool) {
	if c.severed {
		return 0, false
	}
	if c.plan.DropAfterBytes <= 0 {
		return n, true
	}
	left := c.plan.DropAfterBytes - c.moved
	if left <= 0 {
		return 0, true
	}
	if int64(n) > left {
		return int(left), true
	}
	return n, true
}

func (c *Conn) Read(b []byte) (int, error) {
	if c.plan.Latency > 0 {
		time.Sleep(c.plan.Latency)
	}
	c.mu.Lock()
	allowed, ok := c.budget(len(b))
	if !ok {
		err := c.severErr
		c.mu.Unlock()
		return 0, err
	}
	if allowed == 0 && len(b) > 0 {
		err := c.sever("byte budget exhausted")
		c.mu.Unlock()
		return 0, err
	}
	c.mu.Unlock()

	n, err := c.Conn.Read(b[:allowed])

	c.mu.Lock()
	defer c.mu.Unlock()
	c.moved += int64(n)
	if err == nil && c.plan.DropAfterBytes > 0 && c.moved >= c.plan.DropAfterBytes {
		// Deliver what arrived under the budget; the next operation fails.
		c.sever("byte budget exhausted")
	}
	return n, err
}

func (c *Conn) Write(b []byte) (int, error) {
	if c.plan.Latency > 0 {
		time.Sleep(c.plan.Latency)
	}
	c.mu.Lock()
	allowed, ok := c.budget(len(b))
	if !ok {
		err := c.severErr
		c.mu.Unlock()
		return 0, err
	}
	if allowed == 0 && len(b) > 0 {
		err := c.sever("byte budget exhausted")
		c.mu.Unlock()
		return 0, err
	}
	buf := b[:allowed]
	truncate := false
	if c.plan.TruncateRate > 0 && c.rng.Float64() < c.plan.TruncateRate && len(buf) > 1 {
		buf = buf[:1+c.rng.Intn(len(buf)-1)]
		truncate = true
	}
	if c.plan.CorruptRate > 0 && c.rng.Float64() < c.plan.CorruptRate && len(buf) > 0 {
		// Flip one byte in a copy; the caller's buffer stays intact.
		cp := append([]byte(nil), buf...)
		i := c.rng.Intn(len(cp))
		cp[i] ^= 0xff
		buf = cp
	}
	c.mu.Unlock()

	n, err := c.Conn.Write(buf)

	c.mu.Lock()
	defer c.mu.Unlock()
	c.moved += int64(n)
	if err != nil {
		return n, err
	}
	if truncate {
		return n, c.sever("write truncated")
	}
	if c.plan.DropAfterBytes > 0 && c.moved >= c.plan.DropAfterBytes {
		return n, c.sever("byte budget exhausted")
	}
	if n < len(b) {
		// The fault layer shortened the write without severing; report the
		// short count so the caller sees a proper io.ErrShortWrite path.
		if c.severErr != nil {
			return n, c.severErr
		}
		return n, io.ErrShortWrite
	}
	return n, nil
}

// Close closes the inner connection.
func (c *Conn) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.severed {
		return nil
	}
	c.severed = true
	c.severErr = net.ErrClosed
	return c.Conn.Close()
}
