package faultnet

import (
	"net"
	"sync"
)

// Gate is the crash/rejoin capability: a listener wrapper with a kill
// switch. Kill severs every in-flight connection and makes the listener
// refuse service — the socket stays bound (no port race on restart), but
// accepted connections are closed before a single byte is served, exactly
// what a crashed staging server looks like to its clients. Revive restores
// service on the same address, modeling the server process rejoining.
//
// Gate models only the transport half of a crash; the harness wiring it up
// is responsible for the state half (wiping the dead server's backing
// staging.Space), so a revived server comes back empty and a replicated
// pool's anti-entropy repair has real work to do.
//
// Kill and Revive are safe to call from any goroutine, but deterministic
// runs call them synchronously between workflow steps.
type Gate struct {
	inner net.Listener

	mu    sync.Mutex
	down  bool
	conns map[net.Conn]struct{}
}

// NewGate wraps ln with a kill switch. The gate starts alive.
func NewGate(ln net.Listener) *Gate {
	return &Gate{inner: ln, conns: make(map[net.Conn]struct{})}
}

// Accept accepts from the inner listener. While the gate is down every
// accepted connection is closed immediately (the TCP handshake still
// completes against the kernel backlog; the first I/O fails, like
// RefuseAccepts). Live connections are tracked so Kill can sever them.
func (g *Gate) Accept() (net.Conn, error) {
	for {
		conn, err := g.inner.Accept()
		if err != nil {
			return nil, err
		}
		g.mu.Lock()
		if g.down {
			g.mu.Unlock()
			conn.Close()
			continue
		}
		gc := &gateConn{Conn: conn, g: g}
		g.conns[conn] = struct{}{}
		g.mu.Unlock()
		return gc, nil
	}
}

// Close closes the inner listener and severs tracked connections.
func (g *Gate) Close() error {
	g.severAll()
	return g.inner.Close()
}

// Addr returns the inner listener's address.
func (g *Gate) Addr() net.Addr { return g.inner.Addr() }

// Kill takes the server down: new connections are refused and every
// in-flight one is severed under its handler. Killing a dead gate is a
// no-op.
func (g *Gate) Kill() {
	g.mu.Lock()
	if g.down {
		g.mu.Unlock()
		return
	}
	g.down = true
	g.mu.Unlock()
	g.severAll()
}

// Revive restores service. Reviving a live gate is a no-op.
func (g *Gate) Revive() {
	g.mu.Lock()
	g.down = false
	g.mu.Unlock()
}

// Down reports whether the gate is currently killed.
func (g *Gate) Down() bool {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.down
}

func (g *Gate) severAll() {
	g.mu.Lock()
	conns := make([]net.Conn, 0, len(g.conns))
	for c := range g.conns {
		conns = append(conns, c)
	}
	g.conns = make(map[net.Conn]struct{})
	g.mu.Unlock()
	for _, c := range conns {
		c.Close()
	}
}

// gateConn untracks itself on Close so the gate's conn set stays bounded.
type gateConn struct {
	net.Conn
	g *Gate
}

func (c *gateConn) Close() error {
	c.g.mu.Lock()
	delete(c.g.conns, c.Conn)
	c.g.mu.Unlock()
	return c.Conn.Close()
}
