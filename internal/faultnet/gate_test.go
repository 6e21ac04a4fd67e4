package faultnet

import (
	"io"
	"net"
	"testing"
	"time"
)

// echoServe accepts connections from ln and echoes bytes until they close.
func echoServe(ln net.Listener) {
	for {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		go func() {
			defer conn.Close()
			io.Copy(conn, conn)
		}()
	}
}

func echoOnce(t *testing.T, addr string) error {
	t.Helper()
	conn, err := net.DialTimeout("tcp", addr, time.Second)
	if err != nil {
		return err
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(time.Second))
	if _, err := conn.Write([]byte("ping")); err != nil {
		return err
	}
	buf := make([]byte, 4)
	_, err = io.ReadFull(conn, buf)
	return err
}

func TestGateKillRevive(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	g := NewGate(ln)
	defer g.Close()
	go echoServe(g)
	addr := g.Addr().String()

	if err := echoOnce(t, addr); err != nil {
		t.Fatalf("echo through live gate: %v", err)
	}

	// Kill severs an in-flight connection under its handler.
	conn, err := net.DialTimeout("tcp", addr, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(time.Second))
	if _, err := conn.Write([]byte("ping")); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 4)
	if _, err := io.ReadFull(conn, buf); err != nil {
		t.Fatalf("echo before kill: %v", err)
	}
	g.Kill()
	if !g.Down() {
		t.Fatal("not down after Kill")
	}
	conn.SetDeadline(time.Now().Add(time.Second))
	if _, err := io.ReadFull(conn, buf); err == nil {
		// The write may land in a kernel buffer, but the severed server
		// side must never answer.
		t.Fatal("read succeeded on a severed connection")
	}

	// New connections complete the handshake against the backlog but are
	// closed before a byte is served.
	if err := echoOnce(t, addr); err == nil {
		t.Fatal("echo through a dead gate succeeded")
	}

	// Revive restores service on the same address.
	g.Revive()
	if g.Down() {
		t.Fatal("still down after Revive")
	}
	if err := echoOnce(t, addr); err != nil {
		t.Fatalf("echo after revive: %v", err)
	}

	// Kill and Revive are idempotent.
	g.Revive()
	g.Kill()
	g.Kill()
	if !g.Down() {
		t.Error("not down after a second Kill")
	}
}
