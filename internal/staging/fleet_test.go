package staging

import (
	"errors"
	"net"
	"os"
	"path/filepath"
	"testing"
	"time"

	"crosslayer/internal/obs"
)

// fleetPool stands up a fleet and a fail-fast replicas-2 pool over it whose
// events land in the returned ring.
func fleetPool(t *testing.T, fo FleetOptions) (*Fleet, *Pool, *obs.RingSink) {
	t.Helper()
	fo.Domain = dom()
	fleet, err := NewFleet(fo)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { fleet.Close() })
	sink := obs.NewRingSink(256)
	pool, err := NewPool(fleet.Addrs(), dom(), PoolOptions{
		Replicas: 2,
		Client: ClientOptions{
			OpTimeout:   2 * time.Second,
			MaxRetries:  -1, // fail fast; the breaker is the resilience layer
			BackoffBase: time.Millisecond,
			BackoffMax:  time.Millisecond,
		},
		Events: obs.NewEmitter(sink),
	})
	if err != nil {
		t.Fatal(err)
	}
	pool.thresh, pool.probeEvn = 1, 1 // trip and probe on every operation
	t.Cleanup(func() { pool.Close() })
	return fleet, pool, sink
}

func countKind(sink *obs.RingSink, kind obs.Kind) (n int) {
	for _, e := range sink.Events() {
		if e.Kind == kind {
			n++
		}
	}
	return n
}

// TestFleetLayout pins the on-disk layout every tool shares: durable server
// i keeps its WAL at <DataDir>/server-<i>/wal.xsw under server id s<i>.
func TestFleetLayout(t *testing.T) {
	dir := t.TempDir()
	fleet, pool, _ := fleetPool(t, FleetOptions{Servers: 2, DataDir: dir})
	putAll(t, pool, 0, spread())
	pool.Close()
	if err := fleet.Shutdown(); err != nil {
		t.Fatal(err)
	}
	for i, id := range []string{"s0", "s1"} {
		sub := filepath.Join(dir, "server-"+string(rune('0'+i)))
		if _, err := os.Stat(filepath.Join(sub, walFileName)); err != nil {
			t.Fatalf("server %d: %v", i, err)
		}
		st, err := NewSpace(1, 0, dom()).Persist(sub, id)
		if err != nil || st.Blocks == 0 {
			t.Errorf("server %d: recover under id %s: %+v, %v", i, id, st, err)
		}
		if _, err := NewSpace(1, 0, dom()).Persist(sub, "staging"); !errors.Is(err, ErrWALMismatch) {
			t.Errorf("server %d: recover under a foreign id: err = %v, want ErrWALMismatch", i, err)
		}
	}
}

// TestFleetKillReviveWipe drives the in-memory fault actions against a 3×2
// pool: a killed server fails reads over to its replica and comes back empty,
// so rejoin repair restores it; a wiped one keeps serving with nothing.
func TestFleetKillReviveWipe(t *testing.T) {
	fleet, pool, sink := fleetPool(t, FleetOptions{Servers: 3})
	blocks := spread()
	putAll(t, pool, 0, blocks)
	addrs := fleet.Addrs()

	fleet.Kill(1)
	if !fleet.Down(1) || fleet.spaces[1].MemUsed() != 0 {
		t.Fatal("Kill left the gate up or the space populated")
	}
	got, err := pool.GetBlocks("rho", 0, dom())
	if err != nil || len(got) != len(blocks) {
		t.Fatalf("failover read: %d of %d blocks, %v", len(got), len(blocks), err)
	}
	if countKind(sink, obs.KindFailoverGet) == 0 {
		t.Error("no failover_get event for the killed primary")
	}

	fleet.Revive(1)
	if _, err := pool.GetBlocks("rho", 0, dom()); err != nil {
		t.Fatal(err) // half-opens the breaker, probes, repairs, rejoins
	}
	if healthy, _ := pool.HealthyEndpoints(); healthy != 3 {
		t.Fatalf("healthy = %d, want 3 after rejoin", healthy)
	}
	if countKind(sink, obs.KindRepair) == 0 || fleet.spaces[1].MemUsed() == 0 {
		t.Error("rejoin repair restored nothing onto the revived server")
	}

	fleet.Wipe(2)
	if fleet.Down(2) || fleet.spaces[2].MemUsed() != 0 {
		t.Error("Wipe must empty the space and leave the gate up")
	}
	if _, err := pool.GetBlocks("rho", 0, dom()); err != nil {
		t.Errorf("read after a silent wipe: %v", err)
	}
	if got := fleet.Addrs(); got[1] != addrs[1] || got[2] != addrs[2] {
		t.Errorf("addresses moved: %v -> %v", addrs, got)
	}
	if _, err := fleet.Restart(0, true); err == nil {
		t.Error("Restart on a fleet without a data dir must fail")
	}
}

// TestFleetRestart hard-restarts a durable server under a live pool: with
// its disk it recovers exactly what it held and the pool needs no repair;
// with the dir discarded it comes back empty. Same Server, same address.
func TestFleetRestart(t *testing.T) {
	fleet, pool, sink := fleetPool(t, FleetOptions{Servers: 3, DataDir: t.TempDir()})
	blocks := spread()
	putAll(t, pool, 0, blocks)
	srv, addr, held := fleet.Server(1), fleet.Addrs()[1], fleet.spaces[1].MemUsed()

	st, err := fleet.Restart(1, true)
	if err != nil {
		t.Fatal(err)
	}
	if st.Bytes != held || fleet.spaces[1].MemUsed() != held || st.TornTail {
		t.Errorf("recovered %+v, space holds %d, want the %d bytes held before", st, fleet.spaces[1].MemUsed(), held)
	}
	if fleet.Server(1) != srv || fleet.Addrs()[1] != addr || fleet.Down(1) {
		t.Error("restart must keep the Server and its address and reopen the gate")
	}
	got, err := pool.GetBlocks("rho", 0, dom())
	if err != nil || len(got) != len(blocks) {
		t.Fatalf("read after recovery: %d of %d blocks, %v", len(got), len(blocks), err)
	}
	if missing := pool.AuditManifest(); missing != 0 || countKind(sink, obs.KindRepair) != 0 {
		t.Errorf("recovered restart: %d blocks missing, %d repairs; want none of either",
			missing, countKind(sink, obs.KindRepair))
	}
	// The restarted server still logs: a put after recovery survives the next one.
	putAll(t, pool, 1, blocks)
	if st, err = fleet.Restart(1, true); err != nil || st.Bytes != 2*held {
		t.Errorf("second recovery: %+v, %v; want %d bytes", st, err, 2*held)
	}

	st, err = fleet.Restart(1, false)
	if err != nil {
		t.Fatal(err)
	}
	if st.Blocks != 0 || fleet.spaces[1].MemUsed() != 0 || fleet.Addrs()[1] != addr || fleet.Down(1) {
		t.Errorf("discarding restart: %+v, %d bytes held, down=%v", st, fleet.spaces[1].MemUsed(), fleet.Down(1))
	}
	if err := fleet.Shutdown(); err != nil {
		t.Errorf("shutdown after restarts: %v", err)
	}
}

// TestNewFleetReleasesListenersOnError is the regression test for the
// stand-ups Fleet replaced, which returned on a data-dir failure without
// closing the listener they had just bound: whatever NewFleet fails on, every
// address it had bound must be free again when it returns.
func TestNewFleetReleasesListenersOnError(t *testing.T) {
	file := filepath.Join(t.TempDir(), "regular-file")
	if err := os.WriteFile(file, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name string
		fo   FleetOptions
	}{
		{"data dir under a regular file", FleetOptions{Servers: 1, DataDir: filepath.Join(file, "data")}},
		// Server 0 binds the fixed port, server 1 cannot: 0 must be torn down.
		{"second bind fails", FleetOptions{Servers: 2}},
	} {
		probe, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		c.fo.Addr, c.fo.Domain = probe.Addr().String(), dom()
		probe.Close()
		if fleet, err := NewFleet(c.fo); err == nil {
			fleet.Close()
			t.Fatalf("%s: NewFleet succeeded", c.name)
		}
		ln, err := net.Listen("tcp", c.fo.Addr)
		if err != nil {
			t.Fatalf("%s: the fleet's address is still bound: %v", c.name, err)
		}
		ln.Close()
	}
}
