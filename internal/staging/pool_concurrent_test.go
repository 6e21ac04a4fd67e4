package staging

import (
	"net"
	"sync"
	"testing"
	"time"

	"crosslayer/internal/faultnet"
	"crosslayer/internal/field"
	"crosslayer/internal/grid"
	"crosslayer/internal/obs"
)

// newConcRig is newPoolRig with the parallel data path enabled.
func newConcRig(t *testing.T, n, replicas, conc int) *poolRig {
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
	p.thresh, p.probeEvn = 1, 1 // trip and probe on every operation
	t.Cleanup(func() { p.Close() })
	rig.pool = p
	return rig
}

// putAllConc ships the blocks from conc goroutines — the workflow's
// shipment fan-out shape.
func putAllConc(t *testing.T, p *Pool, version int, blocks []*field.BoxData, conc int) {
	t.Helper()
	sem := make(chan struct{}, conc)
	var wg sync.WaitGroup
	errs := make(chan error, len(blocks))
	for _, b := range blocks {
		sem <- struct{}{}
		wg.Add(1)
		go func(b *field.BoxData) {
			defer wg.Done()
			defer func() { <-sem }()
			if err := p.Put("rho", version, b); err != nil {
				errs <- err
			}
		}(b)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// TestConcurrentPoolMatchesSerial pins the parallel data path's contract:
// the same workload through a Concurrency=8 pool and a width-one pool —
// puts on a healthy pool, a server crash, puts and reads around the dead
// endpoint, its revival and rejoin repair — yields byte-identical reads in
// the same Morton order, equal pool manifests, and equal per-server
// contents.
func TestConcurrentPoolMatchesSerial(t *testing.T) {
	serial := newPoolRig(t, 3, 2)
	conc := newConcRig(t, 3, 2, 8)
	blocks := spread()
	drive := func(rig *poolRig, put func(version int)) {
		t.Helper()
		put(0)
		rig.kill(1)
		if _, err := rig.pool.GetBlocks("rho", 0, dom()); err != nil {
			t.Fatalf("get around dead server: %v", err)
		}
		put(1) // lands on the survivors only
		rig.gates[1].Revive()
		put(2) // first op offered to server 1 probes, repairs and rejoins it
		if healthy, _ := rig.pool.HealthyEndpoints(); healthy != 3 {
			t.Fatalf("healthy = %d, want 3 after rejoin", healthy)
		}
	}
	drive(serial, func(v int) { putAll(t, serial.pool, v, blocks) })
	drive(conc, func(v int) { putAllConc(t, conc.pool, v, blocks, 8) })

	for v := 0; v < 3; v++ {
		want, err := serial.pool.GetBlocks("rho", v, dom())
		if err != nil {
			t.Fatal(err)
		}
		got, err := conc.pool.GetBlocks("rho", v, dom())
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(blocks) || len(want) != len(blocks) {
			t.Fatalf("version %d: concurrent read %d blocks, serial %d, want %d",
				v, len(got), len(want), len(blocks))
		}
		for i := range got {
			if !got[i].Equal(want[i]) {
				t.Fatalf("version %d block %d differs between concurrent and serial reads (%v vs %v)",
					v, i, got[i].Box, want[i].Box)
			}
		}
	}
	if !conc.pool.Manifest().Equal(serial.pool.Manifest()) {
		t.Fatalf("manifests diverge: %v vs %v", conc.pool.Manifest(), serial.pool.Manifest())
	}
	for i := range serial.spaces {
		if got, want := conc.spaces[i].ContentManifest(), serial.spaces[i].ContentManifest(); !got.Equal(want) {
			t.Errorf("server %d contents diverge after repair: %v vs %v", i, got, want)
		}
	}
}

// TestConcurrentFailover exercises failover reads — a shard's replica asked
// once its primary failed or was skipped — and replicated puts with a dead
// endpoint under the parallel pool.
func TestConcurrentFailover(t *testing.T) {
	rig := newConcRig(t, 3, 2, 8)
	blocks := spread()
	putAllConc(t, rig.pool, 0, blocks, 8)
	rig.kill(1)
	got, err := rig.pool.GetBlocks("rho", 0, dom())
	if err != nil {
		t.Fatalf("failover get with one dead server: %v", err)
	}
	if len(got) != len(blocks) {
		t.Fatalf("got %d blocks, want %d", len(got), len(blocks))
	}
	// Puts keep landing while the endpoint is down.
	putAllConc(t, rig.pool, 1, blocks, 8)
	if got, err := rig.pool.GetBlocks("rho", 1, dom()); err != nil || len(got) != len(blocks) {
		t.Fatalf("put+get around dead server: %d blocks, err = %v", len(got), err)
	}
}

// TestConcurrentEventsDrainAtBarrier pins the event-ordering contract: in
// concurrent mode pool events buffer until DrainEvents (the workflow's
// step barrier), then flush sorted by (endpoint/shard, severity) so seeded
// runs stay reproducible. DrainEvents is idempotent.
func TestConcurrentEventsDrainAtBarrier(t *testing.T) {
	sink := obs.NewRingSink(256)
	rig := newConcRig(t, 3, 2, 8)
	rig.pool.events = obs.NewEmitter(sink)

	blocks := spread()
	putAllConc(t, rig.pool, 0, blocks, 8)
	rig.kill(1)
	if _, err := rig.pool.GetBlocks("rho", 0, dom()); err != nil {
		t.Fatal(err)
	}
	if n := sink.Total(); n != 0 {
		t.Fatalf("%d events emitted before the barrier; concurrent mode must buffer", n)
	}
	rig.pool.DrainEvents()
	events := sink.Events()
	if len(events) == 0 {
		t.Fatal("no events after drain; the breaker must have opened")
	}
	var sawDown bool
	for _, e := range events {
		if e.Kind == obs.KindEndpointDown && e.Endpoint == 1 {
			sawDown = true
		}
	}
	if !sawDown {
		t.Fatalf("drained events %v lack endpoint_down for server 1", events)
	}
	before := sink.Total()
	rig.pool.DrainEvents()
	if sink.Total() != before {
		t.Error("second DrainEvents re-emitted buffered events")
	}
}

// TestConcurrentFailoverCountedBeforeDrain pins where the worker executor
// counts: when the event is recorded, not when it is flushed. After a kill
// the failover counter is already live while the events still sit in the
// buffer, and the drain then emits exactly as many failover_get events as
// were counted.
func TestConcurrentFailoverCountedBeforeDrain(t *testing.T) {
	sink := obs.NewRingSink(256)
	rig := newConcRig(t, 3, 2, 4)
	rig.pool.events = obs.NewEmitter(sink)

	putAllConc(t, rig.pool, 0, spread(), 4)
	rig.kill(1)
	if _, err := rig.pool.GetBlocks("rho", 0, dom()); err != nil {
		t.Fatal(err)
	}
	counted := rig.pool.counts.Value(obs.KindFailoverGet)
	if counted == 0 || sink.Total() != 0 {
		t.Fatalf("before the drain: %v failovers counted, %d events emitted; want > 0 and 0",
			counted, sink.Total())
	}
	rig.pool.DrainEvents()
	emitted := 0
	for _, ev := range sink.Events() {
		if ev.Kind == obs.KindFailoverGet {
			emitted++
		}
	}
	if float64(emitted) != counted {
		t.Errorf("drained %d failover_get events, counted %v", emitted, counted)
	}
}

// TestSerialPoolEmitsInline is the deterministic-mode counterpart: with
// Concurrency <= 1 events reach the sink as they happen, no barrier needed.
func TestSerialPoolEmitsInline(t *testing.T) {
	sink := obs.NewRingSink(256)
	rig := newPoolRig(t, 3, 2)
	rig.pool.events = obs.NewEmitter(sink)

	putAll(t, rig.pool, 0, spread())
	rig.kill(1)
	if _, err := rig.pool.GetBlocks("rho", 0, dom()); err != nil {
		t.Fatal(err)
	}
	if sink.Total() == 0 {
		t.Fatal("serialized pool buffered events; must emit inline")
	}
}

// TestWorkerExecutorOverlapsLinkLatency pins what the worker executor is
// for. Loopback has no interconnect, so each server sits behind 150 µs of
// injected per-I/O latency: the inline executor pays every round trip in
// sequence, the per-endpoint workers overlap them. The workload is one
// workflow step's staging I/O (put 64 × 4 KiB blocks, read the region back,
// evict the previous version) on three servers with two replicas; the bar
// is the 1.5× EXPERIMENTS.md states.
func TestWorkerExecutorOverlapsLinkLatency(t *testing.T) {
	var blocks []*field.BoxData
	for i := 0; i < 64; i++ {
		blocks = append(blocks, block(grid.IV(16*(i%4), 16*(i/4%4), 16*(i/16)), 8, float64(i)))
	}
	wall := func(conc int) time.Duration {
		var addrs []string
		for i := 0; i < 3; i++ {
			ln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			serveOn(t, faultnet.Listen(ln, faultnet.Plan{Latency: 150 * time.Microsecond}), NewSpace(1, 0, dom()))
			addrs = append(addrs, ln.Addr().String())
		}
		p, err := NewPool(addrs, dom(), PoolOptions{Replicas: 2, Concurrency: conc})
		if err != nil {
			t.Fatal(err)
		}
		defer p.Close()
		start := time.Now()
		for v := 0; v < 3; v++ {
			putAllConc(t, p, v, blocks, conc)
			got, err := p.GetBlocks("rho", v, dom())
			if err != nil || len(got) != len(blocks) {
				t.Fatalf("concurrency %d: read back %d of %d blocks: %v", conc, len(got), len(blocks), err)
			}
			if _, err := p.DropBefore("rho", v); err != nil {
				t.Fatal(err)
			}
		}
		return time.Since(start)
	}
	serial, concurrent := wall(1), wall(16)
	ratio := float64(serial) / float64(concurrent)
	t.Logf("inline %v, Concurrency 16 %v: %.2fx", serial, concurrent, ratio)
	if ratio < 1.5 {
		t.Errorf("worker executor is %.2fx the inline one, want >= 1.5x", ratio)
	}
}
