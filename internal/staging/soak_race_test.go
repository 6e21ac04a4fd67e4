//go:build race

package staging

import (
	"net"
	"sync"
	"testing"
	"time"

	"crosslayer/internal/faultnet"
	"crosslayer/internal/field"
)

// TestConcurrentPoolFaultSoak drives the parallel data path hard under the
// race detector (`make race` sets the build tag): a 3-server / 2-replica
// pool at Concurrency 8, every link behind a seeded faultnet plan that adds
// latency and severs each connection after a byte budget, plus a full
// crash/rejoin of one server mid-soak. Writers and readers run
// concurrently throughout. At the end the pool's manifest must account for
// every successful put and a full replica audit must find zero lost
// blocks.
func TestConcurrentPoolFaultSoak(t *testing.T) {
	if testing.Short() {
		t.Skip("soak test skipped in -short mode")
	}
	const (
		servers  = 3
		replicas = 2
		conc     = 8
		versions = 12
	)
	plan := faultnet.Plan{
		Seed:           7,
		Latency:        100 * time.Microsecond,
		DropAfterBytes: 64 << 10,
	}

	var (
		addrs  []string
		gates  []*faultnet.Gate
		spaces []*Space
	)
	for i := 0; i < servers; i++ {
		sp := NewSpace(1, 0, dom())
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		g := faultnet.NewGate(ln)
		serveOn(t, faultnet.Listen(g, plan), sp)
		gates = append(gates, g)
		spaces = append(spaces, sp)
		addrs = append(addrs, ln.Addr().String())
	}
	pool, err := NewPool(addrs, dom(), PoolOptions{
		Replicas:    replicas,
		Concurrency: conc,
		Client: ClientOptions{
			OpTimeout:   5 * time.Second,
			MaxRetries:  3, // absorb the plan's connection drops
			BackoffBase: time.Millisecond,
			BackoffMax:  5 * time.Millisecond,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	pool.thresh, pool.probeEvn = 1, 1 // trip and probe on every operation
	t.Cleanup(func() { pool.Close() })

	blocks := spread()
	for v := 0; v < versions; v++ {
		// Crash server 1 after version 3 settles (transport severed, state
		// wiped); rejoin it before version 8's puts.
		if v == 4 {
			gates[1].Kill()
			spaces[1].Clear()
		}
		if v == 8 {
			gates[1].Revive()
		}

		// conc writer goroutines ship this version while readers replay
		// earlier, fully settled versions, failing over to replicas while
		// server 1 is down (reading the in-flight version would
		// legitimately return a partial set).
		var wg sync.WaitGroup
		sem := make(chan struct{}, conc)
		errs := make(chan error, len(blocks)+2)
		for _, b := range blocks {
			sem <- struct{}{}
			wg.Add(1)
			go func(b *field.BoxData) {
				defer wg.Done()
				defer func() { <-sem }()
				if err := pool.Put("rho", v, b); err != nil {
					errs <- err
				}
			}(b)
		}
		for _, rv := range []int{v - 1, (v - 1) / 2} {
			// Note (-1)/2 truncates to 0 in Go: the rv >= v half of the
			// guard keeps version 0's iteration from reading itself.
			if rv < 0 || rv >= v {
				continue
			}
			wg.Add(1)
			go func(rv int) {
				defer wg.Done()
				got, err := pool.GetBlocks("rho", rv, dom())
				if err != nil {
					errs <- err
					return
				}
				if len(got) != len(blocks) {
					t.Errorf("version %d read %d of %d blocks", rv, len(got), len(blocks))
				}
			}(rv)
		}
		wg.Wait()
		close(errs)
		for err := range errs {
			t.Fatalf("version %d: %v", v, err)
		}
		pool.DrainEvents()
	}

	// One more full read lets the breaker probe, repair, and rejoin the
	// revived server before the audit scrutinizes every replica.
	if _, err := pool.GetBlocks("rho", versions-1, dom()); err != nil {
		t.Fatal(err)
	}
	if healthy, total := pool.HealthyEndpoints(); healthy != total {
		t.Errorf("%d/%d endpoints healthy after rejoin", healthy, total)
	}

	m := pool.Manifest()
	if len(m.Entries) != versions {
		t.Fatalf("manifest has %d entries, want %d", len(m.Entries), versions)
	}
	for _, e := range m.Entries {
		if e.Var != "rho" || e.Blocks != len(blocks) {
			t.Fatalf("manifest entry %+v, want %d blocks of rho", e, len(blocks))
		}
	}
	if missing := pool.Audit(m); missing != 0 {
		t.Fatalf("audit found %d lost blocks after faulted soak", missing)
	}
}
