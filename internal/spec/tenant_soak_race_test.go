//go:build race

package spec

import (
	"bytes"
	"fmt"
	"net"
	"sync"
	"testing"
	"time"

	"crosslayer/internal/amr"
	"crosslayer/internal/core"
	"crosslayer/internal/faultnet"
	"crosslayer/internal/grid"
	"crosslayer/internal/obs"
	"crosslayer/internal/policy"
	"crosslayer/internal/solver"
	"crosslayer/internal/staging"
	"crosslayer/internal/sysmodel"
)

// tenantSoakPool stands up a shared 3-server / 2-replica staging pool, every
// link behind a seeded faultnet latency plan, and returns it untenanted so
// the test hands out per-tenant handles.
func tenantSoakPool(t *testing.T) *staging.Pool {
	t.Helper()
	domain := grid.NewBox(grid.IV(0, 0, 0), grid.IV(15, 15, 15))
	plan := faultnet.Plan{Seed: 11, Latency: 100 * time.Microsecond}
	var addrs []string
	for i := 0; i < 3; i++ {
		sp := staging.NewSpace(1, 0, domain)
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		srv, err := staging.NewServer(faultnet.Listen(ln, plan), sp, staging.ServerOptions{})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { srv.Close() })
		addrs = append(addrs, ln.Addr().String())
	}
	pool, err := staging.NewPool(addrs, domain, staging.PoolOptions{
		Replicas: 2,
		Client: staging.ClientOptions{
			OpTimeout:   2 * time.Second,
			MaxRetries:  1,
			BackoffBase: time.Millisecond,
			BackoffMax:  10 * time.Millisecond,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { pool.Close() })
	return pool
}

// runTenantWorkflow drives one seeded workflow over the given staging store
// with its events attributed to tenant, returning the event log bytes.
func runTenantWorkflow(tenant string, store core.StagingStore, steps int) ([]byte, error) {
	sim := solver.NewAdvectionDiffusion(solver.AdvDiffConfig{
		AMR: amr.Config{
			Domain:   grid.NewBox(grid.IV(0, 0, 0), grid.IV(15, 15, 15)),
			MaxLevel: 1,
			NRanks:   8,
		},
	})
	var buf bytes.Buffer
	em := obs.NewEmitter(obs.NewJSONLSink(&buf))
	cfg := core.Config{
		Machine:         sysmodel.Intrepid(),
		SimCores:        2048,
		StagingCores:    128,
		CellScale:       1000,
		StaticPlacement: policy.PlaceInTransit,
		Staging:         store,
		Tenant:          tenant,
		Obs:             em,
	}
	wf, err := core.NewWorkflow(cfg, sim)
	if err != nil {
		return nil, err
	}
	wf.AddCloser(em)
	wf.Run(steps)
	if err := wf.Close(); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// TestMultiTenantSharedPoolSoak runs 8 tenant workflows concurrently over
// one shared 3-server / 2-replica pool under the race detector and seeded
// faultnet latency (`make race` sets the build tag). The multi-tenant
// contract under test: every tenant's event log is byte-identical to the
// same tenant's solo run over a pool of its own, each tenant's manifest
// audit finds all of its blocks on the shared servers, and no tenant's
// manifest carries a foreign entry — concurrent co-tenants shift wall time
// only, never a tenant's observed schedule or data.
func TestMultiTenantSharedPoolSoak(t *testing.T) {
	if testing.Short() {
		t.Skip("soak test skipped in -short mode")
	}
	const (
		tenants = 8
		steps   = 8
	)

	// Solo baselines: each tenant alone on a pool of its own (same server
	// shape, same fault plan, same seed), still through a tenant handle.
	solo := make([][]byte, tenants)
	for i := 0; i < tenants; i++ {
		tenant := fmt.Sprintf("t%d", i)
		pool := tenantSoakPool(t)
		handle, err := pool.Tenant(tenant)
		if err != nil {
			t.Fatal(err)
		}
		log, err := runTenantWorkflow(tenant, handle, steps)
		if err != nil {
			t.Fatalf("solo %s: %v", tenant, err)
		}
		solo[i] = log
	}

	// Shared run: all 8 tenants concurrently over ONE pool.
	pool := tenantSoakPool(t)
	handles := make([]*staging.Pool, tenants)
	logs := make([][]byte, tenants)
	errs := make([]error, tenants)
	var wg sync.WaitGroup
	for i := 0; i < tenants; i++ {
		tenant := fmt.Sprintf("t%d", i)
		handle, err := pool.Tenant(tenant)
		if err != nil {
			t.Fatal(err)
		}
		handles[i] = handle
		wg.Add(1)
		go func(i int, tenant string) {
			defer wg.Done()
			logs[i], errs[i] = runTenantWorkflow(tenant, handles[i], steps)
		}(i, tenant)
	}
	wg.Wait()

	for i := 0; i < tenants; i++ {
		tenant := fmt.Sprintf("t%d", i)
		if errs[i] != nil {
			t.Fatalf("shared %s: %v", tenant, errs[i])
		}
		if len(logs[i]) == 0 {
			t.Fatalf("shared %s: empty event log", tenant)
		}
		if !bytes.Equal(logs[i], solo[i]) {
			t.Errorf("%s: shared-pool event log differs from solo run", tenant)
		}
		// Every block this tenant's workflow recorded live must still be on
		// the shared servers, readable through the tenant's own handle.
		if missing := handles[i].AuditManifest(); missing != 0 {
			t.Errorf("%s: manifest audit missing %d blocks", tenant, missing)
		}
		// And the handle's manifest must be exactly its own namespace.
		for _, e := range handles[i].Manifest().Entries {
			if staging.TenantOf(e.Var) != tenant {
				t.Errorf("%s: foreign manifest entry %q", tenant, e.Var)
			}
		}
	}

	// The pool-wide manifest is exactly the disjoint union of the tenants'.
	total := 0
	for _, h := range handles {
		total += len(h.Manifest().Entries)
	}
	if got := len(pool.Manifest().Entries); got != total {
		t.Errorf("pool manifest has %d entries, tenant handles account for %d", got, total)
	}
}
