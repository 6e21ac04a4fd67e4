package spec

import (
	"os"
	"sort"
	"testing"

	"crosslayer/internal/field"
	"crosslayer/internal/grid"
	"crosslayer/internal/staging"
)

// TestServeDataDirRecoversThroughSpec crosses the two tools that share a
// data-dir layout. A fleet built with the options `xlayer serve -servers 2
// -data-dir D` builds (cmd/xlayer/loadgen.go) takes puts and shuts down;
// the servers a spec with staging_data_dir D stands up must then recover
// every block — over two servers and, for server 0's share, over one —
// without adding a directory.
func TestServeDataDirRecoversThroughSpec(t *testing.T) {
	dir := t.TempDir()
	domain := grid.NewBox(grid.IV(0, 0, 0), grid.IV(15, 15, 15))

	served, err := staging.NewFleet(staging.FleetOptions{
		Servers: 2,
		Domain:  domain,
		Addr:    "127.0.0.1:0",
		DataDir: dir,
		Quotas:  map[string]staging.TenantQuota{},
		Server:  staging.ServerOptions{MaxConns: 4, Backlog: 2},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer served.Close()
	pool, err := staging.NewPool(served.Addrs(), domain, staging.PoolOptions{Replicas: 2})
	if err != nil {
		t.Fatal(err)
	}
	var want []*field.BoxData
	for i, lo := range []grid.IntVect{grid.IV(0, 0, 0), grid.IV(8, 0, 0), grid.IV(0, 8, 8), grid.IV(8, 8, 8)} {
		b := field.New(grid.BoxFromSize(lo, grid.IV(8, 8, 8)), 1)
		b.Fill(0, float64(i+1))
		if err := pool.Put("served", 0, b); err != nil {
			t.Fatal(err)
		}
		want = append(want, b)
	}
	pool.Close()
	if err := served.Shutdown(); err != nil {
		t.Fatal(err)
	}

	w := &Workflow{
		Application: "polytropic-gas", Domain: [3]int{16, 16, 16},
		StagingTCP: true, StagingServers: 2, StagingReplicas: 2, StagingDataDir: dir,
	}
	if err := w.validate(); err != nil {
		t.Fatal(err)
	}
	read := func() []*field.BoxData {
		t.Helper()
		store, closers, _, err := w.buildStaging(domain, nil, nil)
		if err != nil {
			t.Fatalf("spec servers over the served dir: %v", err)
		}
		got, err := store.GetBlocks("served", 0, domain)
		for i := len(closers) - 1; i >= 0; i-- {
			closers[i].Close()
		}
		if err != nil {
			t.Fatalf("read back through the spec-built store: %v", err)
		}
		return got
	}
	got := read()
	if len(got) != len(want) {
		t.Fatalf("pooled shape recovered %d of %d blocks", len(got), len(want))
	}
	sort.Slice(got, func(i, j int) bool { return got[i].Comp(0)[0] < got[j].Comp(0)[0] })
	for i := range want {
		if !got[i].Equal(want[i]) {
			t.Errorf("block %d came back different", i)
		}
	}
	w.StagingServers, w.StagingReplicas = 1, 1
	if got := read(); len(got) == 0 {
		t.Error("one-server shape recovered nothing from server-0")
	}

	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 2 || entries[0].Name() != "server-0" || entries[1].Name() != "server-1" {
		t.Errorf("data dir holds %v, want exactly server-0 and server-1", entries)
	}
}
