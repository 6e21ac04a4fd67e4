package staging

import (
	"errors"
	"fmt"
	"math/rand"
	"net"
	"os"
	"strings"
	"sync"
	"testing"
	"time"

	"crosslayer/internal/grid"
	"crosslayer/internal/obs"
)

func TestValidTenant(t *testing.T) {
	valid := []string{"t0", "team-a", "a.b_c-d", "A", strings.Repeat("x", 64)}
	for _, id := range valid {
		if !ValidTenant(id) {
			t.Errorf("ValidTenant(%q) = false, want true", id)
		}
	}
	invalid := []string{"", "a/b", "a#b", "a@b", "a b", "a\x00b", "é", "a\n",
		strings.Repeat("x", 65)}
	for _, id := range invalid {
		if ValidTenant(id) {
			t.Errorf("ValidTenant(%q) = true, want false", id)
		}
	}
}

func TestTenantVarRoundTrip(t *testing.T) {
	cases := []struct{ tenant, varName string }{
		{"t0", "analysis"},
		{"team-a", "analysis@3"},     // '@' legal in var names (version keys)
		{"t1", "analysis#r2"},        // replica-suffixed pool vars
		{"t2", "nested/looking/var"}, // '/' legal in var names: split is at the FIRST separator
		{"a.b_c-d", "x"},
	}
	for _, c := range cases {
		key, err := TenantVar(c.tenant, c.varName)
		if err != nil {
			t.Errorf("TenantVar(%q, %q): %v", c.tenant, c.varName, err)
			continue
		}
		ten, v, ok := SplitTenantVar(key)
		if !ok || ten != c.tenant || v != c.varName {
			t.Errorf("SplitTenantVar(%q) = (%q, %q, %v), want (%q, %q, true)",
				key, ten, v, ok, c.tenant, c.varName)
		}
		if got := TenantOf(key); got != c.tenant {
			t.Errorf("TenantOf(%q) = %q, want %q", key, got, c.tenant)
		}
	}
}

func TestTenantVarRejectsHostileInputs(t *testing.T) {
	// A tenant id that could collide with or escape into another namespace
	// must be rejected at encode time, not mangled.
	for _, tenant := range []string{"", "a/b", "a/../b", "t0/t1", "#", "@", "a b"} {
		if _, err := TenantVar(tenant, "x"); !errors.Is(err, ErrBadTenant) {
			t.Errorf("TenantVar(%q, x) err = %v, want ErrBadTenant", tenant, err)
		}
	}
	if _, err := TenantVar("t0", ""); err == nil {
		t.Error("TenantVar with empty var name accepted")
	}
}

func TestTenantOfUntenanted(t *testing.T) {
	// Historical keys and keys whose prefix is not a valid tenant id stay in
	// the root namespace.
	for _, key := range []string{"analysis", "analysis#r1", "a b/x", "/x", "é/x", "t0/"} {
		if got := TenantOf(key); got != "" {
			t.Errorf("TenantOf(%q) = %q, want \"\"", key, got)
		}
	}
}

// TestTenantHandleKeepsToItsNamespace checks the namespace rule on both ways
// of getting a tenant handle — PoolOptions.Tenant and Pool.Tenant: a
// restored manifest keeps none of another namespace's entries, and an audit
// skips them, while the untenanted handle still sees the whole pool.
func TestTenantHandleKeepsToItsNamespace(t *testing.T) {
	rig := newPoolRig(t, 3, 2)
	var addrs []string
	for _, g := range rig.gates {
		addrs = append(addrs, g.Addr().String())
	}
	optsPool, err := NewPool(addrs, dom(), PoolOptions{Replicas: 2, Tenant: "t0"})
	if err != nil {
		t.Fatal(err)
	}
	defer optsPool.Close()
	handle, err := rig.pool.Tenant("t0")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := handle.Tenant("t1"); err == nil {
		t.Fatal("a tenant handle scoped itself to a second tenant")
	}
	foreign := []ManifestEntry{{Var: "rho", Version: 0, Blocks: 1}, {Var: "t1/rho", Version: 0, Blocks: 3}}
	for name, p := range map[string]*Pool{"PoolOptions.Tenant": optsPool, "Pool.Tenant": handle} {
		if err := p.Put("rho", 0, block(grid.IV(0, 0, 0), 4, 1)); err != nil {
			t.Fatal(err)
		}
		own := Manifest{Entries: []ManifestEntry{{Var: "t0/rho", Version: 0, Blocks: 1}}}
		if got := p.Manifest(); !got.Equal(own) {
			t.Fatalf("%s: manifest %v, want %v", name, got, own)
		}
		p.RestoreManifest(Manifest{Entries: append(append([]ManifestEntry(nil), foreign...), own.Entries...)})
		if got := p.Manifest(); !got.Equal(own) {
			t.Errorf("%s: manifest after restoring foreign entries %v, want %v", name, got, own)
		}
		if missing := p.Audit(Manifest{Entries: foreign}); missing != 0 {
			t.Errorf("%s: audit of foreign entries reported %d missing, want them skipped", name, missing)
		}
		if missing := rig.pool.Audit(Manifest{Entries: foreign}); missing != 4 {
			t.Errorf("%s: untenanted audit of unstored entries reported %d missing, want 4", name, missing)
		}
	}
}

// TestTenantHandleRepairCoversWholePool: a rejoin repair runs from whichever
// handle's operation probes the endpoint, and restores every tenant's data,
// not only the probing handle's namespace.
func TestTenantHandleRepairCoversWholePool(t *testing.T) {
	rig := newPoolRig(t, 3, 2)
	t0, err := rig.pool.Tenant("t0")
	if err != nil {
		t.Fatal(err)
	}
	t1, err := rig.pool.Tenant("t1")
	if err != nil {
		t.Fatal(err)
	}
	putAll(t, t0, 0, spread())
	putAll(t, t1, 0, spread())
	want0, _ := rig.spaces[1].TenantUsage("t0")
	want1, _ := rig.spaces[1].TenantUsage("t1")
	rig.kill(1)
	if _, err := t0.GetBlocks("rho", 0, dom()); err != nil { // trips the breaker
		t.Fatal(err)
	}
	rig.gates[1].Revive()
	if _, err := t0.GetBlocks("rho", 0, dom()); err != nil { // probes, repairs, rejoins
		t.Fatal(err)
	}
	if healthy, _ := rig.pool.HealthyEndpoints(); healthy != 3 {
		t.Fatalf("healthy = %d, want 3 after rejoin", healthy)
	}
	got0, _ := rig.spaces[1].TenantUsage("t0")
	got1, _ := rig.spaces[1].TenantUsage("t1")
	if want0 == 0 || got0 != want0 || got1 != want1 {
		t.Fatalf("repaired server holds t0 %d B, t1 %d B; want %d B, %d B", got0, got1, want0, want1)
	}
}

func TestSpaceTenantQuota(t *testing.T) {
	sp := NewSpace(2, 0, dom())
	blockBytes := block(grid.IV(0, 0, 0), 4, 1).Bytes()
	sp.SetTenantQuota("t0", TenantQuota{MaxBytes: 3 * blockBytes})

	key, _ := TenantVar("t0", "rho")
	for v := 0; v < 3; v++ {
		if err := sp.Put(key, v, block(grid.IV(0, 0, 0), 4, float64(v))); err != nil {
			t.Fatalf("put %d within quota: %v", v, err)
		}
	}
	if err := sp.Put(key, 3, block(grid.IV(0, 0, 0), 4, 9)); !errors.Is(err, ErrQuotaExceeded) {
		t.Fatalf("put over quota err = %v, want ErrQuotaExceeded", err)
	}
	bytes, blocks := sp.TenantUsage("t0")
	if bytes != 3*blockBytes || blocks != 3 {
		t.Errorf("TenantUsage = (%d, %d), want (%d, 3)", bytes, blocks, 3*blockBytes)
	}

	// Another tenant and the root namespace are not constrained by t0's quota.
	other, _ := TenantVar("t1", "rho")
	if err := sp.Put(other, 0, block(grid.IV(0, 0, 0), 4, 1)); err != nil {
		t.Errorf("other tenant put: %v", err)
	}
	if err := sp.Put("rho", 0, block(grid.IV(0, 0, 0), 4, 1)); err != nil {
		t.Errorf("untenanted put: %v", err)
	}

	// Eviction returns headroom: dropping versions < 2 frees two blocks.
	if freed, err := sp.DropBefore(key, 2); err != nil || freed != 2*blockBytes {
		t.Fatalf("DropBefore = %d, %v; want %d bytes", freed, err, 2*blockBytes)
	}
	bytes, blocks = sp.TenantUsage("t0")
	if bytes != blockBytes || blocks != 1 {
		t.Errorf("TenantUsage after drop = (%d, %d), want (%d, 1)", bytes, blocks, blockBytes)
	}
	if err := sp.Put(key, 3, block(grid.IV(0, 0, 0), 4, 9)); err != nil {
		t.Errorf("put after eviction: %v", err)
	}
}

func TestSpaceTenantQuotaBlocksAndReplace(t *testing.T) {
	sp := NewSpace(1, 0, dom())
	sp.SetTenantQuota("t0", TenantQuota{MaxBlocks: 2})
	key, _ := TenantVar("t0", "rho")
	// A sequenced replace must not consume quota twice.
	if err := sp.PutSeq(key, 0, 7, block(grid.IV(0, 0, 0), 4, 1)); err != nil {
		t.Fatal(err)
	}
	if err := sp.PutSeq(key, 0, 7, block(grid.IV(0, 0, 0), 4, 2)); err != nil {
		t.Fatalf("same-seq replace rejected: %v", err)
	}
	if _, blocks := sp.TenantUsage("t0"); blocks != 1 {
		t.Fatalf("blocks after replace = %d, want 1", blocks)
	}
	if err := sp.Put(key, 1, block(grid.IV(8, 0, 0), 4, 1)); err != nil {
		t.Fatal(err)
	}
	if err := sp.Put(key, 2, block(grid.IV(16, 0, 0), 4, 1)); !errors.Is(err, ErrQuotaExceeded) {
		t.Fatalf("third block err = %v, want ErrQuotaExceeded", err)
	}

	// At the cap, in either dimension, a put that books nothing new is
	// admitted: a same-seq replay (a client resending a put whose response
	// it lost) and an identical repair re-put under the negated seq. A new
	// block is still refused.
	blockBytes := block(grid.IV(0, 0, 0), 4, 1).Bytes()
	for _, q := range []TenantQuota{{MaxBlocks: 1}, {MaxBytes: blockBytes}} {
		sp := NewSpace(1, 0, dom())
		sp.SetTenantQuota("t0", q)
		if err := sp.PutSeq(key, 0, 7, block(grid.IV(0, 0, 0), 4, 1)); err != nil {
			t.Fatalf("%+v: first block: %v", q, err)
		}
		if err := sp.PutSeq(key, 0, 7, block(grid.IV(0, 0, 0), 4, 1)); err != nil {
			t.Errorf("%+v: same-seq replay at the cap: %v", q, err)
		}
		if err := sp.PutSeq(key, 0, -7, block(grid.IV(0, 0, 0), 4, 1)); err != nil {
			t.Errorf("%+v: identical repair re-put at the cap: %v", q, err)
		}
		if bytes, blocks := sp.TenantUsage("t0"); bytes != blockBytes || blocks != 1 {
			t.Errorf("%+v: usage = %d B %d blocks, want %d B 1 block", q, bytes, blocks, blockBytes)
		}
		if err := sp.PutSeq(key, 0, 8, block(grid.IV(8, 0, 0), 4, 1)); !errors.Is(err, ErrQuotaExceeded) {
			t.Errorf("%+v: new block at the cap err = %v, want ErrQuotaExceeded", q, err)
		}
	}
}

// countingSink tallies events by kind; used to reconcile admission events
// against stats and metrics.
type countingSink struct {
	mu     sync.Mutex
	byKind map[obs.Kind]int
}

func (s *countingSink) Emit(ev obs.Event) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.byKind == nil {
		s.byKind = make(map[obs.Kind]int)
	}
	s.byKind[ev.Kind]++
}
func (s *countingSink) Close() error { return nil }

func (s *countingSink) count(kind obs.Kind) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.byKind[kind]
}

// waitFor polls until cond holds or the deadline lapses.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// startAdmissionServer stands up a server with the given admission caps,
// wired to a counting event sink and a metrics registry.
func startAdmissionServer(t *testing.T, maxConns, backlog int) (*Server, *countingSink, *obs.Registry) {
	t.Helper()
	reg := obs.NewRegistry()
	srv, sink := startAdmissionServerOn(t, maxConns, backlog, reg)
	return srv, sink, reg
}

// startAdmissionServerOn is startAdmissionServer over the caller's registry;
// nil builds the server the way every registry-less deployment does.
func startAdmissionServerOn(t *testing.T, maxConns, backlog int, reg *obs.Registry) (*Server, *countingSink) {
	t.Helper()
	sink := &countingSink{}
	sp := NewSpace(2, 0, dom())
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv, err := NewServer(ln, sp, ServerOptions{
		MaxConns: maxConns,
		Backlog:  backlog,
		Events:   obs.NewEmitter(sink),
		Metrics:  reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	return srv, sink
}

// noRetryClient dials with the retry budget disabled so each op maps to
// exactly one wire attempt.
func noRetryClient(t *testing.T, addr string) *Client {
	t.Helper()
	c := NewClient(addr, ClientOptions{MaxRetries: -1, OpTimeout: 2 * time.Second})
	t.Cleanup(func() { c.Close() })
	return c
}

// TestAdmissionConnFlood is the regression test for the once-unbounded
// accept loop: with MaxConns=2 and no backlog, two established connections
// occupy both slots and every further connection is refused
// deterministically — shed with reason max_conns, counted identically by
// AdmissionStats, the shed events, and the Prometheus counter — while
// Close still drains cleanly with connections open. It runs with and
// without a registry: AdmissionStats reads the same counters either way,
// registered or not.
func TestAdmissionConnFlood(t *testing.T) {
	t.Run("registry", func(t *testing.T) { testAdmissionConnFlood(t, obs.NewRegistry()) })
	t.Run("no registry", func(t *testing.T) { testAdmissionConnFlood(t, nil) })
}

func testAdmissionConnFlood(t *testing.T, reg *obs.Registry) {
	srv, sink := startAdmissionServerOn(t, 2, 0, reg)

	c1 := noRetryClient(t, srv.Addr())
	c2 := noRetryClient(t, srv.Addr())
	if _, err := c1.MemUsed(); err != nil {
		t.Fatal(err)
	}
	if _, err := c2.MemUsed(); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "both slots held", func() bool {
		admitted, _, _, _ := srv.AdmissionStats()
		return admitted == 2
	})

	const flood = 3
	for i := 0; i < flood; i++ {
		c := noRetryClient(t, srv.Addr())
		if _, err := c.MemUsed(); err == nil {
			t.Fatalf("flood conn %d admitted past MaxConns", i)
		}
	}
	waitFor(t, "flood conns shed", func() bool {
		_, _, shed, _ := srv.AdmissionStats()
		return shed == flood
	})
	admitted, queued, shed, _ := srv.AdmissionStats()
	if admitted != 2 || queued != 0 || shed != flood {
		t.Errorf("AdmissionStats = (%d, %d, %d), want (2, 0, %d)", admitted, queued, shed, flood)
	}
	if n := sink.count(obs.KindAdmissionShed); n != flood {
		t.Errorf("shed events = %d, want %d", n, flood)
	}
	if reg != nil {
		for _, c := range []struct {
			name, reason string
			want         int64
		}{
			{"xlayer_staging_admission_admitted_total", "", admitted},
			{"xlayer_staging_admission_queued_total", "", queued},
			{"xlayer_staging_admission_shed_total", "max_conns", shed},
			{"xlayer_staging_admission_shed_total", "backlog_full", 0},
			{"xlayer_staging_admission_quota_rejected_total", "", 0},
		} {
			var labels []string
			if c.reason != "" {
				labels = []string{"reason", c.reason}
			}
			if v := reg.Counter(c.name, "", labels...).Value(); int64(v) != c.want {
				t.Errorf("%s%v = %v, AdmissionStats says %d", c.name, labels, v, c.want)
			}
		}
	}

	// Releasing a slot lets the next connection through.
	c1.Close()
	c3 := noRetryClient(t, srv.Addr())
	waitFor(t, "freed slot re-admitted", func() bool {
		_, err := c3.MemUsed()
		return err == nil
	})

	// Close must drain with c2/c3 still connected — severed, not leaked.
	done := make(chan error, 1)
	go func() { done <- srv.Close() }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("Close: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Close did not drain with connections open")
	}
}

// TestAdmissionBacklogQueues pins the backlog path: with every slot held,
// exactly Backlog connections wait, the next one is shed with reason
// backlog_full, and the waiting one is admitted when a slot frees.
func TestAdmissionBacklogQueues(t *testing.T) {
	srv, sink, reg := startAdmissionServer(t, 1, 1)

	c1 := noRetryClient(t, srv.Addr())
	if _, err := c1.MemUsed(); err != nil {
		t.Fatal(err)
	}
	// c2 waits: its op blocks until c1 releases the slot.
	c2 := noRetryClient(t, srv.Addr())
	res := make(chan error, 1)
	go func() {
		_, err := c2.MemUsed()
		res <- err
	}()
	waitFor(t, "conn queued", func() bool {
		_, queued, _, _ := srv.AdmissionStats()
		return queued == 1
	})
	// Slot and backlog both full: the next connection is shed as
	// backlog_full.
	c3 := noRetryClient(t, srv.Addr())
	if _, err := c3.MemUsed(); err == nil {
		t.Fatal("conn admitted past slot + backlog")
	}
	waitFor(t, "overflow shed", func() bool {
		_, _, shed, _ := srv.AdmissionStats()
		return shed == 1
	})
	if admitted, queued, _, _ := srv.AdmissionStats(); admitted != 1 || queued != 1 {
		t.Errorf("AdmissionStats admitted, queued = %d, %d; want 1, 1", admitted, queued)
	}
	if v := reg.Counter("xlayer_staging_admission_shed_total", "",
		"reason", "backlog_full").Value(); v != 1 {
		t.Errorf("shed{reason=backlog_full} metric = %v, want 1", v)
	}
	// The server counts the shed before it emits the event.
	waitFor(t, "shed event", func() bool { return sink.count(obs.KindAdmissionShed) == 1 })

	c1.Close()
	select {
	case err := <-res:
		if err != nil {
			t.Fatalf("queued conn's op failed after slot freed: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("queued conn never admitted after slot freed")
	}
}

// TestAdmissionWaiterClosedAtStop holds the one slot with a request parked
// in the request hook while a second connection waits for it, then stops
// the server: the waiter must be closed unserved at once — not after the
// slot frees — and never counted as admitted, and the stop must return
// once the held request is let go. Close severs the held request;
// Shutdown lets it finish.
func TestAdmissionWaiterClosedAtStop(t *testing.T) {
	for _, graceful := range []bool{false, true} {
		name := map[bool]string{false: "Close", true: "Shutdown"}[graceful]
		t.Run(name, func(t *testing.T) {
			entered, release := make(chan struct{}), make(chan struct{})
			var once sync.Once
			ln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			srv, err := NewServer(ln, NewSpace(1, 0, dom()), ServerOptions{
				MaxConns: 1, Backlog: 1,
				RequestHook: func(byte) {
					once.Do(func() { close(entered) })
					<-release
				},
			})
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { srv.Close() })
			var releaseOnce sync.Once
			letGo := func() { releaseOnce.Do(func() { close(release) }) }
			t.Cleanup(letGo)

			holder := noRetryClient(t, srv.Addr())
			held := make(chan error, 1)
			go func() {
				_, err := holder.MemUsed()
				held <- err
			}()
			<-entered
			waiter, err := net.Dial("tcp", srv.Addr())
			if err != nil {
				t.Fatal(err)
			}
			defer waiter.Close()
			waitFor(t, "conn queued", func() bool {
				_, queued, _, _ := srv.AdmissionStats()
				return queued == 1
			})

			stopped := make(chan error, 1)
			go func() {
				if graceful {
					stopped <- srv.Shutdown()
				} else {
					stopped <- srv.Close()
				}
			}()
			// The slot is still held: only the stop itself can release the
			// waiter.
			waiter.SetReadDeadline(time.Now().Add(5 * time.Second))
			if _, err := waiter.Read(make([]byte, 1)); errors.Is(err, os.ErrDeadlineExceeded) {
				t.Fatal("waiting conn still open while the server stops")
			} else if err == nil {
				t.Fatal("waiting conn was served")
			}

			letGo()
			select {
			case err := <-stopped:
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
			case <-time.After(5 * time.Second):
				t.Fatalf("%s did not return", name)
			}
			if err := <-held; graceful && err != nil {
				t.Errorf("held request failed under Shutdown: %v", err)
			}
			if admitted, queued, _, _ := srv.AdmissionStats(); admitted != 1 || queued != 1 {
				t.Errorf("AdmissionStats admitted, queued = %d, %d; want 1, 1", admitted, queued)
			}
		})
	}
}

// TestAdmissionQuotaReconciliation is the seeded property test: random
// quota configurations and random tenant workloads, then an exact
// reconciliation — client-observed quota rejections == the server's
// AdmissionStats tally == the quota_rejected metric == the emitted
// quota_rejected events, and admitted/shed stats == their metrics.
func TestAdmissionQuotaReconciliation(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			srv, sink, reg := startAdmissionServer(t, 2+rng.Intn(3), rng.Intn(2))
			tenants := 2 + rng.Intn(2)
			tenantID := func(i int) string { return fmt.Sprintf("t%d", i) }
			blockBytes := block(grid.IV(0, 0, 0), 4, 1).Bytes()
			for i := 0; i < tenants; i++ {
				// Quota between 1 and 6 blocks' worth of bytes; tenant 0
				// additionally gets a block-count cap.
				q := TenantQuota{MaxBytes: int64(1+rng.Intn(6)) * blockBytes}
				if i == 0 {
					q.MaxBlocks = 1 + rng.Intn(4)
				}
				srv.space.SetTenantQuota(tenantID(i), q)
			}

			rejected := 0
			for op := 0; op < 40; op++ {
				tenant := tenantID(rng.Intn(tenants))
				key, err := TenantVar(tenant, "rho")
				if err != nil {
					t.Fatal(err)
				}
				cl := noRetryClient(t, srv.Addr())
				lo := grid.IV(8*rng.Intn(4), 8*rng.Intn(4), 0)
				err = cl.Put(key, rng.Intn(4), block(lo, 4, float64(op)))
				switch {
				case err == nil:
				case errors.Is(err, ErrQuotaExceeded):
					rejected++
				default:
					t.Fatalf("op %d: %v", op, err)
				}
				cl.Close()
				// The handler releases its admission slot asynchronously
				// after the close; a dial that beats the release could find
				// every slot taken and be shed.
				waitFor(t, "slot released", func() bool { return len(srv.slots) == 0 })
			}
			if rejected == 0 {
				t.Fatalf("seed produced no quota rejections; tighten the generator")
			}

			_, _, _, quotaStat := srv.AdmissionStats()
			if int(quotaStat) != rejected {
				t.Errorf("AdmissionStats quota = %d, client saw %d", quotaStat, rejected)
			}
			if v := reg.Counter("xlayer_staging_admission_quota_rejected_total", "").Value(); int(v) != rejected {
				t.Errorf("quota_rejected metric = %v, client saw %d", v, rejected)
			}
			if n := sink.count(obs.KindQuotaRejected); n != rejected {
				t.Errorf("quota_rejected events = %d, client saw %d", n, rejected)
			}

			// Admission tallies and their metrics must agree exactly too.
			waitFor(t, "admission stats settled", func() bool {
				admitted, queued, shed, _ := srv.AdmissionStats()
				return int(reg.Counter("xlayer_staging_admission_admitted_total", "").Value()) == int(admitted) &&
					int(reg.Counter("xlayer_staging_admission_queued_total", "").Value()) == int(queued) &&
					int(reg.Counter("xlayer_staging_admission_shed_total", "", "reason", "max_conns").Value())+
						int(reg.Counter("xlayer_staging_admission_shed_total", "", "reason", "backlog_full").Value()) == int(shed)
			})
		})
	}
}
