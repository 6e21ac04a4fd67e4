package main

import (
	"fmt"
	"os"
	"os/signal"
	"strings"
	"syscall"

	"crosslayer/internal/grid"
	"crosslayer/internal/loadgen"
	"crosslayer/internal/staging"
)

// loadgenOpts mirrors the loadgen-mode flags.
type loadgenOpts struct {
	tenants, steps    int
	servers, replicas int
	maxConns, backlog int
	quotaBytes        int64
	quotaBlocks       int
	seed              int64
	logDir, outPath   string
	short             bool
}

// runLoadgen drives the multi-tenant load harness and writes the
// xlayer-bench/v1 report when -out is given.
func runLoadgen(o loadgenOpts) error {
	rep, err := loadgen.Run(loadgen.Options{
		Tenants:     o.tenants,
		Steps:       o.steps,
		Servers:     o.servers,
		Replicas:    o.replicas,
		MaxConns:    o.maxConns,
		Backlog:     o.backlog,
		QuotaBytes:  o.quotaBytes,
		QuotaBlocks: o.quotaBlocks,
		Seed:        o.seed,
		LogDir:      o.logDir,
		Short:       o.short,
		Log:         os.Stdout,
	})
	if err != nil {
		return err
	}
	for _, e := range rep.Entries {
		if e.Name != "loadgen/aggregate" {
			continue
		}
		if leaks := e.Metrics["manifest_leak_total"] + e.Metrics["checksum_mismatch_total"] +
			e.Metrics["audit_missing_total"]; leaks > 0 {
			return fmt.Errorf("loadgen: tenant isolation violated (leaks/mismatches/missing = %v)", leaks)
		}
	}
	if o.outPath != "" {
		if err := writeArtifact(o.outPath, func(f *os.File) error { return rep.Write(f) }); err != nil {
			return err
		}
		fmt.Println("wrote", o.outPath)
	}
	return nil
}

// serveOpts mirrors the serve-mode flags.
type serveOpts struct {
	addr              string
	servers           int
	maxConns, backlog int
	domainEdge        int
	quotaBytes        int64
	quotaBlocks       int
	quotaTenants      string
	dataDir           string
}

// runServe stands up N staging servers with the configured admission caps
// and blocks until SIGINT/SIGTERM. Addresses are printed one per line so a
// remote pool (or another xlayer process) can be pointed at them. With
// -data-dir each server is durable: it recovers its space from
// <dir>/server-<i> on start, fsyncs every put before acking, and the
// shutdown signal drains in-flight handlers and flushes the WALs before
// the process exits 0 — a kill -9 instead loses nothing acked.
func runServe(o serveOpts) error {
	if o.servers < 1 {
		o.servers = 1
	}
	if o.domainEdge < 1 {
		o.domainEdge = 32
	}
	domain := grid.NewBox(grid.IV(0, 0, 0),
		grid.IV(o.domainEdge-1, o.domainEdge-1, o.domainEdge-1))
	var tenants []string
	if o.quotaTenants != "" {
		for _, t := range strings.Split(o.quotaTenants, ",") {
			t = strings.TrimSpace(t)
			if !staging.ValidTenant(t) {
				return fmt.Errorf("serve: %w: %q", staging.ErrBadTenant, t)
			}
			tenants = append(tenants, t)
		}
	}
	if (o.quotaBytes > 0 || o.quotaBlocks > 0) && len(tenants) == 0 {
		return fmt.Errorf("serve: -quota-bytes/-quota-blocks need -quota-tenants")
	}

	fo := staging.FleetOptions{
		Servers: o.servers,
		Domain:  domain,
		Addr:    o.addr,
		DataDir: o.dataDir,
		Quotas:  make(map[string]staging.TenantQuota, len(tenants)),
		Server:  staging.ServerOptions{MaxConns: o.maxConns, Backlog: o.backlog},
	}
	for _, t := range tenants {
		fo.Quotas[t] = staging.TenantQuota{MaxBytes: o.quotaBytes, MaxBlocks: o.quotaBlocks}
	}
	fleet, err := staging.NewFleet(fo)
	if err != nil {
		return fmt.Errorf("serve: %w", err)
	}
	defer fleet.Close()
	addrs := fleet.Addrs()
	for i, addr := range addrs {
		if rs := fleet.Server(i).RecoverStats(); rs != nil {
			fmt.Fprintf(os.Stderr, "server %d: recovered %d blocks (%d bytes) from %s (snapshot=%d wal=%d torn_tail=%v)\n",
				i, rs.Blocks, rs.Bytes, fleet.DataDir(i), rs.SnapshotBlocks, rs.WALRecords, rs.TornTail)
		}
		fmt.Println(addr)
	}
	fmt.Fprintf(os.Stderr, "serving %d staging server(s); max_conns=%d backlog=%d; ^C to stop\n",
		o.servers, o.maxConns, o.backlog)

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	// Graceful shutdown: drain in-flight handlers, flush + fsync every WAL,
	// then report and exit 0. Shutdown is idempotent with the deferred
	// Close, which becomes a no-op for already-shut servers.
	if err := fleet.Shutdown(); err != nil {
		return fmt.Errorf("serve: shutdown: %w", err)
	}
	for i := range addrs {
		admitted, queued, shed, quota := fleet.Server(i).AdmissionStats()
		fmt.Fprintf(os.Stderr, "admission: admitted=%d queued=%d shed=%d quota_rejected=%d\n",
			admitted, queued, shed, quota)
	}
	return nil
}
