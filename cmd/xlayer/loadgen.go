package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"syscall"

	"crosslayer/internal/grid"
	"crosslayer/internal/loadgen"
	"crosslayer/internal/staging"
)

// setupLoadgen is `xlayer loadgen`: it drives the multi-tenant load harness
// and writes the xlayer-bench/v1 report when -out is given — before exiting
// 1 on any cross-tenant leak, so the report of a failed run is kept.
func setupLoadgen(fs *flag.FlagSet) func([]string) error {
	o := loadgen.Options{Log: os.Stdout}
	fs.IntVar(&o.Tenants, "tenants", 8, "concurrent tenant workflows")
	fs.IntVar(&o.Steps, "steps", 0, "versions each tenant pushes (0 = 6; 3 with -short)")
	fs.IntVar(&o.Servers, "servers", 3, "shared staging servers")
	fs.IntVar(&o.Replicas, "replicas", 2, "pool replication factor")
	fs.IntVar(&o.MaxConns, "max-conns", 4, "per-server admission cap; <0 = unlimited")
	fs.IntVar(&o.Backlog, "backlog", 3, "per-server bounded accept backlog")
	fs.Int64Var(&o.QuotaBytes, "quota-bytes", 0, "per-tenant per-server byte quota; 0 = unlimited")
	fs.IntVar(&o.QuotaBlocks, "quota-blocks", 0, "per-tenant per-server block quota; 0 = unlimited")
	fs.Int64Var(&o.Seed, "seed", 1, "arrival-jitter and backoff seed")
	fs.StringVar(&o.LogDir, "log-dir", "", "write one deterministic JSONL log per tenant into this directory")
	fs.BoolVar(&o.Short, "short", false, "trim the domain and step count — the CI smoke shape")
	outPath := fs.String("out", "", "write the xlayer-bench/v1 report to this file")
	return func([]string) error { return runLoadgen(o, *outPath) }
}

func runLoadgen(o loadgen.Options, outPath string) error {
	rep, err := loadgen.Run(o)
	if rep == nil {
		return err
	}
	return errors.Join(writeArtifact(outPath, rep.Write), err)
}

// setupServe is `xlayer serve`: it stands up N staging servers with the
// configured admission caps and blocks until SIGINT/SIGTERM. Addresses are
// printed one per line so a remote pool (or another xlayer process) can be
// pointed at them. With -data-dir each server is durable: it recovers its
// space from <dir>/server-<i> on start, fsyncs every put before acking, and
// the shutdown signal drains in-flight handlers and flushes the WALs before
// the process exits 0 — a kill -9 instead loses nothing acked.
func setupServe(fs *flag.FlagSet) func([]string) error {
	var fo staging.FleetOptions
	var quota staging.TenantQuota
	fs.StringVar(&fo.Addr, "addr", "127.0.0.1:0", "listen address; port 0 picks free ports")
	fs.IntVar(&fo.Servers, "servers", 1, "staging servers to stand up")
	fs.IntVar(&fo.Server.MaxConns, "max-conns", 4, "per-server admission cap; <0 = unlimited")
	fs.IntVar(&fo.Server.Backlog, "backlog", 3, "per-server bounded accept backlog")
	fs.StringVar(&fo.DataDir, "data-dir", "", "durable data directory: each server recovers its space from <dir>/server-<i> on start and fsyncs acked puts")
	fs.Int64Var(&quota.MaxBytes, "quota-bytes", 0, "per-tenant per-server byte quota; 0 = unlimited")
	fs.IntVar(&quota.MaxBlocks, "quota-blocks", 0, "per-tenant per-server block quota; 0 = unlimited")
	quotaTenants := fs.String("quota-tenants", "", "comma-separated tenant ids the quota flags apply to")
	domainEdge := fs.Int("domain-edge", 32, "cubic domain edge the spaces index blocks within")
	return func([]string) error { return runServe(fo, quota, *quotaTenants, *domainEdge) }
}

func runServe(fo staging.FleetOptions, quota staging.TenantQuota, quotaTenants string, domainEdge int) error {
	if domainEdge < 1 {
		domainEdge = 32
	}
	fo.Domain = grid.NewBox(grid.IV(0, 0, 0), grid.IV(domainEdge-1, domainEdge-1, domainEdge-1))
	fo.Quotas = map[string]staging.TenantQuota{}
	if quotaTenants != "" {
		for _, t := range strings.Split(quotaTenants, ",") {
			t = strings.TrimSpace(t)
			if !staging.ValidTenant(t) {
				return fmt.Errorf("serve: %w: %q", staging.ErrBadTenant, t)
			}
			fo.Quotas[t] = quota
		}
	}
	if (quota.MaxBytes > 0 || quota.MaxBlocks > 0) && len(fo.Quotas) == 0 {
		return fmt.Errorf("serve: -quota-bytes/-quota-blocks need -quota-tenants")
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
		len(addrs), fo.Server.MaxConns, fo.Server.Backlog)

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
