// Package loadgen is the multi-tenant staging load harness behind `xlayer
// loadgen`: a reproducible closed-loop driver that launches K tenant
// workflows with seeded arrival jitter against one shared staging-server
// pool and reports per-tenant throughput, latency percentiles, and the
// servers' admission/quota tallies in the xlayer-bench/v1 schema.
//
// Each tenant runs the staging I/O of one workflow step loop — put every
// block of a version, read the full region back, evict the previous
// version — through its own tenant-scoped Pool over the shared servers, so
// admission control sees K connections per server, not one pooled client.
// Payload bytes encode (tenant, step, block), so a read that crossed a
// namespace boundary would fail the per-tenant content checksum; the final
// version is never evicted, so the closing per-tenant manifest audit runs
// against real data.
//
// Determinism contract: each tenant's JSONL log carries only fields that
// are pure functions of (seed, tenant, step) — never wall times or shed
// counts — so two invocations at the same seed produce byte-identical
// per-tenant logs as long as quotas are not hit. Contention moves the wall
// clock and the admission tallies, not the logs.
package loadgen

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"crosslayer/internal/field"
	"crosslayer/internal/grid"
	"crosslayer/internal/staging"
)

// Options tunes one load run. Zero values select the defaults noted. It is
// also `xlayer loadgen`'s flag surface: the command binds one flag to each
// field but Log, so a field added here is declared there and nowhere else.
type Options struct {
	// Tenants is K, the number of concurrent tenant workflows (default 8).
	Tenants int
	// Steps is how many versions each tenant pushes (default 6; 3 when
	// Short).
	Steps int
	// Servers is the shared staging-server count (default 3).
	Servers int
	// Replicas is the pool replication factor (default 2, capped at
	// Servers).
	Replicas int
	// MaxConns is each server's admission cap (default 4; <0 = unlimited).
	MaxConns int
	// Backlog is each server's bounded accept backlog: how many connections
	// may wait for a slot (0 = none; xlayer loadgen's -backlog defaults to
	// 3).
	Backlog int
	// QuotaBytes / QuotaBlocks, when > 0, are applied per tenant on every
	// server's space. Quota hits void the per-tenant log byte-identity
	// contract (rejections then depend on restart timing).
	QuotaBytes  int64
	QuotaBlocks int
	// Seed drives the arrival jitter and restart backoff (default 1).
	Seed int64
	// LogDir, when set, receives one deterministic JSONL log per tenant
	// (tenant-<id>.jsonl).
	LogDir string
	// Short trims the workload (domain and steps) — the CI smoke shape.
	Short bool
	// Log receives progress lines (nil = quiet).
	Log io.Writer
}

func (o Options) withDefaults() Options {
	if o.Tenants <= 0 {
		o.Tenants = 8
	}
	if o.Steps <= 0 {
		o.Steps = 6
		if o.Short {
			o.Steps = 3
		}
	}
	if o.Servers <= 0 {
		o.Servers = 3
	}
	if o.Replicas <= 0 {
		o.Replicas = 2
	}
	if o.Replicas > o.Servers {
		o.Replicas = o.Servers
	}
	if o.MaxConns == 0 {
		o.MaxConns = 4
	}
	if o.MaxConns < 0 {
		o.MaxConns = 0 // explicit "unlimited"
	}
	if o.Backlog < 0 {
		o.Backlog = 0
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	return o
}

func (o Options) logf(format string, args ...any) {
	if o.Log != nil {
		fmt.Fprintf(o.Log, format+"\n", args...)
	}
}

const (
	varName      = "loadgen"
	blockEdge    = 8
	jitterMax    = 5 * time.Millisecond
	maxAttempts  = 500
	tenantBudget = 120 * time.Second // hard per-tenant wall bound
)

// domainEdge picks the per-step working-set size.
func domainEdge(short bool) int {
	if short {
		return 16 // 8 blocks/step
	}
	return 32 // 64 blocks/step
}

// TenantID names tenant idx the way the harness and its logs do.
func TenantID(idx int) string { return fmt.Sprintf("t%02d", idx) }

// Record is one completed step in a tenant's deterministic log. Every
// field is a pure function of (seed, tenant, step): wall latencies, shed
// counts, restart tallies, and read-back block counts live in the report,
// never here. (Read counts are genuinely nondeterministic under admission
// pressure: the pool's primary-authoritative shard read can cleanly miss a
// block whose put landed only on the replica, so what a read returns
// depends on contention timing. Reads are instead verified per block —
// anything the tenant gets back must match the payload it wrote.)
type Record struct {
	Tenant        string `json:"tenant"`
	Step          int    `json:"step"`
	PutBlocks     int    `json:"put_blocks"`
	PutBytes      int64  `json:"put_bytes"`
	QuotaRejected int    `json:"quota_rejected,omitempty"`
	Checksum      string `json:"checksum"`
}

// Schema identifies the report format. The name predates loadgen and is
// kept so existing readers of loadgen-report.json keep working.
const Schema = "xlayer-bench/v1"

// Entry is one result in `go test -bench` vocabulary: N completed steps,
// nanoseconds per step, plus named custom metrics.
type Entry struct {
	Name    string             `json:"name"`
	N       int                `json:"n"`
	NsPerOp float64            `json:"ns_per_op"`
	Metrics map[string]float64 `json:"metrics,omitempty"`
}

// Report is one load run: an entry per tenant and a closing
// loadgen/aggregate entry.
type Report struct {
	Schema  string  `json:"schema"`
	Short   bool    `json:"short"`
	Entries []Entry `json:"entries"`
}

// ErrIsolation is Run's verdict that tenants saw each other: manifest
// entries outside a tenant's namespace, read-backs whose content failed the
// tenant's checksum, or blocks the closing manifest audit could not find.
// Run returns it together with the full report, so the report can still be
// written.
type ErrIsolation struct {
	Leaks, Mismatches, Missing int
}

func (e ErrIsolation) Error() string {
	return fmt.Sprintf("loadgen: tenant isolation violated (leaks=%d mismatches=%d missing=%d)",
		e.Leaks, e.Mismatches, e.Missing)
}

// isolation reads the verdict off the report's aggregate entry: an
// ErrIsolation when any of its three counts is nonzero, nil otherwise.
func (r *Report) isolation() error {
	for _, e := range r.Entries {
		if e.Name != "loadgen/aggregate" {
			continue
		}
		iso := ErrIsolation{
			Leaks:      int(e.Metrics["manifest_leak_total"]),
			Mismatches: int(e.Metrics["checksum_mismatch_total"]),
			Missing:    int(e.Metrics["audit_missing_total"]),
		}
		if iso.Leaks+iso.Mismatches+iso.Missing > 0 {
			return iso
		}
	}
	return nil
}

// Write renders the report as indented JSON.
func (r *Report) Write(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}

// tenantResult is one tenant's outcome, filled by its driver goroutine.
type tenantResult struct {
	idx     int
	tenant  string
	err     error
	wall    time.Duration
	steps   int
	bytes   int64
	putLat  []time.Duration
	getLat  []time.Duration
	quota   int // puts that came back ErrQuotaExceeded
	restart int // pool rebuilds after a transport dead-end
	reads   int // blocks actually read back (can trail puts under contention)

	auditMissing int // blocks the closing manifest audit could not find
	leaks        int // manifest entries outside the tenant's namespace
	mismatches   int // steps whose read-back checksum != locally expected
}

// Run drives the full load: stand the shared servers up, launch every
// tenant's closed loop, join them, and assemble the report. A run that
// completes returns its report even when tenant isolation failed; the error
// is then an ErrIsolation.
func Run(opts Options) (*Report, error) {
	o := opts.withDefaults()
	edge := domainEdge(o.Short)
	domain := grid.NewBox(grid.IV(0, 0, 0), grid.IV(edge-1, edge-1, edge-1))

	// The shared servers carry no event emitter — sheds land on accept
	// goroutines — and no metrics registry: the report carries each server's
	// own AdmissionStats.
	fo := staging.FleetOptions{
		Servers: o.Servers,
		Domain:  domain,
		Server:  staging.ServerOptions{MaxConns: o.MaxConns, Backlog: o.Backlog},
	}
	if o.QuotaBytes > 0 || o.QuotaBlocks > 0 {
		fo.Quotas = make(map[string]staging.TenantQuota, o.Tenants)
		for i := 0; i < o.Tenants; i++ {
			fo.Quotas[TenantID(i)] = staging.TenantQuota{MaxBytes: o.QuotaBytes, MaxBlocks: o.QuotaBlocks}
		}
	}
	fleet, err := staging.NewFleet(fo)
	if err != nil {
		return nil, fmt.Errorf("loadgen: %w", err)
	}
	defer fleet.Close()
	addrs := fleet.Addrs()
	if o.LogDir != "" {
		if err := os.MkdirAll(o.LogDir, 0o755); err != nil {
			return nil, fmt.Errorf("loadgen: log dir: %w", err)
		}
	}

	boxes := tileDomain(domain)
	o.logf("loadgen: %d tenants x %d steps over %d servers (replicas=%d max_conns=%d backlog=%d seed=%d)",
		o.Tenants, o.Steps, o.Servers, o.Replicas, o.MaxConns, o.Backlog, o.Seed)

	results := make([]*tenantResult, o.Tenants)
	var wg sync.WaitGroup
	start := time.Now()
	for i := 0; i < o.Tenants; i++ {
		i := i
		results[i] = &tenantResult{idx: i, tenant: TenantID(i)}
		wg.Add(1)
		go func() {
			defer wg.Done()
			runTenant(o, domain, addrs, boxes, results[i])
		}()
	}
	wg.Wait()
	wall := time.Since(start)

	var failed []string
	for _, r := range results {
		if r.err != nil {
			failed = append(failed, fmt.Sprintf("%s: %v", r.tenant, r.err))
		}
	}
	if len(failed) > 0 {
		return nil, fmt.Errorf("loadgen: %d tenants failed: %v", len(failed), failed)
	}

	rep := &Report{Schema: Schema, Short: o.Short}
	var admitted, queued, shed, quotaSrv int64
	for i := range addrs {
		a, q, sh, qr := fleet.Server(i).AdmissionStats()
		admitted += a
		queued += q
		shed += sh
		quotaSrv += qr
	}
	var totalSteps int
	var totalBytes int64
	var auditMissing, leaks, mismatches, restarts, quotaCli int
	for _, r := range results {
		totalSteps += r.steps
		totalBytes += r.bytes
		auditMissing += r.auditMissing
		leaks += r.leaks
		mismatches += r.mismatches
		restarts += r.restart
		quotaCli += r.quota
		e := Entry{
			Name:    "loadgen/" + r.tenant,
			N:       r.steps,
			NsPerOp: float64(r.wall.Nanoseconds()) / float64(max(r.steps, 1)),
			Metrics: map[string]float64{
				"steps_per_sec":  float64(r.steps) / r.wall.Seconds(),
				"bytes_moved":    float64(r.bytes),
				"put_p50_ms":     pctMS(r.putLat, 50),
				"put_p95_ms":     pctMS(r.putLat, 95),
				"put_p99_ms":     pctMS(r.putLat, 99),
				"get_p50_ms":     pctMS(r.getLat, 50),
				"get_p95_ms":     pctMS(r.getLat, 95),
				"get_p99_ms":     pctMS(r.getLat, 99),
				"restarts":       float64(r.restart),
				"read_blocks":    float64(r.reads),
				"quota_rejected": float64(r.quota),
				"audit_missing":  float64(r.auditMissing),
				"manifest_leaks": float64(r.leaks),
			},
		}
		rep.Entries = append(rep.Entries, e)
		o.logf("%-16s %3d steps  %8.1f ms/step  put p99 %6.2f ms  restarts %d",
			e.Name, r.steps, e.NsPerOp/1e6, e.Metrics["put_p99_ms"], r.restart)
	}
	agg := Entry{
		Name:    "loadgen/aggregate",
		N:       totalSteps,
		NsPerOp: float64(wall.Nanoseconds()) / float64(max(totalSteps, 1)),
		Metrics: map[string]float64{
			"tenants":                  float64(o.Tenants),
			"steps_per_sec":            float64(totalSteps) / wall.Seconds(),
			"bytes_moved":              float64(totalBytes),
			"admission_admitted_total": float64(admitted),
			"admission_queued_total":   float64(queued),
			"admission_shed_total":     float64(shed),
			"quota_rejected_total":     float64(quotaSrv),
			"client_quota_rejected":    float64(quotaCli),
			"restarts_total":           float64(restarts),
			"audit_missing_total":      float64(auditMissing),
			"manifest_leak_total":      float64(leaks),
			"checksum_mismatch_total":  float64(mismatches),
		},
	}
	rep.Entries = append(rep.Entries, agg)
	o.logf("%-16s %d steps in %.2fs  admitted=%d queued=%d shed=%d quota=%d leaks=%d",
		agg.Name, totalSteps, wall.Seconds(), admitted, queued, shed, quotaSrv, leaks)
	return rep, rep.isolation()
}

// tileDomain cuts the domain into blockEdge³ boxes in x-fastest order.
func tileDomain(domain grid.Box) []grid.Box {
	var out []grid.Box
	for z := domain.Lo.Z; z <= domain.Hi.Z; z += blockEdge {
		for y := domain.Lo.Y; y <= domain.Hi.Y; y += blockEdge {
			for x := domain.Lo.X; x <= domain.Hi.X; x += blockEdge {
				out = append(out, grid.NewBox(grid.IV(x, y, z),
					grid.IV(x+blockEdge-1, y+blockEdge-1, z+blockEdge-1)))
			}
		}
	}
	return out
}

// payload builds block bi of (tenant idx, step v): a pure function of its
// coordinates, so any cross-tenant read shows up as a checksum mismatch.
func payload(box grid.Box, idx, v, bi int) *field.BoxData {
	d := field.New(box, 1)
	data := d.Comp(0)
	base := uint64(idx+1)*2654435761 + uint64(v)*40503 + uint64(bi)*9176
	for i := range data {
		data[i] = float64((base+uint64(i)*7919)%100003) / 7.0
	}
	return d
}

// runTenant drives one tenant's closed loop: seeded arrival jitter, then
// steps through its own tenant-scoped pool over the shared servers. A
// transport dead-end (every endpoint breakered) aborts the attempt: the
// pool is closed — releasing this tenant's admission slots, which breaks
// any hold-and-wait cycle across tenants — and after a seeded backoff a
// fresh pool resumes from the failed step. Completed steps are never
// re-logged, and re-put blocks dedupe at read time, so restarts do not
// perturb the deterministic log.
func runTenant(o Options, domain grid.Box, addrs []string, boxes []grid.Box, res *tenantResult) {
	rng := rand.New(rand.NewSource(o.Seed*1_000_003 + int64(res.idx)))
	time.Sleep(time.Duration(rng.Int63n(int64(jitterMax))))
	start := time.Now()
	defer func() { res.wall = time.Since(start) }()

	var logw *json.Encoder
	if o.LogDir != "" {
		f, err := os.Create(filepath.Join(o.LogDir, res.tenant+".jsonl"))
		if err != nil {
			res.err = err
			return
		}
		defer f.Close()
		logw = json.NewEncoder(f)
	}

	fromStep := 0
	for attempt := 0; fromStep < o.Steps; attempt++ {
		if attempt >= maxAttempts || time.Since(start) > tenantBudget {
			res.err = fmt.Errorf("gave up after %d attempts at step %d", attempt, fromStep)
			return
		}
		pool, err := newTenantPool(o, domain, addrs, res.tenant)
		if err != nil {
			res.err = err
			return
		}
		err = runSteps(o, pool, domain, boxes, res, &fromStep, logw)
		if err == nil {
			res.auditMissing = pool.AuditManifest()
			for _, e := range pool.Manifest().Entries {
				if staging.TenantOf(e.Var) != res.tenant {
					res.leaks++
				}
			}
			pool.Close()
			return
		}
		pool.Close()
		res.restart++
		time.Sleep(time.Duration(10+rng.Int63n(40)) * time.Millisecond)
	}
}

// newTenantPool builds one tenant's scoped pool over the shared servers.
// The client retry budget is deliberately shallow: the admission layer
// closes shed connections, and burning a deep budget against a full server
// just delays the breaker trip that lets the attempt-level restart loop
// release this tenant's slots.
func newTenantPool(o Options, domain grid.Box, addrs []string, tenant string) (*staging.Pool, error) {
	return staging.NewPool(addrs, domain, staging.PoolOptions{
		Replicas: o.Replicas,
		Tenant:   tenant,
		Client:   staging.LoopbackClient(),
	})
}

// runSteps advances the tenant from *fromStep as far as it can. Quota
// rejections are terminal per put (the tenant's own signal) and recorded;
// any other put/get/drop failure aborts the attempt for a pool rebuild.
func runSteps(o Options, pool *staging.Pool, domain grid.Box, boxes []grid.Box, res *tenantResult, fromStep *int, logw *json.Encoder) error {
	for v := *fromStep; v < o.Steps; v++ {
		rec := Record{Tenant: res.tenant, Step: v}
		for bi, box := range boxes {
			d := payload(box, res.idx, v, bi)
			t0 := time.Now()
			err := pool.Put(varName, v, d)
			res.putLat = append(res.putLat, time.Since(t0))
			switch {
			case err == nil:
				rec.PutBlocks++
				rec.PutBytes += d.Bytes()
				res.bytes += d.Bytes() * int64(o.Replicas)
			case errors.Is(err, staging.ErrQuotaExceeded):
				rec.QuotaRejected++
				res.quota++
			default:
				return fmt.Errorf("step %d put: %w", v, err)
			}
		}
		t0 := time.Now()
		got, err := pool.GetBlocks(varName, v, domain)
		res.getLat = append(res.getLat, time.Since(t0))
		if err != nil && !errors.Is(err, staging.ErrNotFound) {
			return fmt.Errorf("step %d get: %w", v, err)
		}
		got = dedupeBlocks(got)
		res.reads += len(got)
		res.bytes += blocksBytes(got)
		// Isolation check: every block read back must be byte-for-byte the
		// payload this tenant wrote for (step, box). A read that crossed a
		// tenant boundary cannot pass — payloads encode the tenant index.
		want := make(map[grid.Box]*field.BoxData, len(boxes))
		for bi, box := range boxes {
			want[box] = payload(box, res.idx, v, bi)
		}
		for _, b := range got {
			if exp, ok := want[b.Box]; !ok || !b.Equal(exp) {
				res.mismatches++
			}
		}
		rec.Checksum = expectedChecksum(domain, boxes, res.idx, v)
		if _, err := pool.DropBefore(varName, v); err != nil {
			return fmt.Errorf("step %d drop: %w", v, err)
		}
		if logw != nil {
			if err := logw.Encode(rec); err != nil {
				return fmt.Errorf("step %d log: %w", v, err)
			}
		}
		res.steps++
		*fromStep = v + 1
	}
	return nil
}

// dedupeBlocks collapses replayed copies of the same box (an attempt
// restart re-puts blocks under fresh sequence numbers; content is
// identical by construction). Input arrives Morton-sorted from the pool,
// so keeping the first of each box preserves the deterministic order.
func dedupeBlocks(blocks []*field.BoxData) []*field.BoxData {
	out := blocks[:0]
	var last grid.Box
	for i, b := range blocks {
		if i > 0 && b.Box == last {
			continue
		}
		out = append(out, b)
		last = b.Box
	}
	return out
}

func blocksBytes(blocks []*field.BoxData) int64 {
	var n int64
	for _, b := range blocks {
		n += b.Bytes()
	}
	return n
}

// checksum hashes the blocks' boxes and payload bits in order.
func checksum(blocks []*field.BoxData) string {
	h := fnv.New64a()
	var buf [8]byte
	writeInt := func(v int) {
		binary.LittleEndian.PutUint64(buf[:], uint64(int64(v)))
		h.Write(buf[:])
	}
	for _, b := range blocks {
		for _, v := range []int{b.Box.Lo.X, b.Box.Lo.Y, b.Box.Lo.Z, b.Box.Hi.X, b.Box.Hi.Y, b.Box.Hi.Z} {
			writeInt(v)
		}
		for c := 0; c < b.NComp; c++ {
			for _, f := range b.Comp(c) {
				binary.LittleEndian.PutUint64(buf[:], math.Float64bits(f))
				h.Write(buf[:])
			}
		}
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// expectedChecksum recomputes what a clean read of (tenant, step) must
// hash to — the cross-tenant isolation check: foreign bytes cannot match.
func expectedChecksum(domain grid.Box, boxes []grid.Box, idx, v int) string {
	blocks := make([]*field.BoxData, 0, len(boxes))
	for bi, box := range boxes {
		blocks = append(blocks, payload(box, idx, v, bi))
	}
	staging.SortBlocks(domain, blocks)
	return checksum(blocks)
}

// pctMS returns the p-th percentile of lats in milliseconds (0 when empty).
func pctMS(lats []time.Duration, p int) float64 {
	if len(lats) == 0 {
		return 0
	}
	s := append([]time.Duration(nil), lats...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	i := (len(s)*p + 99) / 100
	if i > 0 {
		i--
	}
	return float64(s[i].Nanoseconds()) / 1e6
}
