// Package staging implements the DataSpaces-like data staging substrate the
// workflow runs on: a sharded, versioned, in-memory object space addressed
// by (variable, version, bounding box). Writers put rectangular blocks;
// readers get arbitrary rectangular regions which the space assembles from
// every intersecting stored block. Blocks are routed to server shards by
// the Morton code of their center, the same space-filling-curve bucketing
// DataSpaces uses for its distributed hash table.
//
// The space enforces per-server memory capacities — exhaustion surfaces as
// ErrNoMemory, the condition that drives the paper's resource-layer
// adaptation (Eq. 10) — and supports asynchronous put/get, mirroring the
// asynchronous transport the middleware-layer policy relies on ("the data
// will be asynchronously transferred to staging nodes immediately").
package staging

import (
	"errors"
	"fmt"
	"math/bits"
	"sort"
	"sync"

	"crosslayer/internal/field"
	"crosslayer/internal/grid"
)

// ErrNoMemory reports that the target server shard cannot hold the object.
var ErrNoMemory = errors.New("staging: server memory exhausted")

// ErrNotFound reports that no stored block intersects the requested region.
var ErrNotFound = errors.New("staging: no data for requested region")

// Object is one stored block. Seq identifies one logical put for replay
// deduplication (see PutSeq); NoSeq marks an unsequenced put.
type Object struct {
	Var     string
	Version int
	Seq     int64
	Data    *field.BoxData
}

// NoSeq is the Seq of unsequenced puts; they always append.
const NoSeq int64 = -1

// isRepairSeq reports whether seq tags a block re-stored by the pool's
// anti-entropy repair. Repair puts negate the client's (positive) unique
// sequence number: retries stay idempotent through the same-seq branch of
// put, while a racing normal put of the same block can recognize and
// replace the restored copy instead of appending a duplicate.
func isRepairSeq(seq int64) bool { return seq != NoSeq && seq < 0 }

// server is one shard of the space.
type server struct {
	mu       sync.Mutex
	objects  map[string][]*Object // keyed by var@version
	memUsed  int64
	capacity int64
}

func key(varName string, version int) string {
	return fmt.Sprintf("%s@%d", varName, version)
}

// put stores o and reports what it actually booked — the byte delta and
// the object-count delta — so the space can settle a tenant's pessimistic
// quota reservation to the real cost (a replacement's delta, a merged
// repair's zero, a full release on error).
func (s *server) put(o *Object) (delta int64, added int, err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	sz := o.Data.Bytes()
	k := key(o.Var, o.Version)
	replace := func(i int, old *Object) (int64, int, error) {
		if s.capacity > 0 && s.memUsed-old.Data.Bytes()+sz > s.capacity {
			return 0, 0, ErrNoMemory
		}
		s.memUsed += sz - old.Data.Bytes()
		s.objects[k][i] = o
		return sz - old.Data.Bytes(), 0, nil
	}
	// A sequenced put replaces the object with the same sequence number: a
	// client replaying a put whose response was lost must not duplicate
	// data (retry idempotency). Matching must NOT fall back to the box —
	// blocks from different AMR levels legitimately share box coordinates
	// (a level-0 box and a refined level-1 box can coincide numerically).
	if o.Seq != NoSeq {
		for i, old := range s.objects[k] {
			if old.Seq == o.Seq {
				return replace(i, old)
			}
		}
	}
	// A normal put can race the anti-entropy repair that already restored
	// the same block from a surviving replica (the put's own write was
	// still queued behind the probe when the repair fetched). The restored
	// copy carries a repair-tagged sequence number and identical content,
	// so the put replaces it instead of appending a duplicate. Content must
	// match, not just the box: a coincident box from a different put holds
	// different data and its restored copy must survive.
	if o.Seq > 0 {
		for i, old := range s.objects[k] {
			if isRepairSeq(old.Seq) && old.Data.Equal(o.Data) {
				return replace(i, old)
			}
		}
	}
	// A repair re-put merges: when the server already holds an identical
	// block — the endpoint never lost its store, or the put that wrote it
	// landed after the repair's fetch — the existing copy stands and the
	// restored one is discarded, so repairing a healthy store is a no-op
	// instead of a duplication.
	if isRepairSeq(o.Seq) {
		for _, old := range s.objects[k] {
			if old.Data.Equal(o.Data) {
				return 0, 0, nil
			}
		}
	}
	if s.capacity > 0 && s.memUsed+sz > s.capacity {
		return 0, 0, ErrNoMemory
	}
	s.objects[k] = append(s.objects[k], o)
	s.memUsed += sz
	return sz, 1, nil
}

func (s *server) query(varName string, version int, region grid.Box) []*Object {
	s.mu.Lock()
	defer s.mu.Unlock()
	var out []*Object
	for _, o := range s.objects[key(varName, version)] {
		if o.Data.Box.Intersects(region) {
			out = append(out, o)
		}
	}
	return out
}

func (s *server) dropBefore(varName string, version int) (freed int64, blocks int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for k, objs := range s.objects {
		if len(objs) == 0 || objs[0].Var != varName || objs[0].Version >= version {
			continue
		}
		for _, o := range objs {
			freed += o.Data.Bytes()
		}
		blocks += len(objs)
		delete(s.objects, k)
	}
	s.memUsed -= freed
	return freed, blocks
}

// Space is the staging service: a set of server shards over a global
// domain. Tenant-qualified variables (see TenantVar) are additionally
// accounted per tenant, and SetTenantQuota caps what one tenant may hold
// across the space's shards.
type Space struct {
	domain  grid.Box
	servers []*server

	// Per-tenant accounting spans shards, so it lives above them: quota
	// admission is a check-then-reserve under one mutex, settled to the
	// shard's actual booking after the put lands (see PutSeq).
	qmu    sync.Mutex
	quotas map[string]TenantQuota
	usage  map[string]*tenantUsage

	// Optional durability (wal.go). opMu keeps the WAL's record order
	// consistent with shard state: puts hold it shared around
	// shard-mutation + log-append, clear/drop/attach hold it exclusive, so
	// a Clear can never interleave between a put's shard write and its log
	// record. dur is nil when the space is not persisted.
	opMu       sync.RWMutex
	dur        *durability
	walMetrics walCounters
}

type tenantUsage struct {
	bytes  int64
	blocks int
}

// NewSpace creates a staging space with nservers shards, each with the
// given memory capacity in bytes (0 = unlimited), indexing blocks within
// domain.
func NewSpace(nservers int, capacityPerServer int64, domain grid.Box) *Space {
	if nservers < 1 {
		panic(fmt.Sprintf("staging: need >= 1 server, got %d", nservers))
	}
	sp := &Space{domain: domain}
	for i := 0; i < nservers; i++ {
		sp.servers = append(sp.servers, &server{
			objects:  make(map[string][]*Object),
			capacity: capacityPerServer,
		})
	}
	return sp
}

// route picks the shard for a block: Morton code of the box center scaled
// into the shard range, preserving spatial locality across shards.
func (sp *Space) route(b grid.Box) *server {
	return sp.servers[routeIndex(sp.domain, b, len(sp.servers))]
}

// routeIndex maps a block to a shard index in [0, n): the Morton code of the
// box center, scaled over the shard range so contiguous curve segments land
// on the same shard. The same routing drives the in-process Space and the
// replicated Pool, so both agree on which endpoint owns a block.
func routeIndex(domain grid.Box, b grid.Box, n int) int {
	c := b.Center().Sub(domain.Lo).Max(grid.Zero)
	code := grid.MortonCode(c)
	// Codes of in-domain points span [0, MortonCode(maxCorner)]; scale that
	// range over the shards. code*n is computed in 128 bits: Morton codes
	// use up to 63 bits, so the plain 64-bit product overflows for domains
	// larger than ~2^20 cells per side and misroutes blocks.
	maxCode := grid.MortonCode(domain.Size().Sub(grid.Unit).Max(grid.Zero)) + 1
	idx := int(code % uint64(n))
	if maxCode > 0 {
		hi, lo := bits.Mul64(code, uint64(n))
		if hi >= maxCode {
			// code >= maxCode (an out-of-domain center); clamp below.
			idx = n
		} else {
			q, _ := bits.Div64(hi, lo, maxCode)
			idx = int(q)
		}
		if idx >= n {
			idx = n - 1
		}
	}
	return idx
}

// Put stores a block of varName at version. The block is routed to one
// shard; ErrNoMemory is returned if that shard is full.
func (sp *Space) Put(varName string, version int, d *field.BoxData) error {
	return sp.PutSeq(varName, version, NoSeq, d)
}

// PutSeq stores a block under a caller-chosen sequence number: a later put
// with the same (var, version, seq) replaces the block instead of adding a
// second copy. The TCP client tags every logical put with a unique seq that
// stays fixed across its retries, making replays after a lost response
// idempotent. Seq NoSeq always appends (plain Put).
func (sp *Space) PutSeq(varName string, version int, seq int64, d *field.BoxData) error {
	if d == nil || d.Box.IsEmpty() {
		return errors.New("staging: empty block")
	}
	tenant := TenantOf(varName)
	sz := d.Bytes()
	if tenant != "" {
		// Pessimistic reservation: admit as if the put appends a whole new
		// block, then settle to what the shard actually booked (zero for a
		// merged repair, the delta for an idempotent-retry replacement).
		if err := sp.reserveTenant(tenant, sz); err != nil {
			return err
		}
	}
	sp.opMu.RLock()
	delta, added, err := sp.route(d.Box).put(&Object{Var: varName, Version: version, Seq: seq, Data: d})
	var walErr error
	if err == nil && sp.dur != nil {
		// Log (and fsync) before acknowledging: an acked put survives a
		// crash. The settlement record rides in the same append.
		walErr = sp.dur.logPut(varName, version, seq, d, tenant, delta-sz, added-1)
	}
	sp.opMu.RUnlock()
	if tenant != "" {
		sp.adjustTenant(tenant, delta-sz, added-1)
	}
	if err == nil {
		err = walErr
	}
	return err
}

// reserveTenant admits one prospective block of sz bytes against the
// tenant's quota and books it. ErrQuotaExceeded leaves usage untouched.
func (sp *Space) reserveTenant(tenant string, sz int64) error {
	sp.qmu.Lock()
	defer sp.qmu.Unlock()
	u := sp.usage[tenant]
	if u == nil {
		if sp.usage == nil {
			sp.usage = make(map[string]*tenantUsage)
		}
		u = &tenantUsage{}
		sp.usage[tenant] = u
	}
	if q, ok := sp.quotas[tenant]; ok {
		if (q.MaxBytes > 0 && u.bytes+sz > q.MaxBytes) ||
			(q.MaxBlocks > 0 && u.blocks+1 > q.MaxBlocks) {
			return ErrQuotaExceeded
		}
	}
	u.bytes += sz
	u.blocks++
	return nil
}

func (sp *Space) adjustTenant(tenant string, bytes int64, blocks int) {
	sp.qmu.Lock()
	defer sp.qmu.Unlock()
	if u := sp.usage[tenant]; u != nil {
		u.bytes += bytes
		u.blocks += blocks
	}
}

// SetTenantQuota caps what tenant may hold across all shards. A zero
// MaxBytes (or MaxBlocks) leaves that dimension unlimited; setting the
// zero TenantQuota removes the cap but keeps the accounting.
func (sp *Space) SetTenantQuota(tenant string, q TenantQuota) {
	sp.qmu.Lock()
	defer sp.qmu.Unlock()
	if sp.quotas == nil {
		sp.quotas = make(map[string]TenantQuota)
	}
	sp.quotas[tenant] = q
}

// TenantUsage reports the bytes and blocks currently booked to tenant.
func (sp *Space) TenantUsage(tenant string) (bytes int64, blocks int) {
	sp.qmu.Lock()
	defer sp.qmu.Unlock()
	if u := sp.usage[tenant]; u != nil {
		return u.bytes, u.blocks
	}
	return 0, 0
}

// Get assembles the stored data of varName at version over region into a
// fresh BoxData. Cells of region not covered by any stored block are zero;
// ErrNotFound is returned when nothing intersects at all. Shards are
// queried concurrently.
func (sp *Space) Get(varName string, version int, region grid.Box) (*field.BoxData, error) {
	objs := sp.collect(varName, version, region)
	if len(objs) == 0 {
		return nil, ErrNotFound
	}
	out := field.New(region, objs[0].Data.NComp)
	for _, o := range objs {
		out.CopyFrom(o.Data)
	}
	return out, nil
}

// GetBlocks returns the stored blocks of varName at version intersecting
// region, without assembling them (what an in-transit analysis kernel that
// works block-locally wants).
func (sp *Space) GetBlocks(varName string, version int, region grid.Box) ([]*field.BoxData, error) {
	objs := sp.collect(varName, version, region)
	if len(objs) == 0 {
		return nil, ErrNotFound
	}
	out := make([]*field.BoxData, len(objs))
	for i, o := range objs {
		out[i] = o.Data
	}
	return out, nil
}

func (sp *Space) collect(varName string, version int, region grid.Box) []*Object {
	results := make([][]*Object, len(sp.servers))
	var wg sync.WaitGroup
	for i, s := range sp.servers {
		wg.Add(1)
		go func(i int, s *server) {
			defer wg.Done()
			results[i] = s.query(varName, version, region)
		}(i, s)
	}
	wg.Wait()
	var out []*Object
	for _, r := range results {
		out = append(out, r...)
	}
	// Deterministic assembly order regardless of shard scheduling.
	sort.Slice(out, func(i, j int) bool {
		bi, bj := out[i].Data.Box, out[j].Data.Box
		return grid.MortonCode(bi.Lo.Sub(sp.domain.Lo).Max(grid.Zero)) <
			grid.MortonCode(bj.Lo.Sub(sp.domain.Lo).Max(grid.Zero))
	})
	return out
}

// Clear discards every stored object across all shards — the data-loss half
// of a modeled server crash (the crash harness severs the transport with a
// faultnet.Gate and wipes the backing space with Clear, so a rejoining
// server comes back empty and must be repaired by its pool's anti-entropy
// pass).
func (sp *Space) Clear() {
	sp.opMu.Lock()
	sp.wipeShards()
	if sp.dur != nil {
		sp.dur.logClear()
	}
	sp.opMu.Unlock()
	sp.qmu.Lock()
	sp.usage = nil
	sp.qmu.Unlock()
}

// wipeShards empties every shard (caller holds opMu exclusively).
func (sp *Space) wipeShards() {
	for _, s := range sp.servers {
		s.mu.Lock()
		s.objects = make(map[string][]*Object)
		s.memUsed = 0
		s.mu.Unlock()
	}
}

// DropBefore evicts every block of varName with version < version,
// returning the bytes freed. The workflow calls this once a version has
// been fully analyzed.
func (sp *Space) DropBefore(varName string, version int) int64 {
	var freed int64
	var blocks int
	sp.opMu.Lock()
	for _, s := range sp.servers {
		f, n := s.dropBefore(varName, version)
		freed += f
		blocks += n
	}
	if sp.dur != nil && blocks > 0 {
		sp.dur.logDrop(varName, version)
	}
	sp.opMu.Unlock()
	if tenant := TenantOf(varName); tenant != "" && blocks > 0 {
		sp.adjustTenant(tenant, -freed, -blocks)
	}
	return freed
}

// MemUsed returns total bytes held across shards.
func (sp *Space) MemUsed() int64 {
	var used int64
	for _, s := range sp.servers {
		s.mu.Lock()
		used += s.memUsed
		s.mu.Unlock()
	}
	return used
}
