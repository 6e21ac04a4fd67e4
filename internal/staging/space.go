// Package staging implements the DataSpaces-like data staging substrate the
// workflow runs on: a versioned, in-memory object space addressed by
// (variable, version, bounding box). Writers put rectangular blocks;
// readers get arbitrary rectangular regions which the space assembles from
// every intersecting stored block. Each staging server holds one Space; a
// Pool routes blocks across servers by the Morton code of their center,
// the same space-filling-curve bucketing DataSpaces uses for its
// distributed hash table.
//
// The space enforces a memory capacity — exhaustion surfaces as
// ErrNoMemory, the condition that drives the paper's resource-layer
// adaptation (Eq. 10) — and supports asynchronous put/get, mirroring the
// asynchronous transport the middleware-layer policy relies on ("the data
// will be asynchronously transferred to staging nodes immediately").
package staging

import (
	"cmp"
	"errors"
	"fmt"
	"slices"
	"sync"

	"crosslayer/internal/field"
	"crosslayer/internal/grid"
)

// ErrNoMemory reports that the space's memory capacity cannot hold the object.
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
// slot, while a racing normal put of the same block can recognize and
// replace the restored copy instead of appending a duplicate.
func isRepairSeq(seq int64) bool { return seq != NoSeq && seq < 0 }

func key(varName string, version int) string {
	return fmt.Sprintf("%s@%d", varName, version)
}

// Space is the staging service: one store of versioned blocks over a global
// domain. Tenant-qualified variables (see TenantVar) are additionally
// accounted per tenant, and SetTenantQuota caps what one tenant may hold.
type Space struct {
	domain grid.Box

	// mu guards the store: the objects, the memory they use against the
	// capacity, and the per-tenant usage and quotas, so a put's quota and
	// capacity checks and its booking are one critical section.
	mu       sync.Mutex
	objects  map[string][]*Object // keyed by var@version, in slot order
	memUsed  int64
	capacity int64
	quotas   map[string]TenantQuota
	usage    map[string]*tenantUsage

	// Optional durability (wal.go). opMu keeps the WAL's record order
	// consistent with the store: puts hold it shared around store write +
	// log append, clear/drop/attach hold it exclusive, so a Clear can never
	// interleave between a put's store write and its log record. dur is nil
	// when the space is not persisted.
	opMu       sync.RWMutex
	dur        *durability
	walMetrics walCounters
}

type tenantUsage struct {
	bytes  int64
	blocks int
}

// NewSpace creates a staging space indexing blocks within domain, with a
// memory capacity of nservers × capacityPerServer bytes (0 = unlimited).
// nservers only scales the capacity: the space is one store however many
// servers it stands for.
func NewSpace(nservers int, capacityPerServer int64, domain grid.Box) *Space {
	if nservers < 1 {
		panic(fmt.Sprintf("staging: need >= 1 server, got %d", nservers))
	}
	return &Space{
		domain:   domain,
		objects:  make(map[string][]*Object),
		capacity: int64(nservers) * capacityPerServer,
	}
}

// Put stores a block of varName at version; ErrNoMemory is returned if the
// space is full.
func (sp *Space) Put(varName string, version int, d *field.BoxData) error {
	return sp.PutSeq(varName, version, NoSeq, d)
}

// PutSeq stores a block under a caller-chosen sequence number: a later put
// with the same (var, version, seq) replaces the block instead of adding a
// second copy. The TCP client tags every logical put with a unique seq that
// stays fixed across its retries, making replays after a lost response
// idempotent. Seq NoSeq always appends (plain Put).
func (sp *Space) PutSeq(varName string, version int, seq int64, d *field.BoxData) error {
	// A block the wire format cannot carry, or a key too long for the log,
	// would be logged and acked, then refused by recovery: reject it before
	// anything is stored.
	if err := checkBlock(d); err != nil {
		return err
	}
	tenant := TenantOf(varName)
	sp.opMu.RLock()
	defer sp.opMu.RUnlock()
	if sp.dur != nil && len(varName) > maxWALKey {
		return fmt.Errorf("%w: key of %d bytes, the log holds at most %d", ErrBadBlock, len(varName), maxWALKey)
	}
	delta, added, err := sp.put(&Object{Var: varName, Version: version, Seq: seq, Data: d}, tenant)
	if err != nil || sp.dur == nil {
		return err
	}
	// Log (and fsync) before acknowledging: an acked put survives a crash.
	// The settle record rides in the same append and states the booking
	// relative to a whole new block (DESIGN.md §13.1).
	sz := d.Bytes()
	return sp.dur.logPut(varName, version, seq, d, tenant, delta-sz, added-1)
}

// put stores o and reports what it actually booked — the byte delta and the
// object-count delta (a replacement's delta, a merged repair's zero). When
// tenant is set, its quota is decided on that booking, before capacity, so
// a put that books nothing new — an idempotent replay, a merged repair —
// is admitted even at the cap. tenant "" skips the tenant's accounting.
func (sp *Space) put(o *Object, tenant string) (delta int64, added int, err error) {
	sp.mu.Lock()
	defer sp.mu.Unlock()
	k := key(o.Var, o.Version)
	objs := sp.objects[k]
	i := slot(objs, o)
	if i < 0 {
		return 0, 0, nil
	}
	delta, added = o.Data.Bytes(), 1
	if i < len(objs) {
		delta, added = delta-objs[i].Data.Bytes(), 0
	}
	var u *tenantUsage
	if tenant != "" {
		if u = sp.usage[tenant]; u == nil {
			if sp.usage == nil {
				sp.usage = make(map[string]*tenantUsage)
			}
			u = &tenantUsage{}
			sp.usage[tenant] = u
		}
		if q := sp.quotas[tenant]; (q.MaxBytes > 0 && delta > 0 && u.bytes+delta > q.MaxBytes) ||
			(q.MaxBlocks > 0 && added > 0 && u.blocks+added > q.MaxBlocks) {
			return 0, 0, ErrQuotaExceeded
		}
	}
	if sp.capacity > 0 && sp.memUsed+delta > sp.capacity {
		return 0, 0, ErrNoMemory
	}
	if i < len(objs) {
		objs[i] = o
	} else {
		sp.objects[k] = append(objs, o)
	}
	sp.memUsed += delta
	if u != nil {
		u.bytes += delta
		u.blocks += added
	}
	return delta, added, nil
}

// slot picks where o lands among objs, the stored blocks of its var@version:
// the index of the block it replaces, len(objs) to append, or -1 when an
// identical copy already stands. A replacement keeps the replaced block's
// slot.
func slot(objs []*Object, o *Object) int {
	// A sequenced put replaces the object with the same sequence number: a
	// client replaying a put whose response was lost must not duplicate
	// data (retry idempotency). Matching must NOT fall back to the box —
	// blocks from different AMR levels legitimately share box coordinates
	// (a level-0 box and a refined level-1 box can coincide numerically).
	if o.Seq != NoSeq {
		for i, old := range objs {
			if old.Seq == o.Seq {
				return i
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
		for i, old := range objs {
			if isRepairSeq(old.Seq) && old.Data.Equal(o.Data) {
				return i
			}
		}
	}
	// A repair re-put merges: when the server already holds an identical
	// block — the endpoint never lost its store, or the put that wrote it
	// landed after the repair's fetch — the existing copy stands and the
	// restored one is discarded, so repairing a healthy store is a no-op
	// instead of a duplication.
	if isRepairSeq(o.Seq) {
		for _, old := range objs {
			if old.Data.Equal(o.Data) {
				return -1
			}
		}
	}
	return len(objs)
}

// SetTenantQuota caps what tenant may hold in the space. A zero MaxBytes
// (or MaxBlocks) leaves that dimension unlimited; setting the zero
// TenantQuota removes the cap but keeps the accounting.
func (sp *Space) SetTenantQuota(tenant string, q TenantQuota) {
	sp.mu.Lock()
	defer sp.mu.Unlock()
	if sp.quotas == nil {
		sp.quotas = make(map[string]TenantQuota)
	}
	sp.quotas[tenant] = q
}

// TenantUsage reports the bytes and blocks currently booked to tenant.
func (sp *Space) TenantUsage(tenant string) (bytes int64, blocks int) {
	sp.mu.Lock()
	defer sp.mu.Unlock()
	if u := sp.usage[tenant]; u != nil {
		return u.bytes, u.blocks
	}
	return 0, 0
}

// GetBlocks returns the stored blocks of varName at version intersecting
// region, without assembling them (what an in-transit analysis kernel that
// works block-locally wants). They come sorted by the Morton code of their
// Lo corner; blocks sharing that code keep their slot order, a block's slot
// being where its first put appended it.
func (sp *Space) GetBlocks(varName string, version int, region grid.Box) ([]*field.BoxData, error) {
	k := key(varName, version)
	var out []*field.BoxData
	sp.mu.Lock()
	for _, o := range sp.objects[k] {
		if o.Data.Box.Intersects(region) {
			out = append(out, o.Data)
		}
	}
	sp.mu.Unlock()
	if len(out) == 0 {
		return nil, ErrNotFound
	}
	SortBlocks(sp.domain, out)
	return out, nil
}

// SortBlocks puts blocks in the staging block order — the order Space and
// Pool GetBlocks return: by the Morton code of each block's Lo corner
// relative to domain, blocks sharing a code keeping their relative order.
func SortBlocks(domain grid.Box, blocks []*field.BoxData) {
	slices.SortStableFunc(blocks, func(a, b *field.BoxData) int {
		return cmp.Compare(mortonKey(domain, a.Box.Lo), mortonKey(domain, b.Box.Lo))
	})
}

// mortonKey is the Morton code of p relative to domain's low corner.
func mortonKey(domain grid.Box, p grid.IntVect) uint64 {
	return grid.MortonCode(p.Sub(domain.Lo).Max(grid.Zero))
}

// Clear discards every stored object — the data-loss half of a modeled
// server crash (the crash harness severs the transport with a faultnet.Gate
// and wipes the backing space with Clear, so a rejoining server comes back
// empty and must be repaired by its pool's anti-entropy pass).
func (sp *Space) Clear() {
	sp.opMu.Lock()
	defer sp.opMu.Unlock()
	sp.wipe()
	if sp.dur != nil {
		sp.dur.logClear()
	}
}

// wipe empties the store and its tenant usage (caller holds opMu
// exclusively).
func (sp *Space) wipe() {
	sp.mu.Lock()
	defer sp.mu.Unlock()
	sp.objects = make(map[string][]*Object)
	sp.memUsed = 0
	sp.usage = nil
}

// DropBefore evicts every block of varName with version < version,
// returning the bytes freed. The workflow calls this once a version has
// been fully analyzed. On a persisted space the drop is logged before it
// is acknowledged: a WAL that already failed refuses the drop before
// anything is evicted, so a retry cannot find nothing to log and succeed.
func (sp *Space) DropBefore(varName string, version int) (int64, error) {
	sp.opMu.Lock()
	defer sp.opMu.Unlock()
	if sp.dur != nil && sp.dur.err != nil {
		return 0, sp.dur.err
	}
	freed, blocks := sp.dropBefore(varName, version)
	if sp.dur != nil && blocks > 0 {
		return freed, sp.dur.logDrop(varName, version)
	}
	return freed, nil
}

// dropBefore is DropBefore's store half: it evicts the blocks and books
// the release to memory and to the variable's tenant.
func (sp *Space) dropBefore(varName string, version int) (freed int64, blocks int) {
	sp.mu.Lock()
	defer sp.mu.Unlock()
	for k, objs := range sp.objects {
		if len(objs) == 0 || objs[0].Var != varName || objs[0].Version >= version {
			continue
		}
		for _, o := range objs {
			freed += o.Data.Bytes()
		}
		blocks += len(objs)
		delete(sp.objects, k)
	}
	sp.memUsed -= freed
	if u := sp.usage[TenantOf(varName)]; u != nil {
		u.bytes -= freed
		u.blocks -= blocks
	}
	return freed, blocks
}

// MemUsed returns the bytes the space holds.
func (sp *Space) MemUsed() int64 {
	sp.mu.Lock()
	defer sp.mu.Unlock()
	return sp.memUsed
}
