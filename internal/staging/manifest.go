package staging

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sort"

	"crosslayer/internal/grid"
	"crosslayer/internal/journal"
)

// Manifest is a point-in-time snapshot of what the pool believes it holds:
// for every live (variable, version), how many blocks were stored. It is
// the unit the soak tests audit — after a faulted run, every manifest entry
// must still be readable from some replica — and the payload the repair
// machinery conceptually replays, externalized with a canonical binary
// codec so it can be persisted, diffed, and fuzzed.
type Manifest struct {
	Entries []ManifestEntry
}

// ManifestEntry records one (variable, version) and the number of blocks
// the pool accepted for it. Blocks counts Put calls, so it equals distinct
// stored boxes only when each box is put once per version — the workflow's
// pattern (each analysis block is shipped exactly once per step).
type ManifestEntry struct {
	Var     string
	Version int
	Blocks  int
}

// Equal reports whether two manifests are identical.
func (m Manifest) Equal(o Manifest) bool {
	if len(m.Entries) != len(o.Entries) {
		return false
	}
	for i := range m.Entries {
		if m.Entries[i] != o.Entries[i] {
			return false
		}
	}
	return true
}

// sortEntries orders entries canonically: by variable, then version.
func sortEntries(entries []ManifestEntry) {
	sort.Slice(entries, func(i, j int) bool {
		if entries[i].Var != entries[j].Var {
			return entries[i].Var < entries[j].Var
		}
		return entries[i].Version < entries[j].Version
	})
}

// Manifest snapshots the live map, canonically sorted: the handle's
// namespace of it on a tenant handle, all of it otherwise.
func (p *Pool) Manifest() Manifest {
	return Manifest{Entries: p.liveEntries(p.owns)}
}

// liveEntries snapshots the live map as canonically sorted entries, keeping
// the variables owns accepts; a nil owns keeps the whole pool.
func (c *poolCore) liveEntries(owns func(varName string) bool) []ManifestEntry {
	c.stateMu.Lock()
	defer c.stateMu.Unlock()
	var entries []ManifestEntry
	for varName, vs := range c.live {
		if owns != nil && !owns(varName) {
			continue
		}
		for ver, blocks := range vs {
			entries = append(entries, ManifestEntry{Var: varName, Version: ver, Blocks: blocks})
		}
	}
	sortEntries(entries)
	return entries
}

// RestoreManifest re-arms the pool's live map from a journaled manifest —
// the checkpoint/restart path: a resumed pool must know what its previous
// incarnation stored so rejoin repair and the durability audit keep
// covering pre-crash data. Entries merge by max block count, so replaying
// a manifest over state the resumed run already re-recorded never shrinks
// the audit's expectations. The data itself is not moved: the servers (or
// their surviving replicas) still hold it, and the existing seq-tagged
// idempotent puts make any overlapping re-puts harmless. A tenant handle
// skips entries outside its namespace rather than smuggle them across the
// boundary.
func (p *Pool) RestoreManifest(m Manifest) {
	p.stateMu.Lock()
	defer p.stateMu.Unlock()
	for _, e := range m.Entries {
		if !p.owns(e.Var) {
			continue
		}
		vs := p.live[e.Var]
		if vs == nil {
			vs = make(map[int]int)
			p.live[e.Var] = vs
		}
		if e.Blocks > vs[e.Version] {
			vs[e.Version] = e.Blocks
		}
	}
}

// Wire format of an encoded manifest (all integers big-endian):
//
//	magic   uint32  "XLM1"
//	count   uint32  number of entries, <= manifestMaxEntries
//	entry*: varLen  uint16  1..maxVarName
//	        var     []byte
//	        version int32   >= 0
//	        blocks  int32   >= 1
//
// Entries must be strictly ascending by (var, version): the canonical form
// makes Encode∘Decode and Decode∘Encode both identities, which is what the
// fuzz target checks.
const (
	manifestMagic      = 0x584c4d31 // "XLM1"
	manifestMaxEntries = 1 << 20
)

// ErrBadManifest tags every decode failure.
var ErrBadManifest = errors.New("staging: bad manifest")

// check bounds one entry to the value space the wire format carries.
func (e ManifestEntry) check() error {
	switch {
	case len(e.Var) == 0 || len(e.Var) > maxVarName:
		return fmt.Errorf("var %q has bad length", e.Var)
	case e.Version < 0 || e.Version > journal.MaxSmallInt:
		return fmt.Errorf("version %d out of range", e.Version)
	case e.Blocks < 1 || e.Blocks > journal.MaxSmallInt:
		return fmt.Errorf("block count %d out of range", e.Blocks)
	}
	return nil
}

// EncodeManifest renders m in the canonical wire form. Entries are sorted
// into canonical order first; entries with an empty/oversized variable
// name, a negative version, or a non-positive block count are rejected.
func EncodeManifest(m Manifest) ([]byte, error) {
	entries := make([]ManifestEntry, len(m.Entries))
	copy(entries, m.Entries)
	sortEntries(entries)
	if len(entries) > manifestMaxEntries {
		return nil, fmt.Errorf("staging: manifest has %d entries (max %d)", len(entries), manifestMaxEntries)
	}
	buf := make([]byte, 0, 8+24*len(entries))
	buf = binary.BigEndian.AppendUint32(buf, manifestMagic)
	buf = binary.BigEndian.AppendUint32(buf, uint32(len(entries)))
	for i, e := range entries {
		if err := e.check(); err != nil {
			return nil, fmt.Errorf("staging: manifest %v", err)
		}
		if i > 0 && entries[i-1].Var == e.Var && entries[i-1].Version == e.Version {
			return nil, fmt.Errorf("staging: duplicate manifest entry %s@%d", e.Var, e.Version)
		}
		buf = journal.AppendString(buf, e.Var)
		buf = binary.BigEndian.AppendUint32(buf, uint32(e.Version))
		buf = binary.BigEndian.AppendUint32(buf, uint32(e.Blocks))
	}
	return buf, nil
}

// DecodeManifest decodes one canonical manifest, which must span data
// exactly. Hostile input cannot force large allocations: entries are
// decoded from bytes already in hand, every field is bounded, and the strict
// (var, version) ordering is enforced so every valid encoding has exactly
// one decoding and vice versa.
func DecodeManifest(data []byte) (Manifest, error) {
	d := journal.NewDec(data, ErrBadManifest)
	if magic := d.U32(); d.Err() == nil && magic != manifestMagic {
		d.Fail("bad magic")
	}
	count := d.U32()
	if count > manifestMaxEntries {
		d.Fail("%d entries exceeds max", count)
	}
	var m Manifest
	for i := uint32(0); i < count && d.Err() == nil; i++ {
		e := ManifestEntry{Var: d.Str(maxVarName), Version: d.SmallInt(), Blocks: d.SmallInt()}
		if err := e.check(); err != nil {
			d.Fail("%v", err)
		}
		if n := len(m.Entries); n > 0 {
			prev := m.Entries[n-1]
			if prev.Var > e.Var || (prev.Var == e.Var && prev.Version >= e.Version) {
				d.Fail("entries not strictly ordered at %s@%d", e.Var, e.Version)
			}
		}
		m.Entries = append(m.Entries, e)
	}
	if err := d.Done(); err != nil {
		return Manifest{}, err
	}
	return m, nil
}

// Audit verifies that every block a manifest claims is still readable from
// some replica: for each entry it unions the distinct block boxes found
// across the full replica set of every shard (querying primary and replica
// variables directly, bypassing breaker state — a down endpoint is simply
// unreadable) and counts the shortfall against the recorded block count.
// It returns the total number of missing blocks; zero means no data loss.
// A tenant handle audits only the entries in its namespace.
//
// Box identity is the audit unit, so the count is meaningful when each box
// is put once per version (see ManifestEntry.Blocks). Audit is a test and
// post-mortem facility: it issues full-region reads against every
// endpoint and must not race a workload that is still mutating the pool.
func (p *Pool) Audit(m Manifest) (missing int) {
	n := len(p.eps)
	for _, e := range m.Entries {
		if !p.owns(e.Var) {
			continue
		}
		type blockID struct {
			box   grid.Box
			ncomp int
		}
		seen := make(map[blockID]struct{})
		for shard := 0; shard < n; shard++ {
			for j := 0; j < p.replicas; j++ {
				ep := p.eps[(shard+j)%n]
				blocks, err := ep.client.GetBlocks(replicaName(e.Var, shard, j), e.Version, allRegion)
				if err != nil {
					continue // unreachable endpoint or empty replica: not a source
				}
				for _, b := range blocks {
					seen[blockID{b.Box, b.NComp}] = struct{}{}
				}
			}
		}
		if len(seen) < e.Blocks {
			missing += e.Blocks - len(seen)
		}
	}
	return missing
}

// AuditManifest audits the pool against the handle's current manifest.
func (p *Pool) AuditManifest() (missing int) {
	return p.Audit(p.Manifest())
}
