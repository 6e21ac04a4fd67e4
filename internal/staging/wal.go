// Durability layer (DESIGN.md §15): an optional per-space write-ahead log
// plus periodic snapshot compaction, so a staging server restarted over the
// same data directory recovers the store it held at the crash instead of
// rejoining empty.
//
// The WAL reuses the journal package's record framing (recLen | body |
// CRC-32C, torn-tail tolerant) under an "XSW1" header that carries the
// server id and the tenant-aware key codec version. Every successful
// mutation appends one record — puts (with the full block payload), tenant
// quota settlements, drops, and clears — and is fsynced before the space
// acknowledges it: an acked put survives kill -9; a crash mid-append leaves
// a torn tail that recovery truncates, losing only the unacked write.
//
// Compaction bounds replay: every compactEvery records the space dumps its
// objects in canonical manifest order into snapshot.tmp, fsyncs, renames it
// over snapshot.xss, then rotates the WAL to a fresh epoch. Recovery loads
// the last complete snapshot (complete-or-absent by rename atomicity) and
// replays the WAL suffix past it, reconciled through the epoch counter:
// same epoch → skip the covered prefix; epoch+1 → replay everything. The
// replayed puts go through the same seq-idempotent put path the wire uses,
// so a record that races a compaction is applied at most once.
package staging

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"sync"

	"crosslayer/internal/field"
	"crosslayer/internal/journal"
	"crosslayer/internal/obs"
)

// WAL failure modes.
var (
	// ErrBadWAL tags a structurally invalid WAL: a checksum-valid record
	// whose payload is not a valid WAL record. Unlike a torn tail this is
	// not survivable — the file was written by something else.
	ErrBadWAL = errors.New("staging: bad wal")
	// ErrBadSnapshot tags a structurally invalid or incomplete snapshot.
	// Snapshots are complete-or-absent by rename atomicity, so a partial
	// snapshot means external corruption and recovery fails closed.
	ErrBadSnapshot = errors.New("staging: bad snapshot")
	// ErrWALMismatch reports a data dir belonging to a different server id
	// or an incompatible key codec version.
	ErrWALMismatch = errors.New("staging: data dir belongs to a different server")
)

const (
	walMagic  = 0x58535731 // "XSW1"
	snapMagic = 0x58535331 // "XSS1"

	// walKeyCodec is the version of the wire-key namespace the log's keys
	// live in: 1 = tenant-aware keys ("tenant/var" qualification, "#rN"
	// replica suffixes). A mismatch fails recovery closed rather than
	// misfiling another codec's keys.
	walKeyCodec = 1

	// Record types. Both files open with a recHeader record and carry
	// blocks as recBlock records (a WAL put, a snapshot object); the rest
	// of each file's vocabulary is its own.
	recHeader = 1
	recBlock  = 2

	walRecClear  = 3
	walRecDrop   = 4
	walRecSettle = 5

	snapRecFooter = 3

	maxWALKey      = 4096
	maxWALServerID = 256

	walFileName  = "wal.xsw"
	snapFileName = "snapshot.xss"

	// defaultCompactEvery is how many WAL records accumulate before the
	// space compacts them into a snapshot and rotates the log.
	defaultCompactEvery = 512
)

// RecoverStats summarizes one Persist recovery pass.
type RecoverStats struct {
	SnapshotBlocks int   // objects loaded from the last complete snapshot
	WALRecords     int   // WAL records replayed past the snapshot
	Blocks         int   // objects live after recovery
	Bytes          int64 // data bytes live after recovery
	TornTail       bool  // the WAL ended mid-record; the tail was truncated
	WALMissing     bool  // a snapshot existed but no usable WAL did
}

// WALStats reports the durability layer's activity since Persist.
type WALStats struct {
	Records   uint64 // records appended
	Bytes     uint64 // framed bytes appended
	Fsyncs    uint64
	Snapshots uint64 // compactions performed
	Epoch     uint64 // current WAL epoch (bumped by each compaction)
}

// walCounters are the xlayer_staging_wal_* metric hooks. They live on the
// Space (not the durability handle) so a crash-restart cycle keeps
// incrementing the same registered instruments.
type walCounters struct {
	records, bytes, fsyncs, snapshots *obs.Counter
	recovered                         *obs.Gauge
}

// durability is the attached WAL: an append handle over dir/wal.xsw plus
// the compaction state. Callers hold the owning Space's opMu (shared for
// puts, exclusive for clear/drop/attach/detach); mu additionally
// serializes the appends of puts racing under the shared lock.
type durability struct {
	mu           sync.Mutex
	dir          string
	serverID     string
	f            *os.File
	epoch        uint64
	recs         uint64 // records in the current epoch's WAL file
	compactEvery uint64
	err          error // sticky: first append failure poisons the log
	stats        WALStats
	met          *walCounters
	space        *Space
	// buf frames the records of one write; emptied after each, it keeps the
	// size of the largest record so far. Appends use it under mu.
	buf journal.RecordBuf
}

// walRec is one decoded WAL (or snapshot object) record.
type walRec struct {
	typ     byte
	key     string
	version int
	seq     int64
	data    *field.BoxData
}

// Persist attaches a write-ahead log under dir to the space, first
// recovering whatever a previous incarnation left there: the last complete
// snapshot, then the WAL suffix past it, torn tail truncated. serverID is
// stamped into every file header; recovering a dir written under a
// different id (or key codec) fails closed with ErrWALMismatch. The space
// must be freshly constructed or Clear-ed: recovered state lands on top of
// whatever it holds.
func (sp *Space) Persist(dir, serverID string) (*RecoverStats, error) {
	if len(serverID) > maxWALServerID {
		return nil, fmt.Errorf("%w: server id %d bytes (max %d)", ErrBadWAL, len(serverID), maxWALServerID)
	}
	sp.opMu.Lock()
	defer sp.opMu.Unlock()
	if sp.dur != nil {
		return nil, errors.New("staging: space already persisted")
	}
	if err := os.MkdirAll(dir, 0o777); err != nil {
		return nil, fmt.Errorf("staging: wal dir: %w", err)
	}

	stats := &RecoverStats{}
	snapData, snapErr := os.ReadFile(filepath.Join(dir, snapFileName))
	if snapErr != nil && !errors.Is(snapErr, os.ErrNotExist) {
		return nil, fmt.Errorf("staging: read snapshot: %w", snapErr)
	}
	walData, walErr := os.ReadFile(filepath.Join(dir, walFileName))
	if walErr != nil && !errors.Is(walErr, os.ErrNotExist) {
		return nil, fmt.Errorf("staging: read wal: %w", walErr)
	}

	var snapEpoch, snapCovered uint64
	var snapObjs []walRec
	haveSnap := false
	if snapErr == nil {
		var err error
		snapEpoch, snapCovered, snapObjs, err = scanSnapshot(snapData, serverID)
		if err != nil {
			return nil, err
		}
		haveSnap = true
	}

	var ws *walScan
	haveWAL := false
	if walErr == nil {
		var err error
		ws, err = scanWAL(walData, serverID)
		if err != nil {
			return nil, err
		}
		// A WAL whose header never made it to disk provides nothing; treat
		// it as absent and start a fresh epoch below.
		haveWAL = ws.haveHeader
		stats.TornTail = ws.torn
	}

	// Reconcile snapshot and WAL through the epoch counter.
	var replay []walRec
	switch {
	case haveSnap && haveWAL:
		switch {
		case ws.epoch == snapEpoch:
			// Crash after the snapshot renamed but before the WAL rotated:
			// the snapshot covers the first snapCovered records.
			if snapCovered > uint64(len(ws.recs)) {
				return nil, fmt.Errorf("%w: snapshot covers %d wal records, wal has %d",
					ErrBadSnapshot, snapCovered, len(ws.recs))
			}
			replay = ws.recs[snapCovered:]
		case ws.epoch == snapEpoch+1:
			replay = ws.recs
		default:
			return nil, fmt.Errorf("%w: wal epoch %d does not follow snapshot epoch %d",
				ErrBadWAL, ws.epoch, snapEpoch)
		}
	case haveSnap:
		stats.WALMissing = true
	case haveWAL:
		if ws.epoch != 0 {
			return nil, fmt.Errorf("%w: wal epoch %d but no snapshot", ErrBadWAL, ws.epoch)
		}
		replay = ws.recs
	}

	for _, recs := range [][]walRec{snapObjs, replay} {
		for i := range recs {
			if err := sp.applyRecovered(&recs[i]); err != nil {
				return nil, err
			}
		}
	}
	stats.SnapshotBlocks, stats.WALRecords = len(snapObjs), len(replay)
	sp.recomputeUsage()
	stats.Blocks, stats.Bytes = sp.countLocked()

	d := &durability{
		dir: dir, serverID: serverID,
		compactEvery: defaultCompactEvery,
		met:          &sp.walMetrics,
		space:        sp,
	}
	if haveWAL {
		// Keep the surviving WAL, truncated past its torn tail, and append.
		f, err := os.OpenFile(filepath.Join(dir, walFileName), os.O_RDWR, 0o666)
		if err != nil {
			return nil, fmt.Errorf("staging: open wal: %w", err)
		}
		if err := f.Truncate(ws.good); err != nil {
			f.Close()
			return nil, fmt.Errorf("staging: truncate torn wal tail: %w", err)
		}
		if _, err := f.Seek(0, 2); err != nil {
			f.Close()
			return nil, fmt.Errorf("staging: seek wal: %w", err)
		}
		d.f, d.epoch, d.recs = f, ws.epoch, uint64(len(ws.recs))
	} else {
		epoch := uint64(0)
		if haveSnap {
			epoch = snapEpoch + 1
		}
		f, err := d.newWALFile(epoch)
		if err != nil {
			return nil, err
		}
		d.f, d.epoch = f, epoch
	}
	if d.met.recovered != nil {
		d.met.recovered.Set(float64(stats.Blocks))
	}
	sp.dur = d
	return stats, nil
}

// Persisted reports whether a WAL is currently attached.
func (sp *Space) Persisted() bool {
	sp.opMu.RLock()
	defer sp.opMu.RUnlock()
	return sp.dur != nil
}

// WALStats reports the attached WAL's activity (zero when detached).
func (sp *Space) WALStats() WALStats {
	sp.opMu.RLock()
	defer sp.opMu.RUnlock()
	if sp.dur == nil {
		return WALStats{}
	}
	sp.dur.mu.Lock()
	defer sp.dur.mu.Unlock()
	st := sp.dur.stats
	st.Epoch = sp.dur.epoch
	return st
}

// CompactWAL forces a snapshot compaction: the space's objects are dumped
// in canonical manifest order to a fresh snapshot and the WAL rotates to a
// new epoch.
func (sp *Space) CompactWAL() error {
	sp.opMu.Lock()
	defer sp.opMu.Unlock()
	if sp.dur == nil {
		return errors.New("staging: space not persisted")
	}
	if sp.dur.err != nil {
		return sp.dur.err
	}
	return sp.dur.compact()
}

// ClosePersist flushes and fsyncs the WAL, closes it, and detaches the
// durability layer — the graceful-shutdown half. The space keeps its
// in-memory contents; a later Persist over the same dir recovers them.
func (sp *Space) ClosePersist() error {
	sp.opMu.Lock()
	defer sp.opMu.Unlock()
	d := sp.dur
	if d == nil {
		return nil
	}
	sp.dur = nil
	if d.err != nil {
		d.f.Close()
		return d.err
	}
	if err := d.sync(); err != nil {
		d.f.Close()
		return err
	}
	return d.f.Close()
}

// CrashPersist abruptly detaches the WAL without flushing — the kill -9
// half, used by the chaos harness's restart action and crash tests. The
// on-disk state is whatever the last fsync made durable.
func (sp *Space) CrashPersist() {
	sp.opMu.Lock()
	defer sp.opMu.Unlock()
	if sp.dur != nil {
		sp.dur.f.Close()
		sp.dur = nil
	}
}

// ObserveWAL registers the xlayer_staging_wal_* instruments on reg and
// back-fills them with activity so far. Counters keep incrementing across
// a CrashPersist/Persist restart cycle.
func (sp *Space) ObserveWAL(reg *obs.Registry) {
	sp.opMu.Lock()
	defer sp.opMu.Unlock()
	m := &sp.walMetrics
	m.records = reg.Counter("xlayer_staging_wal_records_total", "WAL records appended")
	m.bytes = reg.Counter("xlayer_staging_wal_bytes_total", "framed WAL bytes appended")
	m.fsyncs = reg.Counter("xlayer_staging_wal_fsyncs_total", "WAL fsync calls")
	m.snapshots = reg.Counter("xlayer_staging_wal_snapshots_total", "snapshot compactions")
	m.recovered = reg.Gauge("xlayer_staging_wal_recovered_blocks", "blocks recovered by the last Persist")
	if d := sp.dur; d != nil {
		m.records.Add(float64(d.stats.Records))
		m.bytes.Add(float64(d.stats.Bytes))
		m.fsyncs.Add(float64(d.stats.Fsyncs))
		m.snapshots.Add(float64(d.stats.Snapshots))
	}
}

// applyRecovered replays one recovered record into the store, bypassing
// tenant admission (usage is recomputed from the final object set).
func (sp *Space) applyRecovered(r *walRec) error {
	switch r.typ {
	case recBlock:
		_, _, err := sp.put(&Object{Var: r.key, Version: r.version, Seq: r.seq, Data: r.data}, "")
		if err != nil {
			return fmt.Errorf("staging: replay put %s@%d: %w", r.key, r.version, err)
		}
	case walRecClear:
		sp.wipe()
	case walRecDrop:
		sp.dropBefore(r.key, r.version)
	case walRecSettle:
		// Settlements are an audit trail; recovery derives tenant usage
		// from the recovered objects instead of replaying deltas, so a
		// settle torn off after its put cannot skew the accounting.
	}
	return nil
}

// recomputeUsage rebuilds per-tenant accounting from the object set — the
// authoritative source after a replay.
func (sp *Space) recomputeUsage() {
	usage := make(map[string]*tenantUsage)
	sp.eachObject(func(o *Object) {
		if t := TenantOf(o.Var); t != "" {
			u := usage[t]
			if u == nil {
				u = &tenantUsage{}
				usage[t] = u
			}
			u.bytes += o.Data.Bytes()
			u.blocks++
		}
	})
	sp.mu.Lock()
	sp.usage = usage
	sp.mu.Unlock()
}

// ContentManifestSized recomputes the space's manifest from the objects it
// actually holds — what a recovered server advertises on rejoin so the
// pool can repair the diff instead of re-putting everything — with each
// entry's total encoded payload bytes, aligned with the (sorted) entries.
// The sizes let the repair pass verify byte totals, not just block counts,
// before skipping a shipment.
func (sp *Space) ContentManifestSized() (Manifest, []int64) {
	type agg struct {
		blocks int
		bytes  int64
	}
	sums := make(map[ManifestEntry]*agg)
	sp.eachObject(func(o *Object) {
		k := ManifestEntry{Var: o.Var, Version: o.Version}
		a := sums[k]
		if a == nil {
			a = &agg{}
			sums[k] = a
		}
		a.blocks++
		a.bytes += EncodedSize(o.Data)
	})
	var m Manifest
	for k, a := range sums {
		k.Blocks = a.blocks
		m.Entries = append(m.Entries, k)
	}
	sortEntries(m.Entries)
	sizes := make([]int64, len(m.Entries))
	for i, e := range m.Entries {
		e.Blocks = 0
		sizes[i] = sums[e].bytes
	}
	return m, sizes
}

// countLocked totals live objects and bytes (caller holds opMu).
func (sp *Space) countLocked() (blocks int, size int64) {
	sp.eachObject(func(o *Object) {
		blocks++
		size += o.Data.Bytes()
	})
	return blocks, size
}

// eachObject visits every stored object under the store lock, in no
// particular order.
func (sp *Space) eachObject(visit func(*Object)) {
	sp.mu.Lock()
	defer sp.mu.Unlock()
	for _, objs := range sp.objects {
		for _, o := range objs {
			visit(o)
		}
	}
}

// ---- append side ----

// logPut appends one put record (and, for tenant-qualified keys, the quota
// settlement that followed it) in one write and fsyncs. Called with opMu
// held shared: racing puts serialize on mu, under which each encodes its
// block straight into d.buf.
func (d *durability) logPut(key string, version int, seq int64, data *field.BoxData, tenant string, bytesDelta int64, blocksDelta int) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if err := d.frameBlock(key, version, seq, data); err != nil {
		d.buf = d.buf[:0]
		return fmt.Errorf("staging: wal encode block: %w", err)
	}
	if tenant == "" {
		return d.write(1)
	}
	at := d.buf.Begin(walRecSettle)
	d.buf = journal.AppendString(d.buf, tenant)
	d.buf = binary.BigEndian.AppendUint64(d.buf, uint64(bytesDelta))
	d.buf = binary.BigEndian.AppendUint64(d.buf, uint64(int64(blocksDelta)))
	d.buf.End(at)
	return d.write(2)
}

// frameBlock frames a recBlock record in d.buf — key, version, seq, then
// the block in wire format — the form of a WAL put and of a snapshot
// object.
func (d *durability) frameBlock(key string, version int, seq int64, data *field.BoxData) error {
	d.buf = slices.Grow(d.buf, 4+1+2+len(key)+8+8+int(EncodedSize(data))+4)
	at := d.buf.Begin(recBlock)
	d.buf = journal.AppendString(d.buf, key)
	d.buf = binary.BigEndian.AppendUint64(d.buf, uint64(int64(version)))
	d.buf = binary.BigEndian.AppendUint64(d.buf, uint64(seq))
	if err := EncodeBlock(&d.buf, data); err != nil {
		return err
	}
	d.buf.End(at)
	return nil
}

// fileKind describes one of the two durability files. Both open with the
// same header record — magic, key codec version, server id, epoch — and
// differ in the magic, in the sentinel their decode errors wrap, and in
// whether the header also counts the WAL records the file covers.
type fileKind struct {
	name    string // in error text
	magic   uint32
	bad     error
	covered bool
}

var (
	walFile  = fileKind{"wal", walMagic, ErrBadWAL, false}
	snapFile = fileKind{"snapshot", snapMagic, ErrBadSnapshot, true}
)

// frameHeader frames k's header record in d.buf.
func (d *durability) frameHeader(k fileKind, epoch, covered uint64) {
	at := d.buf.Begin(recHeader)
	d.buf = binary.BigEndian.AppendUint32(d.buf, k.magic)
	d.buf = binary.BigEndian.AppendUint16(d.buf, walKeyCodec)
	d.buf = journal.AppendString(d.buf, d.serverID)
	d.buf = binary.BigEndian.AppendUint64(d.buf, epoch)
	if k.covered {
		d.buf = binary.BigEndian.AppendUint64(d.buf, covered)
	}
	d.buf.End(at)
}

// readHeader decodes k's header record and checks that the file belongs to
// serverID under this key codec (ErrWALMismatch otherwise).
func (k fileKind) readHeader(body []byte, serverID string) (epoch, covered uint64, err error) {
	d := journal.NewDec(body, k.bad)
	if t := d.U8(); d.Err() == nil && t != recHeader {
		return 0, 0, fmt.Errorf("%w: first record has type %d (want header)", k.bad, t)
	}
	if m := d.U32(); d.Err() == nil && m != k.magic {
		return 0, 0, fmt.Errorf("%w: bad magic", k.bad)
	}
	if v := d.U16(); d.Err() == nil && v != walKeyCodec {
		return 0, 0, fmt.Errorf("%w: key codec version %d (have %d)", ErrWALMismatch, v, walKeyCodec)
	}
	id := d.Str(maxWALServerID)
	epoch = d.U64()
	if k.covered {
		covered = d.U64()
	}
	if err := d.Done(); err != nil {
		return 0, 0, err
	}
	if id != serverID {
		return 0, 0, fmt.Errorf("%w: %s written by %q, recovering as %q", ErrWALMismatch, k.name, id, serverID)
	}
	return epoch, covered, nil
}

func (d *durability) logClear() error {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.buf.End(d.buf.Begin(walRecClear))
	return d.write(1)
}

func (d *durability) logDrop(varName string, version int) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	at := d.buf.Begin(walRecDrop)
	d.buf = journal.AppendString(d.buf, varName)
	d.buf = binary.BigEndian.AppendUint64(d.buf, uint64(int64(version)))
	d.buf.End(at)
	return d.write(1)
}

// write sends the recs records framed in d.buf in one write (emptying it),
// fsyncs once, and compacts when the epoch's record count crosses the
// threshold. The caller holds mu; the first failure sticks.
func (d *durability) write(recs int) error {
	framed := d.buf
	d.buf = d.buf[:0]
	if d.err != nil {
		return d.err
	}
	if _, err := d.f.Write(framed); err != nil {
		d.err = fmt.Errorf("staging: wal write: %w", err)
		return d.err
	}
	d.recs += uint64(recs)
	d.stats.Records += uint64(recs)
	d.stats.Bytes += uint64(len(framed))
	if d.met.records != nil {
		d.met.records.Add(float64(recs))
		d.met.bytes.Add(float64(len(framed)))
	}
	if err := d.sync(); err != nil {
		return err
	}
	if d.recs >= d.compactEvery {
		return d.compact()
	}
	return nil
}

func (d *durability) sync() error {
	if err := d.f.Sync(); err != nil {
		d.err = fmt.Errorf("staging: wal sync: %w", err)
		return d.err
	}
	d.stats.Fsyncs++
	if d.met.fsyncs != nil {
		d.met.fsyncs.Inc()
	}
	return nil
}

// compact dumps the space in canonical manifest order into a fresh
// snapshot (atomically renamed over the old one) and rotates the WAL to
// the next epoch. Crash windows are covered by recovery's epoch
// reconciliation: after the snapshot renames but before the WAL rotates,
// the snapshot's covered-record count skips the replayed prefix.
func (d *durability) compact() error {
	objs := d.space.dumpObjects()
	covered := d.recs

	tmp := filepath.Join(d.dir, "snapshot.tmp")
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o666)
	if err != nil {
		d.err = fmt.Errorf("staging: snapshot create: %w", err)
		return d.err
	}
	write := func() {
		if err == nil {
			_, err = f.Write(d.buf)
		}
		d.buf = d.buf[:0]
	}
	d.frameHeader(snapFile, d.epoch, covered)
	write()
	for _, o := range objs {
		if berr := d.frameBlock(o.Var, o.Version, o.Seq, o.Data); err == nil {
			err = berr
		}
		write()
	}
	at := d.buf.Begin(snapRecFooter)
	d.buf = binary.BigEndian.AppendUint64(d.buf, uint64(len(objs)))
	d.buf.End(at)
	write()
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp, filepath.Join(d.dir, snapFileName))
	}
	if err != nil {
		d.err = fmt.Errorf("staging: snapshot: %w", err)
		return d.err
	}
	syncDir(d.dir)

	// Rotate the WAL: a fresh file with the next epoch's header, renamed
	// over the old one; the still-open handle follows the rename.
	nf, err := d.newWALFile(d.epoch + 1)
	if err != nil {
		d.err = err
		return d.err
	}
	d.f.Close()
	d.f = nf
	d.epoch++
	d.recs = 0
	d.stats.Snapshots++
	if d.met.snapshots != nil {
		d.met.snapshots.Inc()
	}
	return nil
}

// dumpObjects snapshots every live object, sorted canonically: by key,
// version, block Morton position, then seq.
func (sp *Space) dumpObjects() []*Object {
	var out []*Object
	sp.eachObject(func(o *Object) { out = append(out, o) })
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.Var != b.Var {
			return a.Var < b.Var
		}
		if a.Version != b.Version {
			return a.Version < b.Version
		}
		ma, mb := mortonKey(sp.domain, a.Data.Box.Lo), mortonKey(sp.domain, b.Data.Box.Lo)
		if ma != mb {
			return ma < mb
		}
		return a.Seq < b.Seq
	})
	return out
}

// newWALFile writes a fresh WAL with its header record via tmp + rename,
// so a crash mid-creation never leaves a headerless file in place.
func (d *durability) newWALFile(epoch uint64) (*os.File, error) {
	tmp := filepath.Join(d.dir, "wal.tmp")
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_TRUNC|os.O_RDWR, 0o666)
	if err != nil {
		return nil, fmt.Errorf("staging: wal create: %w", err)
	}
	d.frameHeader(walFile, epoch, 0)
	if _, err = f.Write(d.buf); err == nil {
		err = f.Sync()
	}
	d.buf = d.buf[:0]
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("staging: wal header: %w", err)
	}
	if err := os.Rename(tmp, filepath.Join(d.dir, walFileName)); err != nil {
		f.Close()
		return nil, fmt.Errorf("staging: wal rotate: %w", err)
	}
	syncDir(d.dir)
	return f, nil
}

func syncDir(dir string) {
	// Directory fsync makes the renames durable; best-effort on platforms
	// where directories reject Sync.
	if df, err := os.Open(dir); err == nil {
		df.Sync()
		df.Close()
	}
}

// ---- scan side ----

type walScan struct {
	haveHeader bool
	epoch      uint64
	recs       []walRec
	good       int64 // valid record prefix length (truncate point)
	torn       bool
}

// scanWAL walks a WAL image, tolerating a torn tail. Structural defects
// inside checksum-valid records fail with ErrBadWAL; an identity mismatch
// fails with ErrWALMismatch.
func scanWAL(data []byte, serverID string) (*walScan, error) {
	ws := &walScan{}
	var err error
	ws.good, ws.torn, err = journal.Records(data, func(body []byte) error {
		if !ws.haveHeader {
			epoch, _, err := walFile.readHeader(body, serverID)
			ws.haveHeader, ws.epoch = err == nil, epoch
			return err
		}
		rec, err := decodeWALRecord(body)
		if err == nil {
			ws.recs = append(ws.recs, rec)
		}
		return err
	})
	if err != nil {
		return nil, err
	}
	return ws, nil
}

func decodeWALRecord(body []byte) (walRec, error) {
	d := journal.NewDec(body, ErrBadWAL)
	rec := walRec{typ: d.U8()}
	switch rec.typ {
	case recBlock:
		return decodeKeyedBlock(d)
	case walRecClear:
	case walRecDrop:
		rec.key = d.Str(maxWALKey)
		rec.version = decodeWALVersion(d)
		if rec.key == "" {
			d.Fail("empty drop var")
		}
	case walRecSettle:
		// An audit trail: checked, then ignored (see applyRecovered).
		tenant := d.Str(maxTenantLen)
		d.I64() // byte delta: any value
		blocks := d.I64()
		if !ValidTenant(tenant) {
			d.Fail("bad settle tenant")
		}
		if blocks < -journal.MaxSmallInt || blocks > journal.MaxSmallInt {
			d.Fail("settle block delta %d out of range", blocks)
		}
	case recHeader:
		d.Fail("duplicate header record")
	default:
		d.Fail("unknown record type %d", rec.typ)
	}
	if err := d.Done(); err != nil {
		return walRec{}, err
	}
	return rec, nil
}

// decodeWALVersion reads a version carried as int64 bits and range-checks
// it into the manifest codec's value space.
func decodeWALVersion(d *journal.Dec) int {
	v := d.I64()
	if d.Err() == nil && (v < 0 || v > journal.MaxSmallInt) {
		d.Fail("version %d out of range", v)
		return 0
	}
	return int(v)
}

// decodeKeyedBlock reads the tail of a recBlock record: key, version, seq,
// then the block payload (which must consume the rest of the record
// exactly).
func decodeKeyedBlock(d *journal.Dec) (walRec, error) {
	rec := walRec{typ: recBlock}
	rec.key = d.Str(maxWALKey)
	rec.version = decodeWALVersion(d)
	rec.seq = d.I64()
	rest := d.Rest()
	if err := d.Err(); err != nil {
		return walRec{}, err
	}
	if rec.key == "" {
		return walRec{}, fmt.Errorf("%w: empty key", ErrBadWAL)
	}
	r := bytes.NewReader(rest)
	var err error
	if rec.data, err = DecodeBlock(r); err != nil {
		return walRec{}, fmt.Errorf("%w: block payload: %v", ErrBadWAL, err)
	}
	if r.Len() != 0 {
		return walRec{}, fmt.Errorf("%w: %d trailing block bytes", ErrBadWAL, r.Len())
	}
	return rec, nil
}

// scanSnapshot decodes a snapshot image. Snapshots are complete-or-absent
// (tmp + rename), so anything short of header + objects + matching footer
// with no trailing bytes fails closed with ErrBadSnapshot.
func scanSnapshot(data []byte, serverID string) (epoch, covered uint64, objs []walRec, err error) {
	sawHeader, sawFooter := false, false
	good, torn, err := journal.Records(data, func(body []byte) (err error) {
		if sawFooter {
			return fmt.Errorf("%w: record after footer", ErrBadSnapshot)
		}
		if !sawHeader {
			epoch, covered, err = snapFile.readHeader(body, serverID)
			sawHeader = err == nil
			return err
		}
		d := journal.NewDec(body, ErrBadSnapshot)
		switch typ := d.U8(); typ {
		case recBlock:
			rec, err := decodeKeyedBlock(d)
			if err != nil {
				return fmt.Errorf("%w: %v", ErrBadSnapshot, err)
			}
			objs = append(objs, rec)
		case snapRecFooter:
			count := d.U64()
			if err := d.Done(); err != nil {
				return err
			}
			if count != uint64(len(objs)) {
				return fmt.Errorf("%w: footer counts %d objects, snapshot has %d", ErrBadSnapshot, count, len(objs))
			}
			sawFooter = true
		default:
			return fmt.Errorf("%w: unknown record type %d", ErrBadSnapshot, typ)
		}
		return nil
	})
	switch {
	case err != nil:
	case torn:
		err = fmt.Errorf("%w: torn record at byte %d", ErrBadSnapshot, good)
	case !sawHeader || !sawFooter:
		err = fmt.Errorf("%w: incomplete snapshot (header %v, footer %v)", ErrBadSnapshot, sawHeader, sawFooter)
	}
	if err != nil {
		return 0, 0, nil, err
	}
	return epoch, covered, objs, nil
}
