package main

import (
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"sync"
	"time"

	"crosslayer/internal/field"
	"crosslayer/internal/grid"
	"crosslayer/internal/obs"
	"crosslayer/internal/obs/span"
	"crosslayer/internal/staging"
)

// The deployment every workload runs against: three staging servers on raw
// loopback (no faultnet latency), each block held by two of them.
const (
	numServers  = 3
	numReplicas = 2
)

// everywhere covers every level's index space, for reads that want all of a
// version's blocks whatever their refinement level.
var everywhere = grid.NewBox(grid.IV(-(1<<30), -(1<<30), -(1<<30)), grid.IV(1<<30, 1<<30, 1<<30))

func cube(edge int) grid.Box {
	return grid.NewBox(grid.IV(0, 0, 0), grid.IV(edge-1, edge-1, edge-1))
}

// deployment is one in-process staging service: numServers servers, each over
// its own Space, in-memory or durable (WAL under dir, fsync before ack).
type deployment struct {
	domain  grid.Box
	dir     string // "" = in-memory
	spaces  []*staging.Space
	servers []*staging.Server
	addrs   []string
	pools   []*staging.Pool // closed with the deployment
}

// serverTweak lets the toggle runs switch server-side features on.
type serverTweak struct {
	events *obs.Emitter
	tracer *span.Tracer
}

// deploy starts the servers. Durable ones keep their data dirs under tmp
// ("" = the system's temporary directory) until close removes them.
func deploy(domain grid.Box, durable bool, tmp string, tw serverTweak) (*deployment, error) {
	d := &deployment{domain: domain}
	if durable {
		dir, err := os.MkdirTemp(tmp, "xbench-wal-")
		if err != nil {
			return nil, err
		}
		d.dir = dir
	}
	for i := 0; i < numServers; i++ {
		opts := staging.ServerOptions{Events: tw.events}
		if d.dir != "" {
			opts.DataDir, opts.ServerID = d.serverDir(i), serverID(i)
		}
		sp := staging.NewSpace(4, 0, domain)
		srv, err := staging.ServeOptions("127.0.0.1:0", sp, opts)
		if err != nil {
			d.close()
			return nil, fmt.Errorf("server %d: %w", i, err)
		}
		srv.Trace(tw.tracer)
		d.spaces = append(d.spaces, sp)
		d.servers = append(d.servers, srv)
		d.addrs = append(d.addrs, srv.Addr())
	}
	return d, nil
}

func serverID(i int) string { return fmt.Sprintf("s%d", i) }

func (d *deployment) serverDir(i int) string { return filepath.Join(d.dir, serverID(i)) }

// close shuts the pools, stops the servers the hard way (a durable server
// drops its WAL handle without a final sync) and removes any data dirs.
func (d *deployment) close() {
	for _, p := range d.pools {
		p.Close()
	}
	d.pools = nil
	for _, s := range d.servers {
		s.Close()
	}
	d.servers = nil
	if d.dir != "" {
		os.RemoveAll(d.dir)
	}
}

// pool builds a client pool over the deployment and pushes one untimed
// put/get/drop through it so every endpoint's lazy dial happens in set-up.
func (d *deployment) pool(opts staging.PoolOptions) (*staging.Pool, error) {
	opts.Replicas = numReplicas
	p, err := staging.NewPool(d.addrs, d.domain, opts)
	if err != nil {
		return nil, err
	}
	b := field.New(grid.BoxFromSize(d.domain.Lo, grid.IV(2, 2, 2)), 1)
	err = p.Put("warm", 0, b)
	if err == nil {
		_, err = p.GetBlocks("warm", 0, d.domain)
	}
	if err == nil {
		_, err = p.DropBefore("warm", 1)
	}
	if err != nil {
		p.Close()
		return nil, fmt.Errorf("pool warm-up: %w", err)
	}
	d.pools = append(d.pools, p)
	return p, nil
}

// walStats sums the durability counters over the deployment's spaces.
func (d *deployment) walStats() (st staging.WALStats) {
	for _, sp := range d.spaces {
		s := sp.WALStats()
		st.Records += s.Records
		st.Bytes += s.Bytes
		st.Fsyncs += s.Fsyncs
		st.Snapshots += s.Snapshots
	}
	return st
}

func (d *deployment) admission() (admitted, shed int64) {
	for _, s := range d.servers {
		a, _, sh, _ := s.AdmissionStats()
		admitted += a
		shed += sh
	}
	return admitted, shed
}

// contents is what one space holds: its manifest with per-entry bytes, and a
// checksum over every block, for comparing before a crash with after recovery.
type contents struct {
	manifest staging.Manifest
	sizes    []int64
	sum      uint64
}

func contentsOf(sp *staging.Space) (contents, error) {
	c := contents{}
	c.manifest, c.sizes = sp.ContentManifestSized()
	for _, e := range c.manifest.Entries {
		blocks, err := sp.GetBlocks(e.Var, e.Version, everywhere)
		if err != nil {
			return c, err
		}
		for _, b := range blocks {
			c.sum += blockSum(b)
		}
	}
	return c, nil
}

func (c contents) equal(o contents) bool {
	if !c.manifest.Equal(o.manifest) || c.sum != o.sum || len(c.sizes) != len(o.sizes) {
		return false
	}
	for i := range c.sizes {
		if c.sizes[i] != o.sizes[i] {
			return false
		}
	}
	return true
}

// crashAndRecover is the durability check: it leaves a seeded set of acked
// blocks live, stops every server without a final sync, recovers fresh spaces
// from the same dirs and requires each to hold exactly what its predecessor
// had acked. It returns the recovery time, the blocks recovered and how many
// servers came back different.
func (d *deployment) crashAndRecover(p *staging.Pool, rng *rand.Rand) (recoverMs float64, recovered, differ int, err error) {
	for _, b := range seededBlocks(rng, d.domain, 8, 1) {
		if err := p.Put("survivor", 0, b); err != nil {
			return 0, 0, 0, fmt.Errorf("durability check put: %w", err)
		}
	}
	acked := make([]contents, len(d.spaces))
	for i, sp := range d.spaces {
		if acked[i], err = contentsOf(sp); err != nil {
			return 0, 0, 0, err
		}
	}
	for _, s := range d.servers {
		s.Close()
	}
	d.servers = nil
	for i := range d.spaces {
		sp := staging.NewSpace(4, 0, d.domain)
		t0 := time.Now()
		st, err := sp.Persist(d.serverDir(i), serverID(i))
		recoverMs += float64(time.Since(t0).Nanoseconds()) / 1e6
		if err != nil {
			return 0, 0, 0, fmt.Errorf("recover server %d: %w", i, err)
		}
		got, err := contentsOf(sp)
		sp.CrashPersist()
		if err != nil {
			return 0, 0, 0, err
		}
		recovered += st.Blocks
		if !got.equal(acked[i]) {
			differ++
		}
	}
	return recoverMs, recovered, differ, nil
}

// blockSum is a word-wise FNV-1a over a block's box, component count and
// payload bits, in four lanes so the multiply chain does not serialise.
func blockSum(d *field.BoxData) uint64 {
	const (
		offset = 14695981039346656037
		prime  = 1099511628211
	)
	h0, h1, h2, h3 := uint64(offset), uint64(offset)+1, uint64(offset)+2, uint64(offset)+3
	for _, v := range [...]int{d.Box.Lo.X, d.Box.Lo.Y, d.Box.Lo.Z, d.Box.Hi.X, d.Box.Hi.Y, d.Box.Hi.Z, d.NComp} {
		h0 = (h0 ^ uint64(int64(v))) * prime
	}
	for c := 0; c < d.NComp; c++ {
		s := d.Comp(c)
		i := 0
		for ; i+4 <= len(s); i += 4 {
			h0 = (h0 ^ math.Float64bits(s[i])) * prime
			h1 = (h1 ^ math.Float64bits(s[i+1])) * prime
			h2 = (h2 ^ math.Float64bits(s[i+2])) * prime
			h3 = (h3 ^ math.Float64bits(s[i+3])) * prime
		}
		for ; i < len(s); i++ {
			h0 = (h0 ^ math.Float64bits(s[i])) * prime
		}
	}
	return ((h0*prime^h1)*prime^h2)*prime ^ h3
}

// seededBlocks tiles domain into edge³ blocks of ncomp components filled from
// rng: the same seed gives the same bytes.
func seededBlocks(rng *rand.Rand, domain grid.Box, edge, ncomp int) []*field.BoxData {
	var out []*field.BoxData
	for z := domain.Lo.Z; z <= domain.Hi.Z; z += edge {
		for y := domain.Lo.Y; y <= domain.Hi.Y; y += edge {
			for x := domain.Lo.X; x <= domain.Hi.X; x += edge {
				b := field.New(grid.BoxFromSize(grid.IV(x, y, z), grid.IV(edge, edge, edge)), ncomp)
				for c := 0; c < ncomp; c++ {
					s := b.Comp(c)
					for i := range s {
						s[i] = rng.Float64()
					}
				}
				out = append(out, b)
			}
		}
	}
	return out
}

// blockStore is the seam the meter decorates: core.StagingStore's method set,
// which *staging.Pool satisfies.
type blockStore interface {
	Put(varName string, version int, d *field.BoxData) error
	GetBlocks(varName string, version int, region grid.Box) ([]*field.BoxData, error)
	DropBefore(varName string, version int) (int64, error)
}

// meter is the always-on decorator between a workload and its pool. It times
// every operation, counts real payload bytes, checks every read-back against
// what was put, and in a traced round records one span per call.
type meter struct {
	inner blockStore
	rec   *recorder // nil in untraced rounds

	// expect overrides the read-back check; nil compares a whole-version
	// read with the running checksum of that version's puts.
	expect func(version int, region grid.Box) (blocks int, sum uint64)

	mu                   sync.Mutex
	putNs, getNs, dropNs []int64
	putBytes, getBytes   int64
	errs, mismatches     int
	written              map[int]versionSum
}

type versionSum struct {
	blocks int
	sum    uint64
}

func newMeter(inner blockStore, rec *recorder) *meter {
	return &meter{inner: inner, rec: rec, written: make(map[int]versionSum)}
}

func (m *meter) Put(varName string, version int, d *field.BoxData) error {
	sum := blockSum(d)
	t0 := time.Now()
	err := m.inner.Put(varName, version, d)
	t1 := time.Now()
	m.rec.add("pool.put", t0, t1)
	m.mu.Lock()
	defer m.mu.Unlock()
	m.putNs = append(m.putNs, t1.Sub(t0).Nanoseconds())
	if err != nil {
		m.errs++
		return err
	}
	m.putBytes += d.Bytes()
	w := m.written[version]
	m.written[version] = versionSum{w.blocks + 1, w.sum + sum}
	return nil
}

func (m *meter) GetBlocks(varName string, version int, region grid.Box) ([]*field.BoxData, error) {
	t0 := time.Now()
	got, err := m.inner.GetBlocks(varName, version, region)
	t1 := time.Now()
	m.rec.add("pool.get", t0, t1)
	var sum uint64
	var bytes int64
	for _, b := range got {
		sum += blockSum(b)
		bytes += b.Bytes()
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	m.getNs = append(m.getNs, t1.Sub(t0).Nanoseconds())
	if err != nil {
		m.errs++
		return got, err
	}
	m.getBytes += bytes
	want := m.written[version]
	if m.expect != nil {
		want.blocks, want.sum = m.expect(version, region)
	}
	if len(got) != want.blocks || sum != want.sum {
		m.mismatches++
	}
	return got, nil
}

func (m *meter) DropBefore(varName string, version int) (int64, error) {
	t0 := time.Now()
	n, err := m.inner.DropBefore(varName, version)
	t1 := time.Now()
	m.rec.add("pool.drop", t0, t1)
	m.mu.Lock()
	defer m.mu.Unlock()
	m.dropNs = append(m.dropNs, t1.Sub(t0).Nanoseconds())
	if err != nil {
		m.errs++
		return n, err
	}
	for v := range m.written {
		if v < version {
			delete(m.written, v)
		}
	}
	return n, nil
}

// meteredPool hands a workflow the metered data path while the embedded pool
// keeps answering the optional interfaces core looks for on its store
// (endpoint health, transport counters, event and span drains).
type meteredPool struct {
	*staging.Pool
	m *meter
}

func (s meteredPool) Put(varName string, version int, d *field.BoxData) error {
	return s.m.Put(varName, version, d)
}

func (s meteredPool) GetBlocks(varName string, version int, region grid.Box) ([]*field.BoxData, error) {
	return s.m.GetBlocks(varName, version, region)
}

func (s meteredPool) DropBefore(varName string, version int) (int64, error) {
	return s.m.DropBefore(varName, version)
}
