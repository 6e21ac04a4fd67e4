package staging

import (
	"errors"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"time"

	"crosslayer/internal/faultnet"
	"crosslayer/internal/grid"
)

// FleetOptions describes a loopback staging deployment: N servers, each
// over its own Space. The zero value of every field but Domain is usable.
type FleetOptions struct {
	// Servers is how many servers to stand up (default 1).
	Servers int
	// Domain is the global domain every space indexes its blocks within.
	Domain grid.Box
	// Capacity bounds each server's memory in bytes (0 = unlimited).
	Capacity int64
	// Addr is the listen address every server binds (default
	// "127.0.0.1:0": a free loopback port each).
	Addr string
	// Fault, when set, wraps every listener in this fault plan.
	Fault *faultnet.Plan
	// DataDir, when set, makes the fleet durable: server i persists its
	// space under <DataDir>/server-<i> with server id s<i>, recovering
	// whatever a previous incarnation left there before it serves.
	DataDir string
	// Quotas are tenant quotas applied to every server's space.
	Quotas map[string]TenantQuota
	// Server is every server's admission, event and metrics configuration;
	// its DataDir and ServerID are set per server from DataDir above.
	Server ServerOptions
}

// Fleet is one loopback staging deployment — the set of servers a workflow,
// a chaos schedule, a load run or `xlayer serve` is pointed at — and the
// one place a server and its data dir come into being. Each server sits
// behind listener → faultnet.Gate → optional fault plan; the gate is a
// pass-through until Kill.
type Fleet struct {
	dataDir string
	servers []*Server
	spaces  []*Space
	gates   []*faultnet.Gate
}

// LoopbackClient is the client budget for a Fleet's servers: over loopback a
// healthy round trip is microseconds, so a dead server should degrade steps
// (or trip a pool breaker), not stall the run for minutes. Callers behind a
// pool breaker lower MaxRetries to 1.
func LoopbackClient() ClientOptions {
	return ClientOptions{
		OpTimeout:   2 * time.Second,
		MaxRetries:  2,
		BackoffBase: time.Millisecond,
		BackoffMax:  10 * time.Millisecond,
	}
}

// NewFleet stands the deployment up. On any error every listener bound and
// server started so far is closed again before the error is returned.
func NewFleet(o FleetOptions) (*Fleet, error) {
	if o.Addr == "" {
		o.Addr = "127.0.0.1:0"
	}
	f := &Fleet{dataDir: o.DataDir}
	for i := 0; i < max(o.Servers, 1); i++ {
		space := NewSpace(1, o.Capacity, o.Domain)
		for tenant, q := range o.Quotas {
			space.SetTenantQuota(tenant, q)
		}
		ln, err := net.Listen("tcp", o.Addr)
		if err != nil {
			f.Close()
			return nil, fmt.Errorf("staging: fleet server %d: %w", i, err)
		}
		gate := faultnet.NewGate(ln)
		var wrapped net.Listener = gate
		if o.Fault != nil {
			wrapped = faultnet.Listen(gate, *o.Fault)
		}
		opts := o.Server
		if o.DataDir != "" {
			opts.DataDir, opts.ServerID = f.DataDir(i), serverID(i)
		}
		// NewServer closes the listener chain itself when recovery fails.
		srv, err := NewServer(wrapped, space, opts)
		if err != nil {
			f.Close()
			return nil, fmt.Errorf("staging: fleet server %d: recover %s: %w", i, opts.DataDir, err)
		}
		f.servers = append(f.servers, srv)
		f.spaces = append(f.spaces, space)
		f.gates = append(f.gates, gate)
	}
	return f, nil
}

func serverID(i int) string { return fmt.Sprintf("s%d", i) }

// DataDir returns durable server i's own directory under the fleet's.
func (f *Fleet) DataDir(i int) string {
	return filepath.Join(f.dataDir, fmt.Sprintf("server-%d", i))
}

// Addrs returns the servers' bound addresses, in server order. They are
// stable for the fleet's lifetime: Kill, Revive and Restart keep the socket.
func (f *Fleet) Addrs() []string {
	addrs := make([]string, len(f.servers))
	for i, s := range f.servers {
		addrs[i] = s.Addr()
	}
	return addrs
}

// Server returns server i.
func (f *Fleet) Server(i int) *Server { return f.servers[i] }

// Kill crashes server i the way its clients and its replicas see it: the
// gate severs every connection and refuses new ones, and the space is
// emptied, so a revived server rejoins with nothing and the pool's rejoin
// repair has real work. (A durable space logs the clear; use Restart to
// model a crash that keeps the disk.)
func (f *Fleet) Kill(i int) {
	f.gates[i].Kill()
	f.spaces[i].Clear()
}

// Revive reopens server i's gate on the same address.
func (f *Fleet) Revive(i int) { f.gates[i].Revive() }

// Down reports whether server i's gate is currently killed.
func (f *Fleet) Down(i int) bool { return f.gates[i].Down() }

// Wipe empties server i's space while it keeps serving — silent state loss.
func (f *Fleet) Wipe(i int) { f.spaces[i].Clear() }

// Restart hard-kills durable server i and brings it back over its data dir:
// the gate severs connections, the WAL handle drops without a flush (kill -9
// on disk), memory empties — then the space recovers from the dir (fromDisk)
// or the dir is discarded and it rejoins empty. The gate reopens only after
// recovery completes, the way a restarted process listens only once it has
// replayed its log; on error it stays down. Same Server, same address.
func (f *Fleet) Restart(i int, fromDisk bool) (*RecoverStats, error) {
	if f.dataDir == "" {
		return nil, errors.New("staging: fleet restart needs a data dir")
	}
	f.gates[i].Kill()
	f.spaces[i].CrashPersist()
	f.spaces[i].Clear()
	dir := f.DataDir(i)
	if !fromDisk {
		if err := os.RemoveAll(dir); err != nil {
			return nil, fmt.Errorf("staging: fleet restart server %d: %w", i, err)
		}
	}
	stats, err := f.spaces[i].Persist(dir, serverID(i))
	if err != nil {
		return nil, fmt.Errorf("staging: fleet restart server %d: %w", i, err)
	}
	f.gates[i].Revive()
	return stats, nil
}

// Close hard-stops every server (see Server.Close): connections severed, a
// durable server's WAL handle dropped without a final flush.
func (f *Fleet) Close() error {
	var errs []error
	for _, s := range f.servers {
		errs = append(errs, s.Close())
	}
	return errors.Join(errs...)
}

// Shutdown stops every server gracefully (see Server.Shutdown): in-flight
// requests drain, durable servers flush and fsync their WALs.
func (f *Fleet) Shutdown() error {
	var errs []error
	for _, s := range f.servers {
		errs = append(errs, s.Shutdown())
	}
	return errors.Join(errs...)
}
