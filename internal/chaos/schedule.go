// Package chaos is a deterministic chaos-exploration harness for the
// coupled workflow: it generates seeded random fault schedules (endpoint
// kills and revives at arbitrary steps, faultnet latency/drop/corrupt
// plans, staging-memory squeezes, staging concurrency 1..8) over the
// replicated staging.Pool and the real core.Workflow, runs every schedule
// through the real engine, and checks a registry of cross-layer invariants
// after every step. When an invariant is violated, an automatic shrinker
// minimizes the schedule to a smallest failing repro and writes it as a
// runnable JSON file that replays byte for byte.
//
// The trustworthiness argument: PRs 1–4 hand-wrote a handful of crash and
// rejoin scenarios; trigger-detection work on adaptive workflows shows the
// rare data-dependent states are exactly where adaptive runtimes break, so
// the schedule space is searched rather than sampled by hand. Every
// schedule is a pure function of its seed, so a violating seed is a
// complete bug report.
package chaos

import (
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"os"
	"slices"

	"crosslayer/internal/policy"
)

// Kill crashes one staging server after step At completes: the gate severs
// in-flight connections and refuses accepts, and the server's backing space
// is cleared (process death loses state). Revive restores the listener
// after step Revive completes; 0 means the server never comes back. Revive
// alone does not restore data — the pool's anti-entropy repair does, when
// the endpoint's half-open probe succeeds.
type Kill struct {
	Server int `json:"server"`
	At     int `json:"at"`
	Revive int `json:"revive,omitempty"`
}

// Wipe silently clears one server's backing space after step At completes
// without touching its gate — modeled bit rot the transport layer cannot
// see. No generated schedule contains a Wipe: it is the test-only hook the
// acceptance tests use to seed a deliberate durability violation that the
// explorer must catch and shrink. Unlike a Kill, a Wipe never disarms the
// durability audit: undetected state loss is exactly the bug class the
// audit exists to catch.
type Wipe struct {
	Server int `json:"server"`
	At     int `json:"at"`
}

// Crash kills the workflow driver after step At completes: the workflow,
// its emitter, and its tracer are abandoned with their buffers unflushed —
// exactly what SIGKILL leaves behind — while the staging servers (separate
// processes in the deployment shape) keep running. A fresh driver then
// resumes from the write-ahead journal and finishes the run. At must leave
// at least one step to execute after the resume.
type Crash struct {
	At int `json:"at"`
}

// Restart hard-kills one staging server after step At completes and
// immediately restarts it over the same data dir: the gate severs in-flight
// connections exactly as a Kill does, the server's WAL file descriptor is
// dropped without a flush (what kill -9 leaves on disk, torn tail included),
// and the reborn server recovers before the gate reopens. With Recover true
// it replays its snapshot and WAL, so every acked put survives and the
// durability audit stays armed across the restart; with Recover false the
// data dir is discarded and the server rejoins empty, leaning on rejoin
// repair like a Kill that revives at the same barrier. Any schedule with a
// restart runs every server with disk persistence from step 0.
type Restart struct {
	Server  int  `json:"server"`
	At      int  `json:"at"`
	Recover bool `json:"recover"`
}

// NetFault is the faultnet plan applied to every staging server's listener:
// deterministic per-connection latency, byte budgets, and seeded
// probabilistic corruption, exactly as `xlayer run -fault` wires it.
type NetFault struct {
	Seed           int64   `json:"seed"`
	LatencyUS      int     `json:"latency_us,omitempty"`
	DropAfterBytes int64   `json:"drop_after_bytes,omitempty"`
	TruncateRate   float64 `json:"truncate_rate,omitempty"`
	CorruptRate    float64 `json:"corrupt_rate,omitempty"`
	RefuseAccepts  int     `json:"refuse_accepts,omitempty"`
}

// errorProducing reports whether the plan can surface transport errors to
// the pool (as opposed to latency, which only slows clean round trips).
func (f *NetFault) errorProducing() bool {
	if f == nil {
		return false
	}
	return f.DropAfterBytes > 0 || f.TruncateRate > 0 || f.CorruptRate > 0 || f.RefuseAccepts != 0
}

// Schedule is one deterministic chaos scenario: the workload shape, the
// pool topology, and the faults injected at step boundaries. A schedule is
// a pure function of its seed (see Generate), serializes to JSON, and
// replays exactly — the repro files the shrinker writes are Schedules.
type Schedule struct {
	Seed        int64 `json:"seed"`
	Steps       int   `json:"steps"`
	Servers     int   `json:"servers"`
	Replicas    int   `json:"replicas"`
	Concurrency int   `json:"concurrency"`

	// App selects the simulation: "advection-diffusion" (default) or
	// "polytropic-gas".
	App string `json:"app,omitempty"`

	// Objective is the adaptation objective: "tts" (default), "util", or
	// "movement".
	Objective string `json:"objective,omitempty"`

	// Adapt lists the enabled adaptation mechanisms ("application",
	// "middleware", "resource").
	Adapt []string `json:"adapt,omitempty"`

	// Factors are the application layer's hinted reduction factors
	// (range-based mode). Empty disables reduction.
	Factors []int `json:"factors,omitempty"`

	// Hybrid allows split in-situ/in-transit placement.
	Hybrid bool `json:"hybrid,omitempty"`

	// Cooldown is the staging-failure cooldown passed to the engine
	// (0 = the engine default, negative disables it).
	Cooldown int `json:"cooldown,omitempty"`

	// SqueezeBytes, when > 0, caps every staging server's space at this
	// many bytes — the staging-memory squeeze. Puts beyond the cap fail
	// with ErrNoMemory and the workflow degrades the step.
	SqueezeBytes int64 `json:"squeeze_bytes,omitempty"`

	Kills []Kill    `json:"kills,omitempty"`
	Net   *NetFault `json:"net,omitempty"`
	Wipe  *Wipe     `json:"wipe,omitempty"`

	// Crash kills and resumes the workflow driver mid-run (see Crash).
	Crash *Crash `json:"crash,omitempty"`

	// Restarts hard-kill staging servers and restart them over their data
	// dirs (see Restart). Their presence switches every server to durable
	// mode: a per-space write-ahead log plus snapshot compaction.
	Restarts []Restart `json:"restarts,omitempty"`

	// Tenants, when 2, runs the multi-tenant shape: the workflow's staging
	// traffic is scoped to tenant "t0" through a tenant handle on the shared
	// pool (Pool.Tenant) while the harness's durability probes write as
	// tenant "t1" through another — two namespaces sharing every server, and
	// one pool, under whatever faults the schedule throws. 0 (and 1) keep the historical single-tenant shape.
	Tenants int `json:"tenants,omitempty"`

	// QuotaBytes, when > 0 (requires Tenants == 2), caps the probe tenant's
	// per-server byte usage so probe puts start being rejected server-side
	// with the quota status mid-run. The workflow tenant stays unquoted, so
	// the determinism and degradation contracts are untouched; what the
	// dimension buys is probe-tenant quota rejections — the pool's and the
	// servers' quota paths — under every fault chaos throws.
	QuotaBytes int64 `json:"quota_bytes,omitempty"`
}

// FaultCount is the shrinker's size metric: every discrete fault source in
// the schedule counts one.
func (s Schedule) FaultCount() int {
	n := len(s.Kills) + len(s.Restarts)
	if s.Net != nil {
		n++
	}
	if s.SqueezeBytes > 0 {
		n++
	}
	if s.Wipe != nil {
		n++
	}
	if s.Crash != nil {
		n++
	}
	if s.QuotaBytes > 0 {
		n++
	}
	return n
}

// steppedFault is one fault that fires at a step barrier, as the schedule-
// wide rules — validation, truncation, the shrinker's cuts — see it.
type steppedFault struct {
	kind   string // what validation errors call it
	server int    // the staging server it hits (unused when driver)
	driver bool   // hits the workflow driver instead; a step must remain to resume into
	at     int    // fires after this step completes
}

// fits reports whether the fault can fire in a run of steps steps.
func (f steppedFault) fits(steps int) bool {
	if f.driver {
		steps--
	}
	return f.at >= 0 && f.at < steps
}

// keepFaults is the one walk over s's stepped faults — kills, the wipe,
// restarts, the crash, in that order: it returns s with only the faults keep
// accepts. A new stepped fault kind is one more stanza here.
func (s Schedule) keepFaults(keep func(steppedFault) bool) Schedule {
	out := s
	out.Kills, out.Restarts = nil, nil
	for _, k := range s.Kills {
		if keep(steppedFault{kind: "kill", server: k.Server, at: k.At}) {
			out.Kills = append(out.Kills, k)
		}
	}
	if w := s.Wipe; w != nil && !keep(steppedFault{kind: "wipe", server: w.Server, at: w.At}) {
		out.Wipe = nil
	}
	for _, r := range s.Restarts {
		if keep(steppedFault{kind: "restart", server: r.Server, at: r.At}) {
			out.Restarts = append(out.Restarts, r)
		}
	}
	if c := s.Crash; c != nil && !keep(steppedFault{kind: "crash", driver: true, at: c.At}) {
		out.Crash = nil
	}
	return out
}

// steppedFaults lists s's stepped faults in keepFaults' order.
func (s Schedule) steppedFaults() (all []steppedFault) {
	s.keepFaults(func(f steppedFault) bool {
		all = append(all, f)
		return true
	})
	return all
}

// DeterministicByContract reports whether the runtime promises a byte-
// identical event log for repeated runs of s. The deterministic pool path
// (Concurrency <= 1) promises it for any fault mix; the concurrent path
// promises it only while no transport-visible fault can fire, because
// concurrent operations reach an endpoint's queue in arrival order: which
// one crosses a connection's byte budget or meets a dead server, and so
// which later ones find the breaker already open and fail over, depends on
// timing once an endpoint is failing. The replay-determinism invariant is
// enforced exactly where the contract holds.
func (s Schedule) DeterministicByContract() bool {
	if s.Concurrency <= 1 {
		return true
	}
	return len(s.Kills) == 0 && len(s.Restarts) == 0 && !s.Net.errorProducing() &&
		s.SqueezeBytes == 0 && s.Wipe == nil && s.Crash == nil
}

// ResumeComparable reports whether a crash schedule's combined post-resume
// logs are contractually byte-identical to an uninterrupted twin run's: the
// deterministic pool path, and no fault whose effect lives in process-local
// state the journal does not carry (a kill's open circuit breakers die with
// the driver, so the resumed pool legitimately re-detects the endpoint).
func (s Schedule) ResumeComparable() bool {
	return s.Crash != nil && s.Concurrency <= 1 && len(s.Kills) == 0 &&
		len(s.Restarts) == 0 && s.Wipe == nil && !s.Net.errorProducing()
}

// Validate rejects schedules the harness cannot set up.
func (s Schedule) Validate() error {
	if s.Steps < 1 {
		return fmt.Errorf("chaos: schedule needs at least 1 step, got %d", s.Steps)
	}
	if s.Servers < 1 {
		return fmt.Errorf("chaos: schedule needs at least 1 server, got %d", s.Servers)
	}
	if s.Replicas < 1 || s.Replicas > s.Servers {
		return fmt.Errorf("chaos: %d replicas need 1..%d", s.Replicas, s.Servers)
	}
	if s.Concurrency < 0 || s.Concurrency > 64 {
		return fmt.Errorf("chaos: concurrency %d out of range", s.Concurrency)
	}
	for _, f := range s.steppedFaults() {
		switch {
		case !f.driver && (f.server < 0 || f.server >= s.Servers):
			return fmt.Errorf("chaos: %s targets server %d of %d", f.kind, f.server, s.Servers)
		case f.fits(s.Steps):
		case f.driver:
			return fmt.Errorf("chaos: %s at step %d needs 0..%d (a step must remain after the resume)",
				f.kind, f.at, s.Steps-2)
		default:
			return fmt.Errorf("chaos: %s at step %d outside run of %d steps", f.kind, f.at, s.Steps)
		}
	}
	for _, k := range s.Kills {
		if k.Revive != 0 && k.Revive <= k.At {
			return fmt.Errorf("chaos: revive step %d not after kill step %d", k.Revive, k.At)
		}
	}
	switch s.Tenants {
	case 0, 1, 2:
	default:
		return fmt.Errorf("chaos: %d tenants unsupported (0, 1, or 2)", s.Tenants)
	}
	if s.QuotaBytes < 0 {
		return fmt.Errorf("chaos: negative quota_bytes %d", s.QuotaBytes)
	}
	if s.QuotaBytes > 0 && s.Tenants != 2 {
		return fmt.Errorf("chaos: quota_bytes needs the two-tenant shape (tenants=2)")
	}
	switch s.App {
	case "", "advection-diffusion", "polytropic-gas":
	default:
		return fmt.Errorf("chaos: unknown app %q", s.App)
	}
	if _, err := policy.ParseObjective(s.Objective); err != nil {
		return fmt.Errorf("chaos: %w", err)
	}
	if _, err := policy.ParseMechanisms(s.Adapt); err != nil {
		return fmt.Errorf("chaos: %w", err)
	}
	return nil
}

// Generate derives a schedule from a seed: same seed, same schedule,
// forever. The distribution aims chaos where the machinery lives — most
// schedules kill at least one server, replicated topologies dominate, and
// the concurrent data path and the error-producing network plans are
// exercised but never combined in a way that voids the determinism
// contract the replay invariant depends on.
func Generate(seed int64) Schedule {
	rng := rand.New(rand.NewSource(seed))
	s := Schedule{
		Seed:    seed,
		Steps:   6 + rng.Intn(7), // 6..12
		Servers: 2 + rng.Intn(4), // 2..5
	}
	s.Replicas = 1 + rng.Intn(min(s.Servers, 3))
	if rng.Intn(3) == 0 { // one third of schedules use the concurrent path
		s.Concurrency = 2 + rng.Intn(7) // 2..8
	} else {
		s.Concurrency = 1
	}
	if rng.Intn(4) == 0 {
		s.App = "polytropic-gas"
	}
	switch rng.Intn(6) {
	case 0:
		s.Objective = "util"
	case 1:
		s.Objective = "movement"
	}
	adaptSets := [][]string{
		nil,
		{"middleware"},
		{"application", "middleware"},
		{"application", "middleware", "resource"},
		{"application", "resource"},
	}
	s.Adapt = adaptSets[rng.Intn(len(adaptSets))]
	if slices.Contains(s.Adapt, "application") {
		factorSets := [][]int{{2, 4}, {2, 4, 8}, {2, 4, 8, 16}}
		s.Factors = factorSets[rng.Intn(len(factorSets))]
	}
	s.Hybrid = slices.Contains(s.Adapt, "middleware") && rng.Intn(4) == 0
	if rng.Intn(5) == 0 {
		s.Cooldown = 1 + rng.Intn(3)
	}

	// Faults. Kills are the main dish: up to three per run.
	nKills := rng.Intn(4)
	for i := 0; i < nKills; i++ {
		k := Kill{
			Server: rng.Intn(s.Servers),
			At:     rng.Intn(s.Steps),
		}
		if rng.Intn(3) != 0 { // most crashes rejoin
			k.Revive = k.At + 1 + rng.Intn(3)
		}
		s.Kills = append(s.Kills, k)
	}
	// Network plans: latency composes with anything; byte budgets and
	// corruption only ride the deterministic pool path (see
	// DeterministicByContract) and use budgets large enough that the
	// durability audit's own reads survive a retry.
	if rng.Intn(3) == 0 {
		nf := &NetFault{Seed: rng.Int63n(1 << 30), LatencyUS: 50 + rng.Intn(200)}
		if s.Concurrency <= 1 && rng.Intn(2) == 0 {
			switch rng.Intn(3) {
			case 0:
				nf.DropAfterBytes = int64(256<<10) + rng.Int63n(256<<10)
			case 1:
				nf.TruncateRate = 0.002 + rng.Float64()*0.01
			case 2:
				nf.CorruptRate = 0.002 + rng.Float64()*0.01
			}
		}
		s.Net = nf
	}
	// Memory squeeze: a per-server cap small enough that some steps will
	// not fit and must degrade.
	if rng.Intn(6) == 0 {
		s.SqueezeBytes = int64(8<<10) + rng.Int63n(56<<10)
	}
	// Driver crash: kill the workflow at a step barrier and resume it from
	// the journal, leaving at least one step for the resumed run.
	if rng.Intn(4) == 0 {
		s.Crash = &Crash{At: rng.Intn(s.Steps - 1)}
	}
	// Two-tenant dimension, drawn last so every seed keeps the schedule it
	// generated before the dimension existed. A third of schedules split the
	// run across two namespaces; half of those squeeze the probe tenant's
	// quota small enough (the probes are 64-byte blocks that are never
	// dropped) that rejections fire within the first few steps.
	if rng.Intn(3) == 0 {
		s.Tenants = 2
		if rng.Intn(2) == 0 {
			s.QuotaBytes = 256 + rng.Int63n(1<<10)
		}
	}
	// Durable-restart dimension, drawn after every older draw so historical
	// seeds keep the schedules they generated before the dimension existed.
	// A quarter of schedules hard-kill one server at a step barrier and
	// restart it over its own data dir; most recover from disk — the
	// durability audit stays armed across those — while the rest lose the
	// dir and rejoin empty, leaning on rejoin repair.
	if rng.Intn(4) == 0 {
		s.Restarts = append(s.Restarts, Restart{
			Server:  rng.Intn(s.Servers),
			At:      rng.Intn(s.Steps),
			Recover: rng.Intn(4) != 0,
		})
	}
	return s
}

// WriteSchedule serializes s as indented JSON.
func WriteSchedule(w io.Writer, s Schedule) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(s)
}

// ReadSchedule parses a schedule, rejecting unknown fields and invalid
// values so a repro file always either replays or fails loudly.
func ReadSchedule(r io.Reader) (Schedule, error) {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	var s Schedule
	if err := dec.Decode(&s); err != nil {
		return Schedule{}, fmt.Errorf("chaos: %w", err)
	}
	if err := s.Validate(); err != nil {
		return Schedule{}, err
	}
	return s, nil
}

// SaveFile writes s to path as a runnable repro.
func SaveFile(path string, s Schedule) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("chaos: %w", err)
	}
	if err := WriteSchedule(f, s); err != nil {
		f.Close()
		return fmt.Errorf("chaos: %w", err)
	}
	return f.Close()
}

// LoadFile reads a repro schedule from path.
func LoadFile(path string) (Schedule, error) {
	f, err := os.Open(path)
	if err != nil {
		return Schedule{}, fmt.Errorf("chaos: %w", err)
	}
	defer f.Close()
	return ReadSchedule(f)
}
