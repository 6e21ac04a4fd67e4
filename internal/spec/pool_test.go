package spec

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"crosslayer/internal/field"
	"crosslayer/internal/grid"
	"crosslayer/internal/obs"
	"crosslayer/internal/policy"
)

func TestPoolSpecValidation(t *testing.T) {
	cases := []struct {
		name string
		src  string
		want error // nil = any error is wrong, non-nil = errors.Is must match
		ok   bool
	}{
		{
			name: "replicas exceed servers",
			src: `{"application": "polytropic-gas", "domain": [16,16,16],
			       "staging_tcp": true, "staging_servers": 2, "staging_replicas": 3}`,
			want: ErrReplicasExceedServers,
		},
		{
			name: "replicas without servers",
			src: `{"application": "polytropic-gas", "domain": [16,16,16],
			       "staging_tcp": true, "staging_replicas": 2}`,
			want: ErrReplicasExceedServers,
		},
		{
			name: "servers without staging_tcp",
			src: `{"application": "polytropic-gas", "domain": [16,16,16],
			       "staging_servers": 3}`,
			want: ErrServersRequireTCP,
		},
		{
			name: "kill without pool",
			src: `{"application": "polytropic-gas", "domain": [16,16,16],
			       "staging_tcp": true,
			       "staging_kill": {"server": 0, "at_step": 1}}`,
			want: ErrKillRequiresPool,
		},
		{
			name: "kill server out of range",
			src: `{"application": "polytropic-gas", "domain": [16,16,16],
			       "staging_tcp": true, "staging_servers": 3,
			       "staging_kill": {"server": 3, "at_step": 1}}`,
		},
		{
			name: "kill revive before crash",
			src: `{"application": "polytropic-gas", "domain": [16,16,16],
			       "staging_tcp": true, "staging_servers": 3,
			       "staging_kill": {"server": 1, "at_step": 4, "revive_step": 2}}`,
		},
		{
			name: "kill after the run ends",
			src: `{"application": "polytropic-gas", "domain": [16,16,16], "steps": 3,
			       "staging_tcp": true, "staging_servers": 3,
			       "staging_kill": {"server": 1, "at_step": 3}}`,
			want: ErrKillOutsideRun,
		},
		{
			name: "negative servers",
			src: `{"application": "polytropic-gas", "domain": [16,16,16],
			       "staging_servers": -1}`,
		},
		{
			name: "valid pool",
			src: `{"application": "polytropic-gas", "domain": [16,16,16],
			       "staging_tcp": true, "staging_servers": 3, "staging_replicas": 2,
			       "staging_kill": {"server": 1, "at_step": 2, "revive_step": 4}}`,
			ok: true,
		},
		{
			name: "single server stays valid without staging_tcp knobs",
			src: `{"application": "polytropic-gas", "domain": [16,16,16],
			       "staging_servers": 1, "staging_replicas": 1}`,
			ok: true,
		},
		{
			name: "tenant without staging_tcp",
			src: `{"application": "polytropic-gas", "domain": [16,16,16],
			       "tenant": "t0"}`,
			want: ErrTenantRequiresPool,
		},
		{
			name: "one-server tenant",
			src: `{"application": "polytropic-gas", "domain": [16,16,16],
			       "staging_tcp": true, "tenant": "t0"}`,
			ok: true,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := Parse(strings.NewReader(tc.src))
			if tc.ok {
				if err != nil {
					t.Fatalf("valid spec rejected: %v", err)
				}
				return
			}
			if err == nil {
				t.Fatal("bad spec accepted")
			}
			if tc.want != nil && !errors.Is(err, tc.want) {
				t.Fatalf("err = %v, want errors.Is(%v)", err, tc.want)
			}
		})
	}
}

// TestStagingTCPBuildsPool: every staging_tcp spec stages through a
// replicated pool with one endpoint per server, a one-server spec included.
func TestStagingTCPBuildsPool(t *testing.T) {
	domain := grid.NewBox(grid.IV(0, 0, 0), grid.IV(15, 15, 15))
	for _, servers := range []int{1, 3} {
		w := &Workflow{Application: "polytropic-gas", Domain: [3]int{16, 16, 16},
			StagingTCP: true, StagingServers: servers}
		if err := w.validate(); err != nil {
			t.Fatal(err)
		}
		pool, closers, _, err := w.buildStaging(domain, nil, nil)
		if err != nil {
			t.Fatalf("%d servers: %v", servers, err)
		}
		_, total := pool.HealthyEndpoints()
		b := field.New(grid.BoxFromSize(grid.IV(0, 0, 0), grid.IV(8, 8, 8)), 1)
		err = pool.Put("rho", 0, b)
		for i := len(closers) - 1; i >= 0; i-- {
			closers[i].Close()
		}
		if total != servers {
			t.Errorf("%d servers: pool of %d endpoints, want %d", servers, total, servers)
		}
		if err != nil {
			t.Errorf("%d servers: put through the pool: %v", servers, err)
		}
	}
}

func TestParseKill(t *testing.T) {
	k, err := ParseKill("server=1,at=3,revive=6")
	if err != nil {
		t.Fatal(err)
	}
	if k.Server != 1 || k.AtStep != 3 || k.ReviveStep != 6 {
		t.Fatalf("parsed %+v", k)
	}
	k, err = ParseKill(" server=2 , at=0 ")
	if err != nil {
		t.Fatal(err)
	}
	if k.Server != 2 || k.AtStep != 0 || k.ReviveStep != 0 {
		t.Fatalf("parsed %+v", k)
	}
	if k, err := ParseKill(""); err != nil || k != nil {
		t.Fatalf("empty: %v, %v", k, err)
	}
	for _, bad := range []string{"server", "server=x", "when=3", "server=1=2"} {
		if _, err := ParseKill(bad); err == nil {
			t.Errorf("ParseKill(%q) accepted", bad)
		}
	}
}

// poolKillSpec is the acceptance scenario: a 3-server/2-replica pool with
// one server crashed after step 2 and revived after step 5.
func poolKillSpec(replicas int, eventsPath string) string {
	return fmt.Sprintf(`{
		"application": "advection-diffusion",
		"domain": [16, 16, 16],
		"placement": "intransit",
		"staging_tcp": true,
		"staging_servers": 3,
		"staging_replicas": %d,
		"staging_kill": {"server": 0, "at_step": 2, "revive_step": 5},
		"events": %q,
		"steps": 10
	}`, replicas, eventsPath)
}

// runPoolKill builds and runs the scenario once, returning the run's step
// reasons and raw event log.
func runPoolKill(t *testing.T, replicas int, eventsPath string) ([]string, []byte) {
	t.Helper()
	w, err := Parse(strings.NewReader(poolKillSpec(replicas, eventsPath)))
	if err != nil {
		t.Fatal(err)
	}
	wf, _, err := w.Build()
	if err != nil {
		t.Fatal(err)
	}
	res := wf.Run(w.StepsOrDefault())
	if err := wf.Close(); err != nil {
		t.Fatal(err)
	}
	reasons := make([]string, len(res.Steps))
	for i, s := range res.Steps {
		reasons[i] = s.PlacementReason
	}
	log, err := os.ReadFile(eventsPath)
	if err != nil {
		t.Fatal(err)
	}
	return reasons, log
}

// TestPoolCrashFailoverAcceptance: with 2 replicas, a mid-run server crash
// must be absorbed — no step degrades to staging_failure, reads fail over,
// the rejoining server is repaired, and the whole run (event log included)
// is reproducible byte for byte.
func TestPoolCrashFailoverAcceptance(t *testing.T) {
	dir := t.TempDir()
	log1Path := filepath.Join(dir, "run1.jsonl")
	log2Path := filepath.Join(dir, "run2.jsonl")

	reasons, log1 := runPoolKill(t, 2, log1Path)
	for i, r := range reasons {
		if r == policy.ReasonStagingFailure {
			t.Errorf("step %d degraded to staging_failure despite a surviving replica", i)
		}
	}

	events, err := obs.ReadEvents(bytes.NewReader(log1))
	if err != nil {
		t.Fatal(err)
	}
	sum := obs.SummarizeEvents(events)
	if sum.ByKind[obs.KindEndpointDown] == 0 {
		t.Error("no endpoint_down event for the crashed server")
	}
	if sum.ByKind[obs.KindFailoverGet] == 0 {
		t.Error("no failover_get event while the primary was dead")
	}
	if sum.ByKind[obs.KindRepair] == 0 {
		t.Error("no repair event for the rejoined server")
	}
	if sum.ByKind[obs.KindEndpointUp] == 0 {
		t.Error("no endpoint_up event after the revive")
	}

	// Determinism: a second invocation of the same seeded plan must emit a
	// byte-identical event stream.
	_, log2 := runPoolKill(t, 2, log2Path)
	if !bytes.Equal(log1, log2) {
		t.Error("event logs differ between two runs of the same seeded crash plan")
	}
}

// TestPoolCrashReplicasOneDegrades: the same crash with no replication is a
// real data loss — the run must degrade those steps to in-situ, exactly like
// the single-server failure path.
func TestPoolCrashReplicasOneDegrades(t *testing.T) {
	dir := t.TempDir()
	reasons, _ := runPoolKill(t, 1, filepath.Join(dir, "run.jsonl"))
	degraded := 0
	for _, r := range reasons {
		if r == policy.ReasonStagingFailure {
			degraded++
		}
	}
	if degraded == 0 {
		t.Fatal("no step degraded with replicas=1 and a crashed server")
	}
}
