package spec

import (
	"bytes"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files")

// runSpec builds and runs one replicated-pool spec with the artifact field key
// set to value, calling beforeClose (when non-nil) after Run and before
// Close. With kill set the run is 8 steps long and server 1 crashes after
// step 3 and rejoins after step 6, so it covers breaker trips, failover
// reads and a rejoin repair; otherwise it is 4 healthy steps.
func runSpec(t *testing.T, conc int, kill bool, key, value string, beforeClose func(w *Workflow)) {
	t.Helper()
	steps, killJSON := 4, ""
	if kill {
		steps = 8
		killJSON = `"staging_kill": {"server": 1, "at_step": 3, "revive_step": 6},`
	}
	w, err := Parse(strings.NewReader(fmt.Sprintf(`{
		"application": "advection-diffusion",
		"domain": [16, 16, 16],
		"adapt": ["application", "middleware"],
		"factors": [2, 4],
		"staging_tcp": true,
		"staging_servers": 3,
		"staging_replicas": 2,
		"staging_concurrency": %d,
		%s
		"steps": %d,
		%q: %q
	}`, conc, killJSON, steps, key, value)))
	if err != nil {
		t.Fatal(err)
	}
	wf, _, err := w.Build()
	if err != nil {
		t.Fatal(err)
	}
	res := wf.Run(w.StepsOrDefault())
	if beforeClose != nil {
		beforeClose(w)
	}
	if err := wf.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	if len(res.Steps) != steps {
		t.Fatalf("ran %d steps, want %d", len(res.Steps), steps)
	}
}

// runSpecLog runs runSpec's spec with the log named by key ("events" or
// "spans") wired to path, and returns the log's bytes.
func runSpecLog(t *testing.T, conc int, kill bool, key, path string) []byte {
	t.Helper()
	runSpec(t, conc, kill, key, path, nil)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(data) == 0 {
		t.Fatalf("empty %s log", key)
	}
	return data
}

// checkGolden compares got against testdata/<name>, rewriting the file first
// under -update.
func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	golden := filepath.Join("testdata", name)
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("golden file missing (run with -update to create): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("log drifted from %s (%d bytes, want %d); rerun with -update if intentional",
			golden, len(got), len(want))
	}
}

// goldenCase is one committed run: its golden-file suffix, its staging
// concurrency, and whether server 1 is killed and rejoins (failover reads,
// repair).
type goldenCase struct {
	suffix string
	conc   int
	kill   bool
}

// goldenCases are the serialized (concurrency 1) runs whose event and span
// logs and metrics exposition are committed: a healthy pool, and one whose
// server 1 is killed and rejoins.
var goldenCases = []goldenCase{
	{"conc1", 1, false},
	{"conc1_kill", 1, true},
}

// TestSpecEventLogDeterministic pins the determinism contract of the
// parallel staging data path at the spec level: with a healthy pool the
// post-DrainEvents event log must be byte-identical across repeated
// invocations at every concurrency level, because pool events are buffered
// and flushed in (key, rank) order at the step barrier and all timestamps
// come from the virtual model clock.
func TestSpecEventLogDeterministic(t *testing.T) {
	for _, conc := range []int{1, 2, 8} {
		conc := conc
		t.Run(fmt.Sprintf("conc%d", conc), func(t *testing.T) {
			dir := t.TempDir()
			first := runSpecLog(t, conc, false, "events", filepath.Join(dir, "a.jsonl"))
			second := runSpecLog(t, conc, false, "events", filepath.Join(dir, "b.jsonl"))
			if !bytes.Equal(first, second) {
				t.Fatalf("event logs differ across runs at staging_concurrency=%d:\nrun1 %d bytes, run2 %d bytes",
					conc, len(first), len(second))
			}
		})
	}
}

// TestSpecEventLogGolden pins the serialized (concurrency 1) event logs
// against committed golden files, so accidental changes to event ordering,
// fields, or the virtual clock show up as a diff. Regenerate with
// `go test ./internal/spec -run TestSpecEventLogGolden -update`.
func TestSpecEventLogGolden(t *testing.T) {
	for _, tc := range goldenCases {
		t.Run(tc.suffix, func(t *testing.T) {
			got := runSpecLog(t, tc.conc, tc.kill, "events", filepath.Join(t.TempDir(), "events.jsonl"))
			checkGolden(t, "events_"+tc.suffix+".golden", got)
		})
	}
}

// TestSpecMetricsGolden pins the Prometheus exposition of the golden runs —
// every series, HELP line and label, as scraped from /metrics after Run and
// before Close — and of the healthy run on two workers (conc2), whose
// replicas are read only after a primary failed, so a fault-free run sends
// the servers the same requests whatever the arrival order. The kill run is
// pinned at concurrency 1 only: with workers, which operations find server
// 1's breaker open depends on arrival order. Regenerate with `go test
// ./internal/spec -run TestSpecMetricsGolden -update`.
func TestSpecMetricsGolden(t *testing.T) {
	cases := append([]goldenCase{{"conc2", 2, false}}, goldenCases...)
	for _, tc := range cases {
		t.Run(tc.suffix, func(t *testing.T) {
			var got []byte
			runSpec(t, tc.conc, tc.kill, "metrics_addr", "127.0.0.1:0", func(w *Workflow) {
				resp, err := http.Get("http://" + w.BoundMetricsAddr() + "/metrics")
				if err != nil {
					t.Fatal(err)
				}
				defer resp.Body.Close()
				if got, err = io.ReadAll(resp.Body); err != nil {
					t.Fatal(err)
				}
			})
			checkGolden(t, "metrics_"+tc.suffix+".golden", got)
		})
	}
}
