package crosslayer_test

import (
	"bytes"
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"crosslayer"
	"crosslayer/internal/loadgen"
)

// buildBin compiles a main package into a fresh temp dir and returns the
// binary's path.
func buildBin(t *testing.T, pkg string) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), filepath.Base(pkg))
	build := exec.Command("go", "build", "-o", bin, pkg)
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("go build %s: %v\n%s", pkg, err, out)
	}
	return bin
}

// buildAndRun compiles a main package and executes it with args, returning
// its combined output. Any build or runtime failure fails the test.
func buildAndRun(t *testing.T, pkg string, args ...string) string {
	t.Helper()
	bin := buildBin(t, pkg)
	cmd := exec.Command(bin, args...)
	cmd.Dir = filepath.Dir(bin) // examples write artifacts to their cwd; keep them out of the repo
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("%s %v: %v\n%s", pkg, args, err, out)
	}
	return string(out)
}

// TestExamplesSmoke builds and runs every example main: each must exit 0
// and print something. Examples are the de-facto API documentation, so a
// compile break or crash there is a release blocker even when unit tests
// pass.
func TestExamplesSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping example builds in -short mode")
	}
	entries, err := os.ReadDir("examples")
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) == 0 {
		t.Fatal("no examples found")
	}
	for _, e := range entries {
		if !e.IsDir() {
			continue
		}
		e := e
		t.Run(e.Name(), func(t *testing.T) {
			t.Parallel()
			out := buildAndRun(t, "./examples/"+e.Name())
			if len(out) == 0 {
				t.Error("example produced no output")
			}
		})
	}
}

// TestXlayerRunSmoke drives the CLI end to end on a tiny run and checks
// the JSONL trace artifact is present and parseable.
func TestXlayerRunSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping CLI build in -short mode")
	}
	trace := filepath.Join(t.TempDir(), "trace.jsonl")
	out := buildAndRun(t, "./cmd/xlayer",
		"run", "-steps", "2", "-placement", "insitu", "-jsonl", trace)
	if len(out) == 0 {
		t.Error("run mode produced no output")
	}
	f, err := os.Open(trace)
	if err != nil {
		t.Fatalf("trace artifact missing: %v", err)
	}
	defer f.Close()
	steps, err := crosslayer.ReadTraceJSONL(f)
	if err != nil {
		t.Fatalf("trace artifact unreadable: %v", err)
	}
	if len(steps) != 2 {
		t.Errorf("trace has %d steps, want 2", len(steps))
	}
}

// TestXlayerFaultFlagSmoke drives the CLI's fault-injection path: a
// refuse-all plan must not hang or fail the process; the trace must show
// the degraded placement.
func TestXlayerFaultFlagSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping CLI build in -short mode")
	}
	trace := filepath.Join(t.TempDir(), "trace.jsonl")
	buildAndRun(t, "./cmd/xlayer",
		"run", "-steps", "2", "-placement", "intransit",
		"-fault", "seed=7,refuse=-1", "-jsonl", trace)
	f, err := os.Open(trace)
	if err != nil {
		t.Fatalf("trace artifact missing: %v", err)
	}
	defer f.Close()
	steps, err := crosslayer.ReadTraceJSONL(f)
	if err != nil {
		t.Fatal(err)
	}
	degraded := false
	for _, s := range steps {
		if s.PlacementReason == crosslayer.ReasonStagingFailure {
			degraded = true
			if s.StagingRetries == 0 {
				t.Error("degraded step recorded zero retries in the trace")
			}
		}
	}
	if !degraded {
		t.Error("no degraded step in the fault-injected trace")
	}
}

// TestXlayerRunJournalParity pins that `xlayer run` has one wiring path: the
// same fault-injected flags with and without -journal must print the same
// staging transport line and write identical step traces.
func TestXlayerRunJournalParity(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping CLI build in -short mode")
	}
	dir := t.TempDir()
	run := func(name string, extra ...string) (transport string, trace []byte) {
		t.Helper()
		tracePath := filepath.Join(dir, name+".jsonl")
		out := buildAndRun(t, "./cmd/xlayer", append([]string{
			"run", "-steps", "2", "-placement", "intransit",
			"-fault", "seed=7,refuse=-1", "-jsonl", tracePath}, extra...)...)
		for _, line := range strings.Split(out, "\n") {
			if strings.HasPrefix(line, "staging transport:") {
				transport = line
			}
		}
		if transport == "" {
			t.Fatalf("%s run printed no staging transport line:\n%s", name, out)
		}
		trace, err := os.ReadFile(tracePath)
		if err != nil {
			t.Fatalf("trace artifact missing: %v", err)
		}
		return transport, trace
	}
	plainLine, plainTrace := run("plain")
	journalLine, journalTrace := run("journaled", "-journal", filepath.Join(dir, "run.xlj"))
	if plainLine != journalLine {
		t.Errorf("transport lines differ:\n  plain:     %s\n  journaled: %s", plainLine, journalLine)
	}
	if !bytes.Equal(plainTrace, journalTrace) {
		t.Errorf("step traces differ with and without -journal:\n%s\nvs\n%s", plainTrace, journalTrace)
	}
}

// TestXlayerBenchRetiredLoadgenReportKept pins the CLI edge the retired
// bench subcommand left behind: it is gone (usage, non-zero exit), and
// `loadgen -out` — the one remaining writer of the xlayer-bench/v1 schema —
// still writes a report with the same aggregate metric keys.
func TestXlayerBenchRetiredLoadgenReportKept(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping CLI build in -short mode")
	}
	bin := buildBin(t, "./cmd/xlayer")
	if out, err := exec.Command(bin, "bench").CombinedOutput(); err == nil || !bytes.Contains(out, []byte("usage: xlayer")) {
		t.Errorf("bench subcommand: err = %v, want a non-zero exit with usage; output:\n%s", err, out)
	}
	report := filepath.Join(t.TempDir(), "f.json")
	if out, err := exec.Command(bin, "loadgen", "-short", "-tenants", "2", "-out", report).CombinedOutput(); err != nil {
		t.Fatalf("xlayer loadgen: %v\n%s", err, out)
	}
	raw, err := os.ReadFile(report)
	if err != nil {
		t.Fatal(err)
	}
	var rep loadgen.Report // its JSON keys are pinned by loadgen's TestReportWriteBytes
	if err := json.Unmarshal(raw, &rep); err != nil {
		t.Fatal(err)
	}
	if rep.Schema != "xlayer-bench/v1" {
		t.Errorf("schema = %q, want xlayer-bench/v1", rep.Schema)
	}
	want := []string{
		"admission_admitted_total", "admission_queued_total", "admission_shed_total",
		"audit_missing_total", "bytes_moved", "checksum_mismatch_total",
		"client_quota_rejected", "manifest_leak_total", "quota_rejected_total",
		"restarts_total", "steps_per_sec", "tenants",
	}
	for _, e := range rep.Entries {
		if e.Name != "loadgen/aggregate" {
			continue
		}
		var got []string
		for k := range e.Metrics {
			got = append(got, k)
		}
		sort.Strings(got)
		if strings.Join(got, ",") != strings.Join(want, ",") {
			t.Errorf("loadgen/aggregate metric keys = %v, want %v", got, want)
		}
		if e.N <= 0 || e.NsPerOp <= 0 {
			t.Errorf("loadgen/aggregate n = %d, ns_per_op = %v", e.N, e.NsPerOp)
		}
		return
	}
	t.Errorf("no loadgen/aggregate entry in %s", raw)
}
