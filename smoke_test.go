package crosslayer_test

import (
	"bytes"
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
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

// TestXlayerCommandTable pins the CLI's shape: every command declares its
// own flags and nothing else, so `xlayer <cmd> -h` lists exactly the flags
// below, a flag from another command is a parse error (exit 2) instead of
// being silently dropped, and the top-level usage names every command.
func TestXlayerCommandTable(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping CLI build in -short mode")
	}
	bin := buildBin(t, "./cmd/xlayer")
	xlayer := func(args ...string) (string, int) {
		t.Helper()
		out, err := exec.Command(bin, args...).CombinedOutput()
		if exit, ok := err.(*exec.ExitError); ok {
			return string(out), exit.ExitCode()
		} else if err != nil {
			t.Fatalf("xlayer %v: %v", args, err)
		}
		return string(out), 0
	}

	const experiment = "steps"
	flags := map[string]string{
		"fig1": experiment, "fig5": experiment, "fig6": experiment, "fig7": experiment, "fig8": experiment,
		"fig9": experiment, "fig10": experiment, "fig11": experiment, "table2": experiment, "all": experiment,
		"run": "app cores csv events fault halt-after journal jsonl metrics-addr objective placement plotfile " +
			"resume spans staging staging-concurrency staging-data-dir staging-kill staging-replicas " +
			"staging-servers staging-tcp steps",
		"runspec": "halt-after",
		"report":  "csv events jsonl spans",
		"spans":   "blame chrome critical-path",
		"chaos":   "json out replay seeds start-seed steps",
		"loadgen": "backlog log-dir max-conns out quota-blocks quota-bytes replicas seed servers short steps tenants",
		"serve":   "addr backlog data-dir domain-edge max-conns quota-blocks quota-bytes quota-tenants servers",
	}
	declared := regexp.MustCompile(`(?m)^  -(\S+)`)
	for cmd, want := range flags {
		out, code := xlayer(cmd, "-h")
		var got []string
		for _, m := range declared.FindAllStringSubmatch(out, -1) {
			got = append(got, m[1])
		}
		if code != 0 || strings.Join(got, " ") != want {
			t.Errorf("%s -h: exit %d, flags %q, want exit 0 and %q", cmd, code, got, want)
		}
	}

	listing := regexp.MustCompile(`(?m)^  ((?:\w+, )*\w+) `)
	for _, args := range [][]string{nil, {"bench"}} {
		out, code := xlayer(args...)
		if code != 2 || !strings.Contains(out, "usage: xlayer") {
			t.Errorf("xlayer %v: exit %d, want 2 with a usage:\n%s", args, code, out)
		}
		// The usage lists one command per line, aliases comma-separated, and
		// nothing the table above does not know.
		listed := 0
		for _, m := range listing.FindAllStringSubmatch(out, -1) {
			for _, name := range strings.Split(m[1], ", ") {
				if _, ok := flags[name]; !ok {
					t.Errorf("xlayer %v: usage lists %q, which this test does not cover", args, name)
				}
				listed++
			}
		}
		if listed != len(flags) {
			t.Errorf("xlayer %v: usage lists %d commands, want %d:\n%s", args, listed, len(flags), out)
		}
	}

	for _, args := range [][]string{
		{"run", "-steps", "2", "-servers", "3"}, // meant -staging-servers
		{"loadgen", "-short", "-tenants", "2", "-app", "gas"},
		{"fig9", "-steps", "2", "-staging-kill", "x"},
		{"runspec", "-steps", "5", "docs/example_spec.json"},
		{"fig5", "-steps", "2", "-tenants", "9"},
	} {
		if out, code := xlayer(args...); code != 2 || !strings.Contains(out, "flag provided but not defined") {
			t.Errorf("xlayer %v: exit %d, want 2 with an undefined-flag error:\n%s", args, code, out)
		}
	}

	// One flag name, two commands, two defaults: each -h shows its own.
	servers := regexp.MustCompile(`(?m)^  -servers int\n.*$`)
	for cmd, def := range map[string]string{"serve": "(default 1)", "loadgen": "(default 3)"} {
		out, _ := xlayer(cmd, "-h")
		if m := servers.FindString(out); !strings.Contains(m, def) {
			t.Errorf("%s -h: -servers help %q, want %s", cmd, m, def)
		}
	}

	// A request that can never fire is an error, not a run that ignores it.
	journal := filepath.Join(t.TempDir(), "run.xlj")
	for _, probe := range []struct {
		args []string
		want string
	}{
		{[]string{"run", "-steps", "3", "-staging-servers", "3", "-staging-kill", "server=1,at=7"}, "staging_kill at_step outside the run"},
		{[]string{"run", "-steps", "3", "-journal", journal, "-halt-after", "3"}, "would never fire"},
	} {
		if out, code := xlayer(probe.args...); code != 1 || !strings.Contains(out, probe.want) {
			t.Errorf("xlayer %v: exit %d, want 1 naming %q:\n%s", probe.args, code, probe.want, out)
		}
	}
}
