package crosslayer_test

import (
	"bytes"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"crosslayer"
)

// buildAndRun compiles a main package and executes it with args, returning
// its combined output. Any build or runtime failure fails the test.
func buildAndRun(t *testing.T, pkg string, args ...string) string {
	t.Helper()
	dir := t.TempDir()
	bin := filepath.Join(dir, filepath.Base(pkg))
	build := exec.Command("go", "build", "-o", bin, pkg)
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("go build %s: %v\n%s", pkg, err, out)
	}
	cmd := exec.Command(bin, args...)
	cmd.Dir = dir // examples write artifacts to their cwd; keep them out of the repo
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
