package spec

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"crosslayer/internal/journal"
)

// resumeSpec renders one journaled-run spec with per-test artifact paths.
// Concurrency 1 keeps the Deterministic contract, which is what the
// byte-identity assertions below rely on.
func resumeSpec(dir string, steps int, resume bool, tenant string) string {
	return fmt.Sprintf(`{
		"application": "advection-diffusion",
		"domain": [16, 16, 16],
		"adapt": ["application", "middleware", "resource"],
		"factors": [2, 4],
		"staging_tcp": true,
		"staging_servers": 3,
		"staging_replicas": 2,
		"tenant": %q,
		"steps": %d,
		"events": %q,
		"spans": %q,
		"journal": %q,
		"resume": %t
	}`, tenant, steps,
		filepath.Join(dir, "events.jsonl"),
		filepath.Join(dir, "spans.jsonl"),
		filepath.Join(dir, "run.journal"),
		resume)
}

// runSteps builds the spec and drives exactly n steps. close controls
// whether the workflow shuts down cleanly (the uninterrupted path) or is
// abandoned with its sinks unflushed (the killed-driver path — buffered
// JSONL tails and the open run span simply vanish, like a SIGKILL).
func runSteps(t *testing.T, specJSON string, n int, clean bool) {
	t.Helper()
	w, err := Parse(strings.NewReader(specJSON))
	if err != nil {
		t.Fatal(err)
	}
	wf, _, err := w.Build()
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		wf.Step()
	}
	if err := wf.JournalErr(); err != nil {
		t.Fatalf("journal error: %v", err)
	}
	if clean {
		wf.Run(0) // emit run_finished, end the run span
		if err := wf.Close(); err != nil {
			t.Fatalf("close: %v", err)
		}
	}
	// An abandoned workflow leaks its listeners into the test process; that
	// is the point — a killed driver closes nothing.
}

// runResume resumes the journaled run and drives it to completion.
func runResume(t *testing.T, specJSON string, totalSteps int) {
	t.Helper()
	w, err := Parse(strings.NewReader(specJSON))
	if err != nil {
		t.Fatal(err)
	}
	wf, _, err := w.Build()
	if err != nil {
		t.Fatal(err)
	}
	if w.ResumedStep() == 0 {
		t.Fatal("ResumedStep() = 0 after resume")
	}
	if wf.NextStep() != w.ResumedStep() {
		t.Fatalf("NextStep() = %d, ResumedStep() = %d", wf.NextStep(), w.ResumedStep())
	}
	res := wf.Run(totalSteps - wf.NextStep())
	if err := wf.JournalErr(); err != nil {
		t.Fatalf("journal error: %v", err)
	}
	if err := wf.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	if len(res.Steps) != totalSteps {
		t.Fatalf("resumed result has %d steps, want %d", len(res.Steps), totalSteps)
	}
	if missing := wf.ResumeAuditMissing(); missing != 0 {
		t.Fatalf("resume audit missing %d blocks", missing)
	}
}

// TestSpecResumeByteIdentical is the tentpole acceptance check at the spec
// level: a seeded concurrency-1 run killed after any step barrier and
// resumed must produce event and span logs byte-identical to the same run
// left uninterrupted — untenanted, and in tenant "t0"'s namespace, where the
// resume re-arms a tenant handle's manifest.
func TestSpecResumeByteIdentical(t *testing.T) {
	checkResumeByteIdentical(t, "")
	t.Run("tenant=t0", func(t *testing.T) { checkResumeByteIdentical(t, "t0") })
}

func checkResumeByteIdentical(t *testing.T, tenant string) {
	const steps = 5

	goldenDir := t.TempDir()
	runSteps(t, resumeSpec(goldenDir, steps, false, tenant), steps, true)
	goldenEvents, err := os.ReadFile(filepath.Join(goldenDir, "events.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	goldenSpans, err := os.ReadFile(filepath.Join(goldenDir, "spans.jsonl"))
	if err != nil {
		t.Fatal(err)
	}

	// kill == steps is the driver dying after the final step's barrier but
	// before run_finished: the resume has zero steps left and must still
	// close the log identically.
	for kill := 1; kill <= steps; kill++ {
		kill := kill
		t.Run(fmt.Sprintf("killAfterStep%d", kill-1), func(t *testing.T) {
			dir := t.TempDir()
			runSteps(t, resumeSpec(dir, steps, false, tenant), kill, false)
			runResume(t, resumeSpec(dir, steps, true, tenant), steps)

			events, err := os.ReadFile(filepath.Join(dir, "events.jsonl"))
			if err != nil {
				t.Fatal(err)
			}
			spans, err := os.ReadFile(filepath.Join(dir, "spans.jsonl"))
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(events, goldenEvents) {
				t.Errorf("event log differs from uninterrupted run: %d bytes vs %d",
					len(events), len(goldenEvents))
			}
			if !bytes.Equal(spans, goldenSpans) {
				t.Errorf("span log differs from uninterrupted run: %d bytes vs %d",
					len(spans), len(goldenSpans))
			}
		})
	}
}

// TestSpecResumeValidation is the validation table for the resume
// preconditions, in the style of the pool-knob tables: each row is one
// failure class matched with errors.Is.
func TestSpecResumeValidation(t *testing.T) {
	dir := t.TempDir()
	journalPath := filepath.Join(dir, "run.journal")

	cases := []struct {
		name    string
		prepare func(t *testing.T)
		spec    string
		parse   error // expected from Parse (validation); nil = parses
		build   error // expected from Build; nil = must not be reached
	}{
		{
			name:  "resume without journal",
			spec:  `{"application": "advection-diffusion", "domain": [16,16,16], "resume": true}`,
			parse: ErrResumeRequiresJournal,
		},
		{
			name: "resume from empty journal",
			prepare: func(t *testing.T) {
				if err := os.WriteFile(journalPath, nil, 0o644); err != nil {
					t.Fatal(err)
				}
			},
			spec: fmt.Sprintf(`{"application": "advection-diffusion", "domain": [16,16,16],
				"steps": 3, "journal": %q, "resume": true}`, journalPath),
			build: journal.ErrJournalTornBeyondBarrier,
		},
		{
			name: "resume under different spec",
			prepare: func(t *testing.T) {
				// Journal a 3-step run, then try to resume it as 6 steps.
				spec := fmt.Sprintf(`{"application": "advection-diffusion", "domain": [16,16,16],
					"steps": 3, "journal": %q}`, journalPath)
				runSteps(t, spec, 3, true)
			},
			spec: fmt.Sprintf(`{"application": "advection-diffusion", "domain": [16,16,16],
				"steps": 6, "journal": %q, "resume": true}`, journalPath),
			build: journal.ErrJournalSpecMismatch,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if tc.prepare != nil {
				tc.prepare(t)
			}
			w, err := Parse(strings.NewReader(tc.spec))
			if tc.parse != nil {
				if !errors.Is(err, tc.parse) {
					t.Fatalf("Parse err = %v, want %v", err, tc.parse)
				}
				return
			}
			if err != nil {
				t.Fatalf("Parse: %v", err)
			}
			_, _, err = w.Build()
			if tc.build == nil {
				t.Fatalf("Build err = %v, want table to expect one", err)
			}
			if !errors.Is(err, tc.build) {
				t.Fatalf("Build err = %v, want %v", err, tc.build)
			}
		})
	}
}

// TestSpecResumeRefusesShortLog covers a log that lost its unsynced tail:
// the events log of a halted run is cut to one byte short of the offset its
// last checkpoint recorded, and the resume must be refused with the typed
// error, leaving the file as it found it rather than padding it with zero
// bytes.
func TestSpecResumeRefusesShortLog(t *testing.T) {
	dir := t.TempDir()
	spec := func(resume bool) string {
		return fmt.Sprintf(`{"application": "advection-diffusion", "domain": [16,16,16],
			"steps": 4, "events": %q, "journal": %q, "resume": %t}`,
			filepath.Join(dir, "events.jsonl"), filepath.Join(dir, "run.journal"), resume)
	}
	runSteps(t, spec(false), 2, false)
	rec, err := journal.Recover(filepath.Join(dir, "run.journal"))
	if err != nil {
		t.Fatal(err)
	}
	off := rec.Last().EventsOffset
	eventsPath := filepath.Join(dir, "events.jsonl")
	if err := os.Truncate(eventsPath, off-1); err != nil {
		t.Fatal(err)
	}
	before, err := os.ReadFile(eventsPath)
	if err != nil {
		t.Fatal(err)
	}

	w, err := Parse(strings.NewReader(spec(true)))
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := w.Build(); !errors.Is(err, ErrLogShorterThanCheckpoint) {
		t.Fatalf("Build err = %v, want %v", err, ErrLogShorterThanCheckpoint)
	}
	if after, err := os.ReadFile(eventsPath); err != nil || !bytes.Equal(after, before) {
		t.Fatalf("refused resume changed the events log: %d bytes, was %d (%v)", len(after), len(before), err)
	}
}

// TestSpecResumeTornJournalTail pins the torn-tail recovery path end to
// end: a journal cut mid-record resumes from the last complete checkpoint,
// and the truncated bytes are discarded from the file.
func TestSpecResumeTornJournalTail(t *testing.T) {
	const steps = 4
	dir := t.TempDir()
	runSteps(t, resumeSpec(dir, steps, false, ""), 3, false)

	journalPath := filepath.Join(dir, "run.journal")
	data, err := os.ReadFile(journalPath)
	if err != nil {
		t.Fatal(err)
	}
	rec, err := journal.Scan(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	if len(rec.Checkpoints) != 3 {
		t.Fatalf("journal holds %d checkpoints, want 3", len(rec.Checkpoints))
	}
	// Tear the last record: resume must fall back to the step-1 checkpoint.
	if err := os.WriteFile(journalPath, data[:len(data)-5], 0o644); err != nil {
		t.Fatal(err)
	}
	w, err := Parse(strings.NewReader(resumeSpec(dir, steps, true, "")))
	if err != nil {
		t.Fatal(err)
	}
	wf, _, err := w.Build()
	if err != nil {
		t.Fatal(err)
	}
	if wf.NextStep() != 2 {
		t.Fatalf("torn-tail resume continues at step %d, want 2", wf.NextStep())
	}
	res := wf.Run(steps - wf.NextStep())
	if err := wf.Close(); err != nil {
		t.Fatal(err)
	}
	if len(res.Steps) != steps {
		t.Fatalf("resumed result has %d steps, want %d", len(res.Steps), steps)
	}
}
