package spec

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"crosslayer/internal/obs/span"
)

// TestSpecSpanLogDeterministic pins the span-ID and span-ordering
// determinism contract: with a healthy pool the span log must be
// byte-identical across repeated invocations at every concurrency level —
// pool-op spans are buffered and flushed in deterministic (kind, routing
// key, version) order at the step barrier, all stamps come from the
// virtual model clock, and span IDs derive from (seed, step, op-seq).
func TestSpecSpanLogDeterministic(t *testing.T) {
	for _, conc := range []int{1, 8} {
		conc := conc
		t.Run(fmt.Sprintf("conc%d", conc), func(t *testing.T) {
			dir := t.TempDir()
			first := runSpecLog(t, conc, false, "spans", filepath.Join(dir, "a.jsonl"))
			second := runSpecLog(t, conc, false, "spans", filepath.Join(dir, "b.jsonl"))
			if !bytes.Equal(first, second) {
				t.Fatalf("span logs differ across runs at staging_concurrency=%d:\nrun1 %d bytes, run2 %d bytes",
					conc, len(first), len(second))
			}
		})
	}
}

// TestSpecSpanLogGolden pins the serialized (concurrency 1) span logs
// against committed golden files — the same contract and the same cases as
// the event-stream goldens — so accidental changes to span ordering, ID
// derivation, fields, or the virtual clock show up as a diff. Regenerate with
// `go test ./internal/spec -run TestSpecSpanLogGolden -update`.
func TestSpecSpanLogGolden(t *testing.T) {
	for _, tc := range goldenCases {
		t.Run(tc.suffix, func(t *testing.T) {
			got := runSpecLog(t, tc.conc, tc.kill, "spans", filepath.Join(t.TempDir(), "spans.jsonl"))
			checkGolden(t, "spans_"+tc.suffix+".golden", got)
		})
	}
}

// TestSpecSpanTreeWellFormed reconstructs the span tree from a seeded run
// and checks the structural contract end to end: every span well-parented,
// exactly one root (the run span), every pool op inside a phase, and ≥ 90%
// of each step's wall time attributed to named layers by the blame sweep.
func TestSpecSpanTreeWellFormed(t *testing.T) {
	for _, conc := range []int{1, 8} {
		conc := conc
		t.Run(fmt.Sprintf("conc%d", conc), func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "spans.jsonl")
			runSpecLog(t, conc, false, "spans", path)
			f, err := os.Open(path)
			if err != nil {
				t.Fatal(err)
			}
			defer f.Close()
			spans, err := span.ReadSpans(f)
			if err != nil {
				t.Fatal(err)
			}
			tree, err := span.BuildTree(spans)
			if err != nil {
				t.Fatalf("span tree ill-formed: %v", err)
			}
			roots := tree.Roots()
			if len(roots) != 1 || roots[0].Name != "run" {
				t.Fatalf("want single run root, got %d roots", len(roots))
			}
			steps := tree.Analyze()
			if len(steps) != 4 {
				t.Fatalf("blame found %d steps, want 4", len(steps))
			}
			for _, s := range steps {
				if s.Seconds > 0 && s.Coverage < 0.9 {
					t.Errorf("step %d: only %.0f%% of wall time attributed to layers",
						s.Step, 100*s.Coverage)
				}
			}
		})
	}
}
