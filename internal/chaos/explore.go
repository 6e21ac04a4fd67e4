package chaos

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"

	"crosslayer/internal/core"
)

// Verify runs a schedule through the engine and, where the determinism
// contract holds (Schedule.DeterministicByContract), replays it and
// compares the two event logs byte for byte — the replay-determinism
// invariant. For a crash schedule on the deterministic pool path
// (Schedule.ResumeComparable) it additionally runs an uninterrupted twin
// (the same schedule without the crash) and demands the crashed-and-resumed
// run's combined event log, span log, and step trace match it exactly —
// the resume-determinism invariant. The returned result is the first run's,
// with any divergence and any second-run-only violations folded in.
func Verify(s Schedule) (*RunResult, error) {
	first, err := Run(s)
	if err != nil {
		return nil, err
	}
	if s.ResumeComparable() {
		twin := s
		twin.Crash = nil
		golden, err := Run(twin)
		if err != nil {
			return nil, err
		}
		golden.DiscardData()
		first.diverged(InvResumeDeterminism, "resumed event log diverges from the uninterrupted run", first.EventLog, golden.EventLog)
		first.diverged(InvResumeDeterminism, "resumed span log diverges from the uninterrupted run", first.SpanLog, golden.SpanLog)
		if d := firstStepDivergence(first.Steps, golden.Steps); d >= 0 {
			first.Violations = append(first.Violations, Violation{
				Invariant: InvResumeDeterminism,
				Step:      d,
				Detail: fmt.Sprintf("resumed step trace diverges from the uninterrupted run at step %d (%d vs %d steps)",
					d, len(first.Steps), len(golden.Steps)),
			})
		}
	}
	if !s.DeterministicByContract() {
		return first, nil
	}
	second, err := Run(s)
	if err != nil {
		return nil, err
	}
	second.DiscardData()
	first.diverged(InvReplayDeterminism, "event logs diverge", first.EventLog, second.EventLog)
	first.diverged(InvReplayDeterminism, "span logs diverge", first.SpanLog, second.SpanLog)
	for _, v := range second.Violations {
		if !slices.Contains(first.Violations, v) {
			first.Violations = append(first.Violations, v)
		}
	}
	return first, nil
}

// diverged records a violation of invariant when two runs' logs a and b are
// not byte-identical, naming the first line that differs.
func (rr *RunResult) diverged(invariant, what string, a, b []byte) {
	if bytes.Equal(a, b) {
		return
	}
	line, la, lb := firstDivergence(a, b)
	rr.Violations = append(rr.Violations, Violation{
		Invariant: invariant,
		Step:      -1,
		Detail:    fmt.Sprintf("%s at line %d: %q vs %q", what, line, la, lb),
	})
}

// Replay loads a repro schedule from path and verifies it — the one-call
// way to re-run a shrunk repro file.
func Replay(path string) (*RunResult, error) {
	s, err := LoadFile(path)
	if err != nil {
		return nil, err
	}
	return Verify(s)
}

// firstStepDivergence returns the first index where two step traces differ
// (including a length mismatch at the shorter trace's end), or -1 when
// identical.
func firstStepDivergence(a, b []core.StepRecord) int {
	n := min(len(a), len(b))
	for i := 0; i < n; i++ {
		if a[i] != b[i] {
			return i
		}
	}
	if len(a) != len(b) {
		return n
	}
	return -1
}

// firstDivergence locates the first line where two event logs differ.
func firstDivergence(a, b []byte) (line int, la, lb string) {
	as := bytes.Split(a, []byte("\n"))
	bs := bytes.Split(b, []byte("\n"))
	n := min(len(as), len(bs))
	for i := 0; i < n; i++ {
		if !bytes.Equal(as[i], bs[i]) {
			return i + 1, clip(as[i]), clip(bs[i])
		}
	}
	return n + 1, clipAt(as, n), clipAt(bs, n)
}

func clipAt(lines [][]byte, i int) string {
	if i < len(lines) {
		return clip(lines[i])
	}
	return "<end of log>"
}

func clip(b []byte) string {
	const max = 160
	if len(b) > max {
		return string(b[:max]) + "…"
	}
	return string(b)
}

// Options tunes an exploration sweep. It is also `xlayer chaos`'s flag
// surface: -seeds, -start-seed, -steps (MaxSteps) and -out (OutDir) bind
// straight into it.
type Options struct {
	// Seeds is how many schedules to generate and verify, derived from
	// StartSeed, StartSeed+1, … (default 25).
	Seeds int

	// StartSeed is the first seed (default 0).
	StartSeed int64

	// MaxSteps caps every schedule's step count (0 = the generator's
	// choice). Faults scheduled beyond the cap are dropped.
	MaxSteps int

	// OutDir, when non-empty, receives one shrunk repro_*.json per
	// violating seed.
	OutDir string

	// Log receives one progress line per schedule (nil = silent).
	Log io.Writer
}

// Failure is one violating seed: the generated schedule, what it violated,
// and the shrunk repro.
type Failure struct {
	Schedule         Schedule    `json:"schedule"`
	Violations       []Violation `json:"violations"`
	Shrunk           Schedule    `json:"shrunk"`
	ShrunkViolations []Violation `json:"shrunk_violations"`
	ReproPath        string      `json:"repro_path,omitempty"`

	// DataPath is the preserved data-dir root of the shrunk repro — the
	// offending WALs and snapshots — set only when the shrunk schedule
	// still restarts servers and OutDir captured the artifact.
	DataPath string `json:"data_path,omitempty"`
}

// Report summarizes an exploration sweep.
type Report struct {
	Schedules         int       `json:"schedules"`
	ReplayChecked     int       `json:"replay_checked"`
	DurabilityChecked int       `json:"durability_checked"`
	CrashResumes      int       `json:"crash_resumes"`
	ResumeChecked     int       `json:"resume_checked"`
	Restarts          int       `json:"restarts"`
	RecoveredRestarts int       `json:"recovered_restarts"`
	DegradedSteps     int       `json:"degraded_steps"`
	Failures          []Failure `json:"failures,omitempty"`
}

// shrinkBudget bounds the verification runs Explore's shrinker spends per
// violating schedule.
const shrinkBudget = 48

// Explore generates opts.Seeds seeded schedules, verifies every invariant
// on each, and shrinks every violating schedule to a minimal repro
// (written to opts.OutDir when set). A run error — the harness itself
// failing to stand up, not an invariant violation — aborts the sweep.
func Explore(opts Options) (*Report, error) {
	if opts.Seeds <= 0 {
		opts.Seeds = 25
	}
	logf := func(format string, args ...any) {
		if opts.Log != nil {
			fmt.Fprintf(opts.Log, format+"\n", args...)
		}
	}
	rep := &Report{}
	for i := 0; i < opts.Seeds; i++ {
		seed := opts.StartSeed + int64(i)
		s := Generate(seed)
		if opts.MaxSteps > 0 && s.Steps > opts.MaxSteps {
			s = truncateSteps(s, opts.MaxSteps)
		}
		rr, err := Verify(s)
		if err != nil {
			return nil, fmt.Errorf("chaos: seed %d: %w", seed, err)
		}
		rep.Schedules++
		if s.DeterministicByContract() {
			rep.ReplayChecked++
		}
		if s.Crash != nil {
			rep.CrashResumes++
		}
		if s.ResumeComparable() {
			rep.ResumeChecked++
		}
		if len(s.Restarts) > 0 {
			rep.Restarts++
			for _, r := range s.Restarts {
				if r.Recover {
					rep.RecoveredRestarts++
					break
				}
			}
		}
		if rr.DurabilityChecked {
			rep.DurabilityChecked++
		}
		rep.DegradedSteps += rr.DegradedSteps
		if len(rr.Violations) == 0 {
			logf("seed %-4d ok     steps=%d servers=%d replicas=%d conc=%d faults=%d degraded=%d",
				seed, s.Steps, s.Servers, s.Replicas, s.Concurrency, s.FaultCount(), rr.DegradedSteps)
			continue
		}
		logf("seed %-4d VIOLATION %s — shrinking", seed, rr.Violations[0])
		shrunk, sv, err := Shrink(s, rr.Violations, shrinkBudget)
		if err != nil {
			return nil, fmt.Errorf("chaos: seed %d shrink: %w", seed, err)
		}
		rr.DiscardData() // the shrunk repro regenerates the disk artifact below
		f := Failure{Schedule: s, Violations: rr.Violations, Shrunk: shrunk, ShrunkViolations: sv}
		if opts.OutDir != "" {
			if err := os.MkdirAll(opts.OutDir, 0o755); err != nil {
				return nil, fmt.Errorf("chaos: %w", err)
			}
			name := fmt.Sprintf("repro_%s_seed%d.json", sv[0].Invariant, seed)
			f.ReproPath = filepath.Join(opts.OutDir, name)
			if err := SaveFile(f.ReproPath, shrunk); err != nil {
				return nil, err
			}
			logf("seed %-4d shrunk to %d faults / %d steps → %s", seed, shrunk.FaultCount(), shrunk.Steps, f.ReproPath)
			// The offending disk state rides along with the repro JSON: one
			// extra deterministic run of the shrunk schedule regenerates the
			// data dirs it violated over, moved (or, across filesystems,
			// left in place) next to the repro file.
			if len(shrunk.Restarts) > 0 {
				if rrd, derr := Run(shrunk); derr == nil && rrd.DataDir != "" {
					dst := filepath.Join(opts.OutDir, fmt.Sprintf("repro_%s_seed%d_data", sv[0].Invariant, seed))
					os.RemoveAll(dst)
					if err := os.Rename(rrd.DataDir, dst); err == nil {
						f.DataPath = dst
					} else {
						f.DataPath = rrd.DataDir
					}
					logf("seed %-4d offending data dirs → %s", seed, f.DataPath)
				}
			}
		} else {
			logf("seed %-4d shrunk to %d faults / %d steps", seed, shrunk.FaultCount(), shrunk.Steps)
		}
		rep.Failures = append(rep.Failures, f)
	}
	return rep, nil
}

// truncateSteps caps a schedule's length, dropping faults beyond the cap.
func truncateSteps(s Schedule, steps int) Schedule {
	out := s.keepFaults(func(f steppedFault) bool { return f.fits(steps) })
	out.Steps = steps
	return out
}
