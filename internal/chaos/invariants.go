package chaos

import (
	"bytes"
	"fmt"
	"slices"
	"strings"

	"crosslayer/internal/core"
	"crosslayer/internal/obs"
	"crosslayer/internal/obs/span"
	"crosslayer/internal/policy"
	"crosslayer/internal/reduce"
)

// Violation is one invariant breach observed while running a schedule.
// Step is the workflow step the breach was detected at, -1 for end-of-run
// checks.
type Violation struct {
	Invariant string `json:"invariant"`
	Step      int    `json:"step"`
	Detail    string `json:"detail"`
}

func (v Violation) String() string {
	return fmt.Sprintf("[%s] step %d: %s", v.Invariant, v.Step, v.Detail)
}

// Invariant names, the registry the violations report under.
const (
	// InvDurability: while at least one replica of every shard survives
	// (and no error-producing network plan can fail the audit's own
	// reads), the pool's manifest audit must find zero missing blocks.
	InvDurability = "durability"

	// InvDegradationSoundness: a step may carry
	// placement_reason=staging_failure only when a cause exists — every
	// replica of some shard was down (gate or breaker), the staging memory
	// was squeezed, or the network plan produces transport errors — and
	// staging_suspect steps must sit inside the cooldown window that a
	// staging_failure opened.
	InvDegradationSoundness = "degradation_soundness"

	// InvPolicyConformance: the per-step records must match the policy
	// oracles — the brute-force minimum-feasible-factor oracle of
	// selectfactor_prop_test.go for the application layer, the healthy-
	// fraction allocation cap for the resource layer, and the
	// placement/bytes-moved consistency rules for the middleware layer.
	InvPolicyConformance = "policy_conformance"

	// InvMetricsConsistency: the event stream and the metrics must agree
	// with the step trace — one staging_degrade event per staging_failure
	// step, and xlayer_steps_total equal to the steps this driver executed.
	// Counters that mirror an event kind are fed by the same call that emits
	// it (obs.Counts), so they cannot drift from the stream and are not
	// compared against it.
	InvMetricsConsistency = "metrics_consistency"

	// InvReplayDeterminism: re-running a schedule yields a byte-identical
	// event log — and span log — wherever the runtime contracts promise
	// determinism (see Schedule.DeterministicByContract). Checked by
	// Verify, which runs the schedule twice.
	InvReplayDeterminism = "replay_determinism"

	// InvResumeDeterminism: a run crash-killed at a step barrier and
	// resumed from its write-ahead journal produces a combined event log,
	// span log, and step trace byte-identical to the same schedule run
	// uninterrupted — enforced on the deterministic pool path when no fault
	// leaves process-local state outside the journal (see
	// Schedule.ResumeComparable). Checked by Verify against a crash-free
	// twin run.
	InvResumeDeterminism = "resume_determinism"

	// InvSpanTree: the causal span log must reconstruct into a single
	// well-parented tree rooted at the run span, and its pool-op spans must
	// agree with the event stream — one pool:repair span per repair event,
	// one failover tag per failover_get event.
	InvSpanTree = "span_tree"
)

// checkSpanTree reconstructs the causal tree from the run's span log (after
// the workflow closed, so every buffered span is flushed) and cross-checks
// it against the run's event log.
func (h *harness) checkSpanTree(log []byte, events obs.EventSummary) {
	spans, err := span.ReadSpans(bytes.NewReader(log))
	if err != nil {
		h.violate(InvSpanTree, -1, "span log unreadable: %v", err)
		return
	}
	tree, err := span.BuildTree(spans)
	if err != nil {
		h.violate(InvSpanTree, -1, "ill-formed span tree: %v", err)
		return
	}
	roots := tree.Roots()
	if len(roots) != 1 || roots[0].Name != "run" {
		h.violate(InvSpanTree, -1, "%d root spans (want the single run span)", len(roots))
	}
	repairs, failovers := 0, 0
	for i := range spans {
		s := &spans[i]
		if s.Name == "pool:repair" {
			repairs++
		}
		failovers += strings.Count(s.Detail, "failover=")
	}
	wantRepairs, wantFailovers := events.ByKind[obs.KindRepair], events.ByKind[obs.KindFailoverGet]
	if repairs != wantRepairs {
		h.violate(InvSpanTree, -1,
			"%d pool:repair spans but %d repair events", repairs, wantRepairs)
	}
	if failovers != wantFailovers {
		h.violate(InvSpanTree, -1,
			"%d failover-tagged get spans but %d failover_get events", failovers, wantFailovers)
	}
}

// durabilityArmed reports whether the audit is currently meaningful: no
// shard has legitimately lost its full replica set, and the network plan
// cannot fail the audit's own direct reads.
func (h *harness) durabilityArmed() bool {
	return h.lossArmed && !h.s.Net.errorProducing()
}

// checkDurability runs the manifest audit when armed, reporting at most one
// violation per run (the final audit re-checks the last step).
func (h *harness) checkDurability(step int) {
	if !h.durabilityArmed() || h.durabilityHit {
		return
	}
	if missing := h.pool.AuditManifest(); missing > 0 {
		h.durabilityHit = true
		h.violate(InvDurability, step,
			"%d blocks missing from every replica while each shard had a surviving copy", missing)
	}
}

// checkDegradationSoundness validates the failure-reason bookkeeping of one
// completed step, before this step's scheduled faults fire (so the breaker
// and gate snapshot is the state the step actually ran under).
func (h *harness) checkDegradationSoundness(step int, rec core.StepRecord) {
	switch rec.PlacementReason {
	case policy.ReasonStagingFailure:
		prev := h.lastFailStep
		h.lastFailStep = step
		if h.degradeJustified() {
			return
		}
		// A failure inside another failure's cooldown window cannot happen
		// (cooldown steps run in-situ and never touch staging), so no
		// second clause is needed; prev is only for the message.
		h.violate(InvDegradationSoundness, step,
			"step degraded to staging_failure with a live replica in every shard, no memory squeeze, and no error-producing network plan (previous failure at step %d)", prev)
	case policy.ReasonStagingSuspect:
		if h.lastFailStep < 0 || step <= h.lastFailStep || step > h.lastFailStep+h.effCooldown {
			h.violate(InvDegradationSoundness, step,
				"staging_suspect outside any cooldown window (last failure step %d, cooldown %d)",
				h.lastFailStep, h.effCooldown)
		}
	}
}

// degradeJustified reports whether the current pool state (or the schedule
// itself) can explain a degraded step: some shard's entire replica set
// unavailable — gate-killed or breaker-open — a memory squeeze that can
// reject puts, or a network plan that can produce transport errors.
func (h *harness) degradeJustified() bool {
	if h.s.SqueezeBytes > 0 || h.s.Net.errorProducing() {
		return true
	}
	downs := h.pool.DownEndpoints()
	n := h.s.Servers
	for shard := 0; shard < n; shard++ {
		allDown := true
		for j := 0; j < h.s.Replicas; j++ {
			ep := (shard + j) % n
			if !downs[ep] && !h.fleet.Down(ep) {
				allDown = false
				break
			}
		}
		if allDown {
			return true
		}
	}
	return false
}

// checkPolicyConformance re-derives the adaptation decisions of one step
// from the same monitored inputs the engine saw and compares.
func (h *harness) checkPolicyConformance(step int, rec core.StepRecord) {
	s := h.s
	sample, _ := h.wf.Monitor().Last()

	// Application layer: the brute-force minimum-feasible-factor oracle.
	rangeMode := slices.Contains(s.Adapt, "application") &&
		h.planHas[policy.MechApplication] && len(s.Factors) > 0
	if rangeMode {
		want := factorOracle(rec.MaxRankDataBytes, rec.MinMemAvail, s.Factors)
		if want < 1 {
			want = 1
		}
		if rec.Factor != want {
			h.violate(InvPolicyConformance, step,
				"factor %d, oracle wants %d for (max_rank_bytes=%d, min_mem_avail=%d, hints=%v)",
				rec.Factor, want, rec.MaxRankDataBytes, rec.MinMemAvail, s.Factors)
		}
	} else if rec.Factor != 1 {
		h.violate(InvPolicyConformance, step,
			"factor %d with the application layer inactive", rec.Factor)
	}

	// Resource layer: the allocation must stay inside [1, cap] where cap
	// shrinks with the healthy-endpoint fraction (Eq. 10's capacity cap).
	if slices.Contains(s.Adapt, "resource") && h.planHas[policy.MechResource] {
		cores := stagingCores
		if f := sample.StagingHealthFrac(); f < 1 {
			cores = int(f * float64(stagingCores))
			if cores < 1 {
				cores = 1
			}
		}
		if rec.StagingCores < 1 || rec.StagingCores > cores {
			h.violate(InvPolicyConformance, step,
				"staging cores %d outside [1, %d] (healthy %d/%d)",
				rec.StagingCores, cores,
				sample.StagingHealthyEndpoints, sample.StagingTotalEndpoints)
		}
	} else if rec.StagingCores != stagingCores {
		h.violate(InvPolicyConformance, step,
			"staging cores %d with the resource layer inactive (want the static %d)",
			rec.StagingCores, stagingCores)
	}

	// Middleware layer: a fully in-situ step moves no bytes; any step with
	// an in-transit share moves some.
	if rec.HybridFrac == 1 && rec.BytesMoved != 0 {
		h.violate(InvPolicyConformance, step,
			"in-situ step moved %d bytes", rec.BytesMoved)
	}
	if rec.HybridFrac < 1 && rec.BytesMoved == 0 {
		h.violate(InvPolicyConformance, step,
			"step with in-transit share %.2f moved no bytes", 1-rec.HybridFrac)
	}
}

// factorOracle is the brute-force oracle of selectfactor_prop_test.go: the
// smallest hinted factor whose reduced size fits the memory budget, or the
// most aggressive hint when none fits.
func factorOracle(sdata, mem int64, factors []int) int {
	best, ok, largest := 0, false, 0
	for _, x := range factors {
		if x > largest {
			largest = x
		}
		if reduce.ReducedBytes(sdata, x) <= mem {
			if !ok || x < best {
				best, ok = x, true
			}
		}
	}
	if ok {
		return best
	}
	return largest
}

// checkEndOfRun holds the run's event log and the driver's step counter to
// the step trace after the workflow closed (every buffered event flushed).
// The log and the trace both cover the whole run; on a crash schedule the
// registry belongs to the resumed driver — a fresh process whose counters
// start at zero — so the step counter covers the post-resume tail only.
func (h *harness) checkEndOfRun(res core.Result, events obs.EventSummary) {
	if ev, degraded := events.ByKind[obs.KindStagingDegrade], countDegraded(res.Steps); ev != degraded {
		h.violate(InvMetricsConsistency, -1,
			"%d staging_degrade events but %d staging_failure steps in the trace", ev, degraded)
	}
	tail := res.Steps[min(h.resumeBase, len(res.Steps)):]
	if c := int(h.reg.Counter("xlayer_steps_total", "").Value()); c != len(tail) {
		h.violate(InvMetricsConsistency, -1,
			"counter xlayer_steps_total=%d but this driver executed %d steps", c, len(tail))
	}
}
