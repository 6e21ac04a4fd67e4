package core

import (
	"fmt"

	"crosslayer/internal/journal"
	"crosslayer/internal/obs/span"
	"crosslayer/internal/policy"
	"crosslayer/internal/solver"
	"crosslayer/internal/staging"
)

// CheckpointSink persists one checkpoint per step barrier; *journal.Writer
// implements it. The workflow treats a sink error as sticky (JournalErr) and
// stops checkpointing, but keeps running: losing crash-resumability must not
// kill a run that is otherwise healthy.
type CheckpointSink interface {
	WriteCheckpoint(journal.Checkpoint) (int, error)
}

// lastPlacementByte encodes the placement_change edge-detector state (0
// unknown, 1 in-situ, 2 in-transit).
func lastPlacementByte(p policy.Placement, known bool) uint8 {
	switch {
	case !known:
		return 0
	case p == policy.PlaceInTransit:
		return 2
	default:
		return 1
	}
}

// writeCheckpoint journals the engine's full resumable state at the step
// barrier Step just reached. The checkpoint_write event is emitted first —
// it is part of the deterministic stream, carried by interrupted and
// uninterrupted runs alike — so the captured sequence cursors and the
// barrier-flushed log offsets both cover it. Journal failures are sticky:
// the run keeps going, but stops paying for checkpoints it cannot land.
func (w *Workflow) writeCheckpoint(rec StepRecord) {
	if w.journal == nil || w.journalErr != nil {
		return
	}
	var manifestBytes []byte
	entries := 0
	if w.pooled != nil {
		man := w.pooled.Manifest()
		entries = len(man.Entries)
		var err error
		if manifestBytes, err = staging.EncodeManifest(man); err != nil {
			w.journalErr = fmt.Errorf("core: checkpoint manifest: %w", err)
			return
		}
	}
	w.events.CheckpointWrite(rec.Step, entries)

	simEWMA, dataEWMA, haveEWMA := w.mon.EWMA()
	cp := journal.Checkpoint{
		Step:       rec.Step,
		EventSeq:   w.events.Seq(),
		SpanSeq:    w.tracer.Seq(),
		RunSpanSeq: w.runSpanSeq,

		SimBusyUntil:  w.simTL.FreeAt(),
		SimBusyTotal:  w.simTL.BusyTotal(),
		PoolBusyUntil: w.pool.FreeAt(),
		PoolBusyTotal: w.pool.BusyTotal(),

		PoolCores:            w.pool.Cores(),
		PoolCoreSecondsBusy:  w.pool.CoreSecondsBusy(),
		PoolCoreSecondsTotal: w.pool.CoreSecondsTotal(),

		StagingMemUsed:   w.stagingMemUsed,
		StagingDownUntil: w.engine.stagingDownUntil,
		LastPlacement:    lastPlacementByte(w.lastPlacement, w.placementKnown),

		MonitorHaveEWMA: haveEWMA,
		MonitorSimEWMA:  simEWMA,
		MonitorDataEWMA: dataEWMA,

		SimSecondsTotal: w.result.SimSecondsTotal,
		BytesMovedTotal: w.result.BytesMovedTotal,
		InSituSteps:     w.result.InSituSteps,
		InTransitSteps:  w.result.InTransitSteps,

		EventsOffset: -1,
		SpansOffset:  -1,
		Record:       rec,
		Manifest:     manifestBytes,
	}
	n, err := w.journal.WriteCheckpoint(cp)
	if err != nil {
		w.journalErr = err
		return
	}
	if w.met != nil {
		w.met.journalCheckpoints.Inc()
		w.met.journalBytes.Add(float64(n))
		w.met.journalLastStep.Set(float64(rec.Step))
	}
}

// JournalErr returns the sticky checkpoint-write error, if any — nil while
// every barrier since the start (or resume) landed its checkpoint.
func (w *Workflow) JournalErr() error { return w.journalErr }

// NextStep returns the index of the next step the workflow will execute: 0
// for a fresh workflow, k+1 for one resumed from a step-k checkpoint.
func (w *Workflow) NextStep() int { return w.step }

// ResumeAuditMissing returns how many manifest blocks the post-resume
// durability audit could not find on any replica (0 for fresh runs, for
// stores without a manifest, and for clean resumes). A non-zero count means
// the crash window lost data; the run still proceeds — the caller decides
// whether that is a violation (the chaos harness does when no data loss was
// legitimately induced).
func (w *Workflow) ResumeAuditMissing() int { return w.resumeAuditMissing }

// ResumeWorkflow rebuilds a workflow from a recovered journal and the same
// configuration and (fresh) simulation the original run was built with. The
// simulation is fast-forwarded by silently re-running the solver through
// the checkpointed step — sim state is a pure function of the step count —
// while everything the solver cannot recompute (adaptation state, virtual
// clocks, monitor estimates, run accumulators, observability cursors, the
// staging pool's content manifest) is restored from the last checkpoint.
// The next Step() executes step k+1.
func ResumeWorkflow(cfg Config, sim solver.Simulation, rec *journal.Recovered) (*Workflow, error) {
	if rec == nil || rec.Last() == nil {
		return nil, journal.ErrJournalTornBeyondBarrier
	}
	return buildWorkflow(cfg, sim, rec)
}

// resume applies a recovered journal to a freshly constructed workflow —
// the tail half of buildWorkflow's resume path. The workflow has its
// defaulted config, engine, monitor, timelines, and store wired, but has
// not emitted anything and has not opened the run span.
func (w *Workflow) resume(rec *journal.Recovered) error {
	cp := rec.Last()

	// Fast-forward the pure solver through steps 0..k. No costs are booked
	// and nothing is emitted: the journal already carries everything those
	// steps produced.
	for i := 0; i <= cp.Step; i++ {
		w.sim.Step()
	}

	// Virtual clocks and resource model.
	w.simTL.Restore(cp.SimBusyUntil, cp.SimBusyTotal)
	w.pool.Timeline.Restore(cp.PoolBusyUntil, cp.PoolBusyTotal)
	w.pool.Restore(cp.PoolCores, cp.PoolCoreSecondsBusy, cp.PoolCoreSecondsTotal)

	// Middleware/adaptation state.
	w.stagingMemUsed = cp.StagingMemUsed
	w.engine.stagingDownUntil = cp.StagingDownUntil
	switch cp.LastPlacement {
	case 1:
		w.lastPlacement, w.placementKnown = policy.PlaceInSitu, true
	case 2:
		w.lastPlacement, w.placementKnown = policy.PlaceInTransit, true
	}

	// Monitor: the last sample died with the old process; the smoothed
	// estimates survive.
	w.mon.Restore(cp.MonitorSimEWMA, cp.MonitorDataEWMA, cp.MonitorHaveEWMA)

	// Run accumulators and the full per-step trace, rebuilt from every
	// checkpoint's embedded record.
	w.result.Steps = make([]StepRecord, 0, len(rec.Checkpoints))
	for i := range rec.Checkpoints {
		w.result.Steps = append(w.result.Steps, rec.Checkpoints[i].Record)
	}
	w.result.SimSecondsTotal = cp.SimSecondsTotal
	w.result.BytesMovedTotal = cp.BytesMovedTotal
	w.result.InSituSteps = cp.InSituSteps
	w.result.InTransitSteps = cp.InTransitSteps
	w.step = cp.Step + 1

	// Observability: continue the sequence numbering and re-adopt the
	// still-open run root span under its original identity, instead of
	// emitting a second run_started banner or opening a second root.
	w.events.ResumeSeq(cp.EventSeq)
	w.events.ResumeStep(cp.Step)
	if w.tracer != nil {
		w.tracer.ResumeSeq(cp.SpanSeq)
		w.runSpanSeq = cp.RunSpanSeq
		w.runCtx = w.tracer.Adopt("run", span.LayerRun, span.StepUnset, cp.RunSpanSeq, 0)
		w.setSpanScope(w.runCtx)
	}

	// Re-arm the staging store's content manifest and audit the survivors:
	// the resumed pool must keep covering pre-crash data in rejoin repair
	// and durability checks.
	if len(cp.Manifest) > 0 {
		if w.pooled == nil {
			return fmt.Errorf("core: journal carries a staging manifest but the store tracks none")
		}
		man, err := staging.DecodeManifest(cp.Manifest)
		if err != nil {
			return fmt.Errorf("core: checkpoint manifest: %w", err)
		}
		w.pooled.RestoreManifest(man)
		w.resumeAuditMissing = w.pooled.Audit(man)
	}
	if w.met != nil {
		w.met.journalResumes.Inc()
		w.met.journalLastStep.Set(float64(cp.Step))
	}
	return nil
}
