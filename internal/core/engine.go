package core

import (
	"crosslayer/internal/field"
	"crosslayer/internal/monitor"
	"crosslayer/internal/policy"
	"crosslayer/internal/reduce"
)

// Engine is the Adaptation Engine of Fig. 2: it evaluates the adaptation
// policies against the monitored state and decides what each layer's
// mechanism should do. Execution of the decisions stays in Workflow.
type Engine struct {
	cfg  Config
	plan map[policy.Mechanism]bool

	// stagingDownUntil is the first step at which staging is trusted again
	// after a transport failure (see ReportStagingFailure).
	stagingDownUntil int
}

// NewEngine builds an engine for the workflow configuration; the
// objective's root–leaf plan (§4.4) fixes which mechanisms participate.
// The configuration is defaulted on entry, so a bare literal works.
func NewEngine(cfg Config) *Engine {
	e := &Engine{cfg: cfg.withDefaults(), plan: make(map[policy.Mechanism]bool)}
	for _, m := range policy.Plan(cfg.Objective) {
		e.plan[m] = true
	}
	return e
}

// PlanIncludes reports whether the objective's root–leaf plan contains the
// mechanism.
func (e *Engine) PlanIncludes(m policy.Mechanism) bool { return e.plan[m] }

// ReportStagingFailure records that the staging transport exhausted its
// retry budget at step. Placement stays in-situ for the configured cooldown
// window — the middleware layer's reaction to ErrStagingUnavailable: a
// service that just failed its full retry budget is very unlikely to absorb
// the next step's data, so the engine stops offering it work instead of
// paying the retry tax every step.
func (e *Engine) ReportStagingFailure(step int) {
	// A negative cooldown stays negative through withDefaults, which
	// NewWorkflow and NewEngine both apply: clamped there, the second pass
	// would read the clamped 0 as unset and restore the default.
	e.stagingDownUntil = step + 1 + max(e.cfg.StagingFailureCooldown, 0)
}

// StagingSuspect reports whether step falls inside the cooldown window of a
// recorded staging failure.
func (e *Engine) StagingSuspect(step int) bool { return step < e.stagingDownUntil }

// AppDecision reports what the application-layer mechanism did.
type AppDecision struct {
	Applied     bool    // a reduction other than factor 1 ran
	Factor      int     // uniform factor (range mode) or effective factor (entropy mode)
	MeanEntropy float64 // mean block entropy (entropy mode only)
	Degraded    bool    // no hinted factor fit; most aggressive was forced
}

// AdaptApplication runs the application-layer policy (Eqs. 1–3) and applies
// the chosen reduction to the blocks, returning the (possibly) reduced
// blocks. When the mechanism is disabled or not in the objective's plan the
// blocks pass through untouched.
func (e *Engine) AdaptApplication(blocks []*field.BoxData, s monitor.Sample, step int) ([]*field.BoxData, AppDecision) {
	dec := AppDecision{Factor: 1}
	if !e.cfg.Enable.Application || !e.plan[policy.MechApplication] ||
		e.cfg.Hints.Mode == policy.AppOff {
		return blocks, dec
	}

	switch e.cfg.Hints.Mode {
	case policy.AppRangeBased:
		factors := e.cfg.Hints.FactorsAt(step)
		x, err := policy.SelectFactor(s.MaxRankDataBytes, s.MinMemAvail(), factors)
		if err != nil {
			dec.Degraded = true
		}
		if x <= 1 {
			return blocks, dec
		}
		out := make([]*field.BoxData, len(blocks))
		for i, b := range blocks {
			out[i] = reduce.Apply(b, x, reduce.Strided)
		}
		dec.Applied, dec.Factor = true, x
		return out, dec

	case policy.AppEntropyBased:
		plan, err := reduce.NewEntropyPlan(e.cfg.Hints.EntropyBands, 0)
		if err != nil {
			return blocks, dec
		}
		decisions := plan.Decide(blocks, 0)
		out := make([]*field.BoxData, len(blocks))
		var rawCells, redCells int64
		applied := false
		for i, b := range blocks {
			out[i] = reduce.Apply(b, decisions[i].Factor, reduce.Strided)
			rawCells += b.NumCells()
			redCells += out[i].NumCells()
			dec.MeanEntropy += decisions[i].Entropy
			if decisions[i].Factor > 1 {
				applied = true
			}
		}
		if len(blocks) > 0 {
			dec.MeanEntropy /= float64(len(blocks))
		}
		dec.Applied = applied
		dec.Factor = effectiveFactor(rawCells, redCells)
		return out, dec
	}
	return blocks, dec
}

// effectiveFactor converts a cell-count reduction ratio into the equivalent
// uniform per-axis factor (cube root, rounded).
func effectiveFactor(raw, red int64) int {
	if red <= 0 || raw <= red {
		return 1
	}
	ratio := float64(raw) / float64(red)
	f := 1
	for (f+1)*(f+1)*(f+1) <= int(ratio+0.5) {
		f++
	}
	return f
}

// sweptCells converts a cell count into analysis work: the configured
// analysis service sweeps each cell SweepsPerCell times, so estimates must
// scale the same way the execution does.
func (e *Engine) sweptCells(cells int64) int64 {
	return int64(float64(cells) * e.cfg.Analysis.SweepsPerCell())
}

// AdaptResource runs the resource-layer policy (Eqs. 9–10) and returns the
// staging-core allocation for this step's data. redBytes/redCells are at
// model scale.
func (e *Engine) AdaptResource(redBytes, redCells int64, s monitor.Sample, mon *monitor.Monitor) int {
	if !e.cfg.Enable.Resource || !e.plan[policy.MechResource] {
		return e.cfg.StagingCores
	}
	send := e.cfg.Machine.TransferTime(redBytes, e.cfg.SimCores)
	// The receive cost lands on the staging servers (one per staging
	// node), so its wallclock shrinks with the allocation exactly like the
	// analysis does: recv·M = latency·M + bytes·coresPerNode/bandwidth ≈
	// constant core-seconds. Folding it into AnalysisCoreSecs keeps the
	// sizing equation linear in M and consistent with execution.
	recvCoreSecs := float64(redBytes)/e.cfg.Machine.NetBandwidth*float64(e.cfg.Machine.CoresPerNode) +
		e.cfg.Machine.NetLatency
	// A replicated pool with crashed endpoints has lost the cores those
	// servers contributed: cap the allocation to the healthy fraction so the
	// resource layer stops planning capacity that no longer exists (Eq. 10).
	maxCores := e.cfg.StagingCores
	if f := s.StagingHealthFrac(); f < 1 {
		maxCores = int(f * float64(e.cfg.StagingCores))
		if maxCores < 1 {
			maxCores = 1
		}
	}
	return policy.SelectStagingCores(policy.ResourceInput{
		DataBytes:        redBytes,
		MemPerCore:       e.cfg.Machine.MemPerCore(),
		AnalysisCoreSecs: e.cfg.Machine.AnalysisTime(e.sweptCells(redCells), 1) + recvCoreSecs,
		NextSimSeconds:   mon.PredictSimSeconds(s.SimSeconds),
		SendSeconds:      send,
		MinCores:         1,
		MaxCores:         maxCores,
	})
}

// PlacementState is the operational state AdaptMiddleware evaluates.
type PlacementState struct {
	ReducedBytes     int64 // model scale
	ReducedCells     int64 // model scale
	Sample           monitor.Sample
	StagingCores     int
	StagingRemaining float64
	TransferSeconds  float64
	StagingMemUsed   int64
	StagingMemCap    int64
}

// AdaptMiddleware runs the middleware-layer policy (Eqs. 4–8) and returns
// the placement for this step's analysis. When the mechanism is disabled
// the configured static placement is returned; when it is enabled but the
// objective's plan excludes it (MaxStagingUtilization), analysis stays
// in-transit so the staging pool the resource layer sized is the one used.
func (e *Engine) AdaptMiddleware(st PlacementState) (policy.Placement, string) {
	// A staging transport in failure cooldown overrides every other
	// consideration, static placement included: offering work to a dead
	// service would stall the step on its retry budget.
	if e.StagingSuspect(st.Sample.Step) {
		return policy.PlaceInSitu, policy.ReasonStagingSuspect
	}
	if !e.cfg.Enable.Middleware {
		return e.cfg.StaticPlacement, "static placement (middleware adaptation disabled)"
	}
	if !e.plan[policy.MechMiddleware] {
		return policy.PlaceInTransit, "objective excludes middleware; defaulting in-transit"
	}
	// With no staging cores allocated there is no in-transit side to
	// estimate (the cost model is undefined at M = 0): the work can only
	// run in-situ.
	if st.StagingCores < 1 {
		return policy.PlaceInSitu, "no staging cores allocated"
	}

	// Eq. 8's memory checks. In-situ needs the reduced copy plus the mesh
	// on the simulation cores' spare memory; in-transit needs the staging
	// space to hold S_data (Eq. 10).
	perCoreNeed := 2 * st.ReducedBytes / int64(e.cfg.SimCores)
	inSituOK := st.Sample.MinMemAvail() >= perCoreNeed
	inTransitOK := st.StagingMemCap == 0 || st.StagingMemUsed+st.ReducedBytes <= st.StagingMemCap

	imb := st.Sample.Imbalance
	if imb < 1 {
		imb = 1
	}
	return policy.DecidePlacement(policy.PlacementInput{
		InSituSeconds:     e.cfg.Machine.AnalysisTime(e.sweptCells(st.ReducedCells), e.cfg.SimCores) * imb,
		StagingRemaining:  st.StagingRemaining,
		InSituMemOK:       inSituOK,
		InTransitMemOK:    inTransitOK,
		PreferInSituOnTie: e.cfg.Objective == policy.MinDataMovement,
	})
}

// HybridFraction returns the in-situ share for hybrid placement (§3's
// "hybrid (in-situ + in-transit)" option): staging receives exactly what it
// can absorb before the next step's data arrives; the remainder runs
// in-situ. nextSim is the Monitor's prediction of the next step's
// simulation time (the absorption budget).
func (e *Engine) HybridFraction(st PlacementState, nextSim float64) float64 {
	return policy.SplitFraction(
		e.cfg.Machine.AnalysisTime(e.sweptCells(st.ReducedCells), st.StagingCores),
		st.TransferSeconds, st.StagingRemaining, nextSim)
}
