package core

import (
	"testing"

	"crosslayer/internal/amr"
	"crosslayer/internal/analysis"
	"crosslayer/internal/grid"
	"crosslayer/internal/policy"
	"crosslayer/internal/reduce"
	"crosslayer/internal/solver"
	"crosslayer/internal/sysmodel"
)

// smallGas builds a laptop-scale Polytropic Gas simulation.
func smallGas(maxLevel int) solver.Simulation {
	return solver.NewPolytropicGas(solver.GasConfig{
		AMR: amr.Config{
			Domain:     grid.NewBox(grid.IV(0, 0, 0), grid.IV(15, 15, 15)),
			MaxLevel:   maxLevel,
			RefRatio:   2,
			MaxBoxSize: 8,
			NRanks:     4,
		},
	})
}

func smallAdv() solver.Simulation {
	return solver.NewAdvectionDiffusion(solver.AdvDiffConfig{
		AMR: amr.Config{
			Domain:     grid.NewBox(grid.IV(0, 0, 0), grid.IV(15, 15, 15)),
			MaxLevel:   1,
			RefRatio:   2,
			MaxBoxSize: 8,
			NRanks:     4,
			Periodic:   true,
		},
	})
}

func baseCfg() Config {
	return Config{
		Machine:      sysmodel.Titan(),
		SimCores:     1024,
		StagingCores: 64,
		Objective:    policy.MinTimeToSolution,
		CellScale:    1000,
		Isovalues:    []float64{1.1},
	}
}

func TestNewWorkflowValidation(t *testing.T) {
	if _, err := NewWorkflow(baseCfg(), nil); err == nil {
		t.Error("nil simulation accepted")
	}
	cfg := baseCfg()
	cfg.SimCores = -1
	if _, err := NewWorkflow(cfg, smallGas(0)); err == nil {
		t.Error("negative cores accepted")
	}
}

func TestStaticInSituRun(t *testing.T) {
	cfg := baseCfg()
	cfg.StaticPlacement = policy.PlaceInSitu
	w, err := NewWorkflow(cfg, smallGas(1))
	if err != nil {
		t.Fatal(err)
	}
	res := w.Run(8)
	if len(res.Steps) != 8 {
		t.Fatalf("steps = %d", len(res.Steps))
	}
	if res.BytesMovedTotal != 0 {
		t.Errorf("in-situ run moved %d bytes", res.BytesMovedTotal)
	}
	if res.InTransitSteps != 0 || res.InSituSteps != 8 {
		t.Errorf("placement counts: insitu=%d intransit=%d", res.InSituSteps, res.InTransitSteps)
	}
	// In-situ analysis serializes with simulation: overhead must be > 0.
	if res.OverheadSeconds <= 0 {
		t.Errorf("in-situ overhead = %v", res.OverheadSeconds)
	}
	if res.EndToEnd < res.SimSecondsTotal {
		t.Error("end-to-end below pure simulation time")
	}
	for _, s := range res.Steps {
		if s.Triangles == 0 {
			t.Error("analysis produced no triangles")
			break
		}
	}
}

func TestStaticInTransitRun(t *testing.T) {
	cfg := baseCfg()
	cfg.StaticPlacement = policy.PlaceInTransit
	w, err := NewWorkflow(cfg, smallGas(1))
	if err != nil {
		t.Fatal(err)
	}
	res := w.Run(8)
	if res.BytesMovedTotal == 0 {
		t.Error("in-transit run moved no bytes")
	}
	if res.InSituSteps != 0 {
		t.Errorf("static in-transit made %d in-situ steps", res.InSituSteps)
	}
	for _, s := range res.Steps {
		if s.Placement != policy.PlaceInTransit {
			t.Error("wrong placement")
		}
		if s.TransferSeconds <= 0 {
			t.Error("no transfer cost recorded")
		}
	}
}

func TestInTransitOverheadBelowInSitu(t *testing.T) {
	// In-situ pays per-step analysis forever; in-transit pays mostly a
	// one-off pipeline tail. Over enough steps in-transit must win in the
	// unsaturated regime.
	runWith := func(p policy.Placement) Result {
		cfg := baseCfg()
		cfg.StagingCores = 256 // 4:1 — staging keeps pace; the regime where in-transit shines
		cfg.StaticPlacement = p
		w, err := NewWorkflow(cfg, smallGas(1))
		if err != nil {
			t.Fatal(err)
		}
		return w.Run(30)
	}
	insitu := runWith(policy.PlaceInSitu)
	intransit := runWith(policy.PlaceInTransit)
	if intransit.OverheadSeconds >= insitu.OverheadSeconds {
		t.Errorf("in-transit overhead %.3f not below in-situ %.3f",
			intransit.OverheadSeconds, insitu.OverheadSeconds)
	}
}

func TestAdaptivePlacementNeverWorseThanBothStatics(t *testing.T) {
	run := func(enableMW bool, p policy.Placement) Result {
		cfg := baseCfg()
		cfg.Enable.Middleware = enableMW
		cfg.StaticPlacement = p
		w, err := NewWorkflow(cfg, smallAdv())
		if err != nil {
			t.Fatal(err)
		}
		return w.Run(12)
	}
	insitu := run(false, policy.PlaceInSitu)
	intransit := run(false, policy.PlaceInTransit)
	adaptive := run(true, policy.PlaceInSitu)
	worst := insitu.OverheadSeconds
	if intransit.OverheadSeconds > worst {
		worst = intransit.OverheadSeconds
	}
	if adaptive.OverheadSeconds > worst*1.05 {
		t.Errorf("adaptive overhead %.3f exceeds worst static %.3f",
			adaptive.OverheadSeconds, worst)
	}
}

func TestApplicationAdaptationReducesBytes(t *testing.T) {
	cfg := baseCfg()
	cfg.Machine = sysmodel.Intrepid()
	cfg.Enable = Adaptations{Application: true, Middleware: true, Resource: true}
	cfg.Hints = policy.Hints{
		Mode:         policy.AppRangeBased,
		FactorPhases: []policy.FactorPhase{{FromStep: 0, Factors: []int{2, 4}}},
	}
	w, err := NewWorkflow(cfg, smallGas(1))
	if err != nil {
		t.Fatal(err)
	}
	res := w.Run(6)
	for _, s := range res.Steps {
		if s.Factor < 2 {
			t.Errorf("step %d factor %d below hinted minimum", s.Step, s.Factor)
		}
		if s.BytesAnalyzed >= s.BytesProduced {
			t.Errorf("step %d: no reduction (%d >= %d)", s.Step, s.BytesAnalyzed, s.BytesProduced)
		}
		if s.ReduceSeconds <= 0 {
			t.Errorf("step %d: reduction cost not charged", s.Step)
		}
	}
}

func TestEntropyModeReducesOnlyLowEntropy(t *testing.T) {
	cfg := baseCfg()
	cfg.Enable = Adaptations{Application: true, Middleware: true}
	cfg.Hints = policy.Hints{
		Mode:         policy.AppEntropyBased,
		EntropyBands: []reduce.Band{{Below: 2.0, Factor: 4}},
	}
	w, err := NewWorkflow(cfg, smallGas(1))
	if err != nil {
		t.Fatal(err)
	}
	res := w.Run(4)
	// The blast problem has both near-constant far-field blocks (low
	// entropy → reduced) and structured blocks (kept), so bytes shrink but
	// not by the full 64x.
	for _, s := range res.Steps {
		if s.BytesAnalyzed >= s.BytesProduced {
			t.Errorf("step %d: entropy mode reduced nothing", s.Step)
		}
		if s.BytesAnalyzed*64 <= s.BytesProduced {
			t.Errorf("step %d: entropy mode reduced everything (%d vs %d)", s.Step, s.BytesAnalyzed, s.BytesProduced)
		}
	}
}

func TestResourceAdaptationShrinksPool(t *testing.T) {
	cfg := baseCfg()
	cfg.StagingCores = 256 // generous pool so the minimal allocation is visible
	cfg.Enable = Adaptations{Resource: true, Middleware: false}
	cfg.Objective = policy.MaxStagingUtilization
	cfg.StaticPlacement = policy.PlaceInTransit
	w, err := NewWorkflow(cfg, smallGas(0))
	if err != nil {
		t.Fatal(err)
	}
	res := w.Run(6)
	sawShrunk := false
	for _, s := range res.Steps {
		if s.StagingCores < cfg.StagingCores {
			sawShrunk = true
		}
		if s.StagingCores < 1 || s.StagingCores > cfg.StagingCores {
			t.Errorf("step %d staging cores %d outside [1,%d]", s.Step, s.StagingCores, cfg.StagingCores)
		}
	}
	if !sawShrunk {
		t.Error("resource adaptation never shrank the pool for small data")
	}
}

func TestResourceAdaptationImprovesUtilization(t *testing.T) {
	run := func(adapt bool) Result {
		cfg := baseCfg()
		cfg.StagingCores = 256
		cfg.Enable = Adaptations{Resource: adapt}
		cfg.Objective = policy.MaxStagingUtilization
		cfg.StaticPlacement = policy.PlaceInTransit
		w, err := NewWorkflow(cfg, smallGas(1))
		if err != nil {
			t.Fatal(err)
		}
		return w.Run(10)
	}
	static := run(false)
	adaptive := run(true)
	if adaptive.StagingUtilization <= static.StagingUtilization {
		t.Errorf("adaptive utilization %.3f not above static %.3f",
			adaptive.StagingUtilization, static.StagingUtilization)
	}
}

func TestCrossLayerReducesMovementVsMiddlewareOnly(t *testing.T) {
	run := func(enableApp bool) Result {
		cfg := baseCfg()
		cfg.Enable = Adaptations{Application: enableApp, Middleware: true, Resource: enableApp}
		cfg.Hints = policy.Hints{
			Mode:         policy.AppRangeBased,
			FactorPhases: []policy.FactorPhase{{FromStep: 0, Factors: []int{2, 4}}},
		}
		w, err := NewWorkflow(cfg, smallAdv())
		if err != nil {
			t.Fatal(err)
		}
		return w.Run(10)
	}
	local := run(false)
	global := run(true)
	if local.BytesMovedTotal == 0 {
		t.Skip("local run never went in-transit; nothing to compare")
	}
	if global.BytesMovedTotal >= local.BytesMovedTotal {
		t.Errorf("global movement %d not below local %d", global.BytesMovedTotal, local.BytesMovedTotal)
	}
}

func TestMinDataMovementObjectiveStaysInSitu(t *testing.T) {
	cfg := baseCfg()
	cfg.Objective = policy.MinDataMovement
	cfg.Enable = Adaptations{Application: true, Middleware: true}
	cfg.Hints = policy.Hints{
		Mode:         policy.AppRangeBased,
		FactorPhases: []policy.FactorPhase{{FromStep: 0, Factors: []int{2}}},
	}
	w, err := NewWorkflow(cfg, smallGas(0))
	if err != nil {
		t.Fatal(err)
	}
	res := w.Run(6)
	if res.BytesMovedTotal != 0 {
		t.Errorf("min-movement objective moved %d bytes", res.BytesMovedTotal)
	}
}

func TestVirtualClocksMonotone(t *testing.T) {
	cfg := baseCfg()
	cfg.Enable = Adaptations{Application: false, Middleware: true, Resource: true}
	w, err := NewWorkflow(cfg, smallGas(1))
	if err != nil {
		t.Fatal(err)
	}
	res := w.Run(8)
	for i := 1; i < len(res.Steps); i++ {
		if res.Steps[i].SimClock < res.Steps[i-1].SimClock {
			t.Error("simulation clock went backwards")
		}
		if res.Steps[i].StagingClock < res.Steps[i-1].StagingClock {
			t.Error("staging clock went backwards")
		}
	}
	if got := w.Result().EndToEnd; got < res.Steps[len(res.Steps)-1].SimClock {
		t.Error("EndToEnd below final sim clock")
	}
}

func TestCoreUsageHistogram(t *testing.T) {
	r := Result{Steps: []StepRecord{
		{Placement: policy.PlaceInTransit, StagingCores: 64},
		{Placement: policy.PlaceInTransit, StagingCores: 48},
		{Placement: policy.PlaceInTransit, StagingCores: 32},
		{Placement: policy.PlaceInTransit, StagingCores: 10},
		{Placement: policy.PlaceInSitu, StagingCores: 64}, // not counted
	}}
	full, threeQ, half, less := r.CoreUsageHistogram(64)
	if full != 1 || threeQ != 1 || half != 1 || less != 1 {
		t.Errorf("histogram = %d/%d/%d/%d", full, threeQ, half, less)
	}
}

func TestEnergyAccountingPositiveAndAdaptiveSaves(t *testing.T) {
	run := func(adapt bool) Result {
		cfg := baseCfg()
		cfg.StagingCores = 256
		cfg.Enable = Adaptations{Resource: adapt}
		cfg.Objective = policy.MaxStagingUtilization
		cfg.StaticPlacement = policy.PlaceInTransit
		w, err := NewWorkflow(cfg, smallGas(1))
		if err != nil {
			t.Fatal(err)
		}
		// Long enough that the staged pipeline tail amortizes; the energy
		// saving comes from the smaller pool held across the whole run.
		return w.Run(30)
	}
	static := run(false)
	adaptive := run(true)
	if static.EnergyJoules <= 0 || adaptive.EnergyJoules <= 0 {
		t.Fatal("energy accounting missing")
	}
	// The resource adaptation allocates fewer staging core-seconds, so the
	// adaptive run must cost less energy at (near-)equal end-to-end time.
	if adaptive.EnergyJoules >= static.EnergyJoules {
		t.Errorf("adaptive energy %.1f J not below static %.1f J",
			adaptive.EnergyJoules, static.EnergyJoules)
	}
}

func TestHybridPlacementSplitsWork(t *testing.T) {
	// Undersized staging (deep 64:1 ratio): binary placement must bounce
	// between all-or-nothing; hybrid ships exactly the absorbable share.
	run := func(hybrid bool) Result {
		cfg := baseCfg()
		cfg.StagingCores = 16 // 64:1 — staging can absorb only part of each step
		cfg.Enable = Adaptations{Middleware: true}
		cfg.EnableHybrid = hybrid
		w, err := NewWorkflow(cfg, smallGas(1))
		if err != nil {
			t.Fatal(err)
		}
		return w.Run(16)
	}
	binary := run(false)
	hybrid := run(true)

	sawSplit := false
	for _, s := range hybrid.Steps {
		if s.HybridFrac > 0 && s.HybridFrac < 1 {
			sawSplit = true
			if s.BytesMoved == 0 || s.BytesMoved >= s.BytesAnalyzed {
				t.Errorf("step %d: split recorded (phi=%.2f) but movement %d of %d",
					s.Step, s.HybridFrac, s.BytesMoved, s.BytesAnalyzed)
			}
		}
	}
	if !sawSplit {
		t.Fatal("hybrid mode never split a step")
	}
	// Hybrid must not be worse than binary adaptive in this regime.
	if hybrid.OverheadSeconds > binary.OverheadSeconds*1.10 {
		t.Errorf("hybrid overhead %.3f much worse than binary %.3f",
			hybrid.OverheadSeconds, binary.OverheadSeconds)
	}
}

func TestHybridFracRecordedOnPureSteps(t *testing.T) {
	cfg := baseCfg()
	cfg.StaticPlacement = policy.PlaceInSitu
	w, err := NewWorkflow(cfg, smallGas(0))
	if err != nil {
		t.Fatal(err)
	}
	res := w.Run(3)
	for _, s := range res.Steps {
		if s.HybridFrac != 1 {
			t.Errorf("pure in-situ step %d has HybridFrac %v", s.Step, s.HybridFrac)
		}
	}
}

func TestWorkflowWithStatisticsService(t *testing.T) {
	cfg := baseCfg()
	cfg.Enable = Adaptations{Middleware: true}
	cfg.Analysis = analysis.NewStatistics(64)
	w, err := NewWorkflow(cfg, smallGas(1))
	if err != nil {
		t.Fatal(err)
	}
	res := w.Run(6)
	for _, s := range res.Steps {
		if s.AnalysisSeconds <= 0 {
			t.Errorf("step %d: statistics service cost not charged", s.Step)
		}
		if s.Triangles != 0 {
			t.Errorf("step %d: statistics service produced triangles", s.Step)
		}
	}
}

func TestWorkflowWithSubsetService(t *testing.T) {
	cfg := baseCfg()
	cfg.StaticPlacement = policy.PlaceInTransit
	cfg.Analysis = analysis.NewSubset(grid.NewBox(grid.IV(4, 4, 4), grid.IV(11, 11, 11)))
	w, err := NewWorkflow(cfg, smallGas(0))
	if err != nil {
		t.Fatal(err)
	}
	res := w.Run(4)
	if res.BytesMovedTotal == 0 {
		t.Error("subset workflow moved nothing")
	}
	for _, s := range res.Steps {
		if s.AnalysisSeconds <= 0 {
			t.Errorf("step %d: subset cost missing", s.Step)
		}
	}
}
