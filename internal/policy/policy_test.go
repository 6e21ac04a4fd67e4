package policy

import (
	"errors"
	"testing"

	"crosslayer/internal/reduce"
)

func TestFactorsAtPhases(t *testing.T) {
	h := Hints{FactorPhases: []FactorPhase{
		{FromStep: 0, Factors: []int{2, 4}},
		{FromStep: 20, Factors: []int{2, 4, 8, 16}},
	}}
	if got := h.FactorsAt(0); len(got) != 2 {
		t.Errorf("step 0 factors = %v", got)
	}
	if got := h.FactorsAt(19); len(got) != 2 {
		t.Errorf("step 19 factors = %v", got)
	}
	if got := h.FactorsAt(20); len(got) != 4 {
		t.Errorf("step 20 factors = %v", got)
	}
	var none Hints
	if got := none.FactorsAt(5); got != nil {
		t.Errorf("no phases = %v", got)
	}
}

func TestSelectFactorPicksSmallestFitting(t *testing.T) {
	sdata := int64(8 << 20)
	// Plenty of memory: smallest hinted factor wins (highest resolution).
	x, err := SelectFactor(sdata, 1<<30, []int{2, 4, 8})
	if err != nil || x != 2 {
		t.Errorf("ample memory: x=%d err=%v", x, err)
	}
	// Memory fits only factor >= 4: footprint(S,2)=S/8, footprint(S,4)=S/64.
	avail := reduce.ReducedBytes(sdata, 4) // exactly factor 4's footprint
	x, err = SelectFactor(sdata, avail, []int{2, 4, 8})
	if err != nil || x != 4 {
		t.Errorf("tight memory: x=%d err=%v", x, err)
	}
	// Hint order must not matter.
	x, _ = SelectFactor(sdata, 1<<30, []int{8, 2, 4})
	if x != 2 {
		t.Errorf("unsorted hints: x=%d", x)
	}
}

func TestSelectFactorInfeasible(t *testing.T) {
	x, err := SelectFactor(8<<20, 100, []int{2, 4, 16})
	if !errors.Is(err, ErrNoFeasibleFactor) {
		t.Fatalf("err = %v", err)
	}
	if x != 16 {
		t.Errorf("degraded factor = %d, want most aggressive 16", x)
	}
}

func TestSelectFactorEdgeCases(t *testing.T) {
	if x, err := SelectFactor(100, 1000, nil); err != nil || x != 1 {
		t.Errorf("no hints: x=%d err=%v", x, err)
	}
	if _, err := SelectFactor(100, 1000, []int{0}); err == nil {
		t.Error("invalid hint accepted")
	}
}

func TestDecidePlacementMemoryCases(t *testing.T) {
	// Case 1a: only staging has memory.
	p, _ := DecidePlacement(PlacementInput{InSituMemOK: false, InTransitMemOK: true})
	if p != PlaceInTransit {
		t.Error("should go in-transit when in-situ memory is short")
	}
	// Case 1b: only simulation side has memory.
	p, _ = DecidePlacement(PlacementInput{InSituMemOK: true, InTransitMemOK: false})
	if p != PlaceInSitu {
		t.Error("should go in-situ when staging memory is short")
	}
	// Neither fits: prefer not stalling the simulation.
	p, reason := DecidePlacement(PlacementInput{})
	if p != PlaceInTransit || reason == "" {
		t.Error("no-memory case should queue in-transit with a reason")
	}
}

func TestDecidePlacementIdleStaging(t *testing.T) {
	// Case 2: both fit, staging idle → in-transit (overlap).
	p, _ := DecidePlacement(PlacementInput{
		InSituMemOK: true, InTransitMemOK: true,
		InSituSeconds: 1, StagingRemaining: 0,
	})
	if p != PlaceInTransit {
		t.Error("idle staging must win even if slower (it overlaps)")
	}
}

func TestDecidePlacementBusyStaging(t *testing.T) {
	// Case 3: staging busy; Fig. 4's ts=30 situation — in-situ is faster.
	p, _ := DecidePlacement(PlacementInput{
		InSituMemOK: true, InTransitMemOK: true,
		InSituSeconds:    2,
		StagingRemaining: 5,
	})
	if p != PlaceInSitu {
		t.Error("busy staging should lose to faster in-situ")
	}
	// Busy but still faster than a very slow in-situ.
	p, _ = DecidePlacement(PlacementInput{
		InSituMemOK: true, InTransitMemOK: true,
		InSituSeconds:    100,
		StagingRemaining: 5,
	})
	if p != PlaceInTransit {
		t.Error("slow in-situ should lose to busy staging")
	}
}

func TestDecidePlacementMinMovementBias(t *testing.T) {
	p, _ := DecidePlacement(PlacementInput{
		InSituMemOK: true, InTransitMemOK: true,
		PreferInSituOnTie: true,
	})
	if p != PlaceInSitu {
		t.Error("min-movement bias should keep analysis in-situ when staging is idle")
	}
}

func TestSelectStagingCoresMemoryFloor(t *testing.T) {
	// Eq. 10: enough cores to cache S_data.
	m := SelectStagingCores(ResourceInput{
		DataBytes:  1000,
		MemPerCore: 100,
		MinCores:   1, MaxCores: 256,
		NextSimSeconds: 1e9, // time never binds
	})
	if m != 10 {
		t.Errorf("memory floor M = %d, want 10", m)
	}
}

func TestSelectStagingCoresTimeConstraint(t *testing.T) {
	// Eq. 9: analysis of 100 core-seconds must fit a 10s budget → 11 cores
	// (integer allocation strictly beats the budget).
	m := SelectStagingCores(ResourceInput{
		AnalysisCoreSecs: 100,
		NextSimSeconds:   10,
		MemPerCore:       1 << 40, // memory never binds
		DataBytes:        1,
		MinCores:         1, MaxCores: 256,
	})
	if m != 11 {
		t.Errorf("time-bound M = %d, want 11", m)
	}
	// Send/recv asymmetry shifts the budget.
	m2 := SelectStagingCores(ResourceInput{
		AnalysisCoreSecs: 100,
		NextSimSeconds:   10,
		SendSeconds:      5, RecvSeconds: 5,
		MemPerCore: 1 << 40, DataBytes: 1,
		MinCores: 1, MaxCores: 256,
	})
	if m2 != m {
		t.Errorf("balanced send/recv changed M: %d vs %d", m2, m)
	}
}

func TestSelectStagingCoresClamps(t *testing.T) {
	m := SelectStagingCores(ResourceInput{
		DataBytes: 1 << 40, MemPerCore: 1,
		MinCores: 4, MaxCores: 64,
	})
	if m != 64 {
		t.Errorf("ceiling clamp M = %d", m)
	}
	m = SelectStagingCores(ResourceInput{
		DataBytes: 1, MemPerCore: 1 << 40,
		NextSimSeconds: 1e9,
		MinCores:       8, MaxCores: 64,
	})
	if m != 8 {
		t.Errorf("floor clamp M = %d", m)
	}
}

func TestSelectStagingCoresNoBudget(t *testing.T) {
	// Zero/negative overlap budget: use the whole pool.
	m := SelectStagingCores(ResourceInput{
		AnalysisCoreSecs: 5,
		NextSimSeconds:   0,
		RecvSeconds:      1,
		MemPerCore:       1 << 40, DataBytes: 1,
		MinCores: 1, MaxCores: 32,
	})
	if m != 32 {
		t.Errorf("no-budget M = %d, want pool max", m)
	}
}

func TestPlanRootLeafOrders(t *testing.T) {
	tts := Plan(MinTimeToSolution)
	if len(tts) != 3 || tts[0] != MechApplication || tts[1] != MechResource || tts[2] != MechMiddleware {
		t.Errorf("MinTTS order = %v", tts)
	}
	util := Plan(MaxStagingUtilization)
	if len(util) != 2 || util[0] != MechApplication || util[1] != MechResource {
		t.Errorf("MaxUtil order = %v", util)
	}
	for _, mech := range util {
		if mech == MechMiddleware {
			t.Error("middleware must be excluded from MaxStagingUtilization")
		}
	}
	move := Plan(MinDataMovement)
	if move[0] != MechApplication {
		t.Errorf("MinMovement must start with application: %v", move)
	}
}

func TestStringers(t *testing.T) {
	if MinTimeToSolution.String() == "" || MaxStagingUtilization.String() == "" ||
		MinDataMovement.String() == "" || Objective(99).String() == "" {
		t.Error("Objective strings")
	}
	if PlaceInSitu.String() != "in-situ" || PlaceInTransit.String() != "in-transit" {
		t.Error("Placement strings")
	}
	if MechApplication.String() == "" || MechMiddleware.String() == "" ||
		MechResource.String() == "" || Mechanism(9).String() == "" {
		t.Error("Mechanism strings")
	}
}

func TestSplitFraction(t *testing.T) {
	// Staging absorbs everything within budget: ship all.
	if got := SplitFraction(1, 0.1, 0, 2); got != 0 {
		t.Errorf("absorbable: phi = %v", got)
	}
	// Staging already saturated past the budget: keep all in-situ.
	if got := SplitFraction(1, 0.1, 5, 2); got != 1 {
		t.Errorf("saturated: phi = %v", got)
	}
	// Partial: budget 1s, no backlog, work 2s → ship half.
	if got := SplitFraction(1.9, 0.1, 0, 1); got != 0.5 {
		t.Errorf("partial: phi = %v", got)
	}
	// Backlog eats into the budget.
	if got := SplitFraction(1.9, 0.1, 0.5, 1); got != 0.75 {
		t.Errorf("backlogged partial: phi = %v", got)
	}
	// Degenerate work.
	if got := SplitFraction(0, 0, 3, 1); got != 0 {
		t.Errorf("no work: phi = %v", got)
	}
}

// TestParseRunVocabulary pins the one parse every front end shares: the
// String() forms round-trip, the CLI/chaos aliases and the empty default
// resolve, and anything else is an error naming the offender.
func TestParseRunVocabulary(t *testing.T) {
	for _, o := range []Objective{MinTimeToSolution, MaxStagingUtilization, MinDataMovement} {
		if got, err := ParseObjective(o.String()); err != nil || got != o {
			t.Errorf("ParseObjective(%q) = %v, %v", o, got, err)
		}
	}
	for alias, want := range map[string]Objective{
		"": MinTimeToSolution, "tts": MinTimeToSolution, "util": MaxStagingUtilization, "movement": MinDataMovement,
	} {
		if got, err := ParseObjective(alias); err != nil || got != want {
			t.Errorf("ParseObjective(%q) = %v, %v; want %v", alias, got, err, want)
		}
	}
	if _, err := ParseObjective("fastest"); err == nil {
		t.Error("unknown objective accepted")
	}

	set, err := ParseMechanisms([]string{MechResource.String(), MechApplication.String()})
	if err != nil || len(set) != 2 || !set[MechResource] || !set[MechApplication] || set[MechMiddleware] {
		t.Errorf("ParseMechanisms = %v, %v", set, err)
	}
	if set, err := ParseMechanisms(nil); err != nil || len(set) != 0 {
		t.Errorf("empty list = %v, %v", set, err)
	}
	if _, err := ParseMechanisms([]string{"application", "network"}); err == nil {
		t.Error("unknown mechanism accepted")
	}
}
