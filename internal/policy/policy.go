// Package policy implements the paper's four adaptation policies (§4): the
// application-layer down-sampling selection (Eqs. 1–3), the
// middleware-layer analysis-placement decision (Eqs. 4–8), the
// resource-layer staging-core allocation (Eqs. 9–10), and the combined
// cross-layer root–leaf coordination (§4.4). Policies are pure decision
// functions over the operational state the Monitor supplies; the Adaptation
// Engine in internal/core executes their decisions.
package policy

import (
	"errors"
	"fmt"

	"crosslayer/internal/reduce"
)

// Objective is the user preference the cross-layer policy optimizes.
type Objective int

const (
	// MinTimeToSolution minimizes end-to-end workflow time (§4.4's worked
	// example; root = middleware, leaves = application, resource).
	MinTimeToSolution Objective = iota
	// MaxStagingUtilization maximizes in-transit resource efficiency
	// (root = resource, leaf = application; middleware excluded).
	MaxStagingUtilization
	// MinDataMovement minimizes bytes moved between simulation and staging
	// (root = application; middleware biased in-situ). The paper names
	// this preference; implementing it fully is our extension.
	MinDataMovement
)

// String implements fmt.Stringer.
func (o Objective) String() string {
	switch o {
	case MinTimeToSolution:
		return "min-time-to-solution"
	case MaxStagingUtilization:
		return "max-staging-utilization"
	case MinDataMovement:
		return "min-data-movement"
	}
	return fmt.Sprintf("Objective(%d)", int(o))
}

// ParseObjective is the inverse of Objective.String, also accepting the
// short aliases the CLI and chaos schedules use ("tts", "util", "movement");
// the empty string is the default, MinTimeToSolution.
func ParseObjective(s string) (Objective, error) {
	switch s {
	case "", "tts", MinTimeToSolution.String():
		return MinTimeToSolution, nil
	case "util", MaxStagingUtilization.String():
		return MaxStagingUtilization, nil
	case "movement", MinDataMovement.String():
		return MinDataMovement, nil
	}
	return MinTimeToSolution, fmt.Errorf("unknown objective %q", s)
}

// AppMode selects the application-layer down-sampling mode.
type AppMode int

const (
	// AppOff disables application-layer reduction (factor always 1).
	AppOff AppMode = iota
	// AppRangeBased picks a factor from the user-hinted set (§5.2.1's
	// "user-defined range-based data downsampling").
	AppRangeBased
	// AppEntropyBased picks per-block factors from entropy thresholds
	// (§5.2.1's "entropy based data down-sampling").
	AppEntropyBased
)

// Hints carries the user hints of Fig. 2.
type Hints struct {
	Mode AppMode
	// FactorPhases maps a step threshold to the acceptable factor set in
	// effect from that step on; §5.2.1 uses {2,4} for the first half and
	// {2,4,8,16} for the second. A single phase starting at 0 is the
	// common case.
	FactorPhases []FactorPhase
	// EntropyBands configure the entropy mode.
	EntropyBands []reduce.Band
}

// FactorPhase is one user-hinted phase of acceptable down-sampling factors.
type FactorPhase struct {
	FromStep int
	Factors  []int
}

// FactorsAt returns the acceptable factor set in effect at step.
func (h *Hints) FactorsAt(step int) []int {
	var out []int
	for _, ph := range h.FactorPhases {
		if step >= ph.FromStep {
			out = ph.Factors
		}
	}
	return out
}

// ErrNoFeasibleFactor reports that even the most aggressive hinted factor
// does not fit the memory constraint.
var ErrNoFeasibleFactor = errors.New("policy: no hinted factor satisfies the memory constraint")

// SelectFactor implements the application-layer policy (Eqs. 1–3): choose
// from the hinted set the smallest down-sampling factor X (the highest
// spatial resolution, Fig. 5's behaviour) whose resulting data footprint
// Mem_data_reduce(S_data, X) — the resident size of the reduced data the
// analysis pipeline must hold — fits the available memory. sdata and
// memAvailable must be in the same units (per-core). If no factor fits,
// the largest hinted factor is returned along with ErrNoFeasibleFactor so
// the caller can proceed degraded but informed.
func SelectFactor(sdata, memAvailable int64, factors []int) (int, error) {
	if len(factors) == 0 {
		return 1, nil
	}
	best, bestOK := 0, false
	largest := 0
	for _, x := range factors {
		if x < 1 {
			return 0, fmt.Errorf("policy: invalid hinted factor %d", x)
		}
		if x > largest {
			largest = x
		}
		if reduce.ReducedBytes(sdata, x) <= memAvailable {
			if !bestOK || x < best {
				best, bestOK = x, true
			}
		}
	}
	if !bestOK {
		return largest, ErrNoFeasibleFactor
	}
	return best, nil
}

// Placement-reason markers for staging-transport degradation. They appear
// verbatim in the placement_reason trace column so offline analysis can
// count degraded steps.
const (
	// ReasonStagingFailure marks a step that was placed in-transit but fell
	// back to in-situ because the staging transport exhausted its retry
	// budget (staging.ErrStagingUnavailable).
	ReasonStagingFailure = "staging_failure"
	// ReasonStagingSuspect marks a step placed in-situ because a recent
	// transport failure put staging in a cooldown window.
	ReasonStagingSuspect = "staging_suspect"
)

// Placement is the middleware-layer decision D_i.
type Placement int

const (
	// PlaceInSitu runs analysis on the simulation cores (D_i = 1).
	PlaceInSitu Placement = iota
	// PlaceInTransit ships data to staging and runs there (D_i = 0).
	PlaceInTransit
)

// String implements fmt.Stringer.
func (p Placement) String() string {
	if p == PlaceInSitu {
		return "in-situ"
	}
	return "in-transit"
}

// UnknownPlacementError reports a placement string that names neither
// placement — a corrupted or foreign trace. It used to be swallowed as
// in-situ, silently mislabeling every record of a damaged file.
type UnknownPlacementError struct {
	Value string
}

func (e *UnknownPlacementError) Error() string {
	return fmt.Sprintf("policy: unknown placement %q (want %q or %q)",
		e.Value, PlaceInSitu, PlaceInTransit)
}

// ParsePlacement is the inverse of Placement.String. Unknown (including
// empty) values return an *UnknownPlacementError instead of defaulting,
// so trace readers surface corruption rather than mislabel it.
func ParsePlacement(s string) (Placement, error) {
	switch s {
	case PlaceInSitu.String():
		return PlaceInSitu, nil
	case PlaceInTransit.String():
		return PlaceInTransit, nil
	}
	return PlaceInSitu, &UnknownPlacementError{Value: s}
}

// PlacementInput is the operational state the middleware policy consumes.
type PlacementInput struct {
	InSituSeconds     float64 // T_i_insitu(N, S_i_data) estimate
	StagingRemaining  float64 // T_j_intransit_remaining at decision time (Eq. 7)
	InSituMemOK       bool    // Mem_available ≥ Mem_insitu(S_i_data, N) (Eq. 8)
	InTransitMemOK    bool    // Mem_intransit(S_i_data, M) fits (Eq. 8/10)
	PreferInSituOnTie bool    // MinDataMovement bias (extension)
}

// DecidePlacement implements the middleware-layer policy's three trigger
// cases (§4.2): (1) if only one side has the memory, place there; (2) if
// both fit and staging is idle, place in-transit to overlap with the
// simulation; (3) if staging is busy, compare the estimated completion of
// queued in-transit work plus this analysis against in-situ execution and
// pick the faster. The returned reason string is for logs and experiments.
func DecidePlacement(in PlacementInput) (Placement, string) {
	switch {
	case !in.InSituMemOK && !in.InTransitMemOK:
		// Nowhere fits: in-transit can at least queue behind eviction;
		// prefer it so the simulation is not stalled by analysis.
		return PlaceInTransit, "no memory on either side; queueing in-transit"
	case !in.InSituMemOK:
		return PlaceInTransit, "insufficient in-situ memory"
	case !in.InTransitMemOK:
		return PlaceInSitu, "insufficient in-transit memory"
	}
	if in.StagingRemaining <= 0 {
		if in.PreferInSituOnTie {
			return PlaceInSitu, "min-movement bias: staging idle but in-situ avoids transfer"
		}
		return PlaceInTransit, "staging idle; overlap analysis with simulation"
	}
	// Case 3: staging busy — Eq. 7: ship when the estimated remaining
	// in-transit work is below the in-situ execution time (the backlog
	// clears before it would hurt); otherwise run in-situ. Comparing the
	// queue against the in-situ cost (rather than total completion times)
	// keeps the backlog bounded without abandoning staging whenever it is
	// momentarily busy.
	if in.StagingRemaining < in.InSituSeconds {
		return PlaceInTransit, fmt.Sprintf("staging backlog %.3fs below in-situ cost %.3fs", in.StagingRemaining, in.InSituSeconds)
	}
	return PlaceInSitu, fmt.Sprintf("staging backlog %.3fs exceeds in-situ cost %.3fs", in.StagingRemaining, in.InSituSeconds)
}

// SplitFraction computes the hybrid-placement split (§3's third placement
// option, "hybrid (in-situ + in-transit)"): the fraction φ of the analysis
// work to keep in-situ. Staged work is off the critical path as long as the
// staging side absorbs it before the next step's data arrives, so the
// optimal greedy ships as much as that budget allows and keeps only the
// excess in-situ:
//
//	remaining + (1−φ)·(T_transfer + T_intransit) ≤ budget
//	φ = 1 − (budget − remaining)/(T_transfer + T_intransit)
//
// φ = 0 ships everything (staging absorbs it all); φ = 1 keeps everything
// in-situ (staging already saturated past the budget). Clamped to [0, 1].
func SplitFraction(inTransitSecs, transferSecs, stagingRemaining, budgetSecs float64) float64 {
	work := transferSecs + inTransitSecs
	if work <= 0 {
		return 0
	}
	phi := 1 - (budgetSecs-stagingRemaining)/work
	if phi < 0 {
		phi = 0
	}
	if phi > 1 {
		phi = 1
	}
	return phi
}

// ResourceInput is the state the resource-layer policy consumes.
type ResourceInput struct {
	DataBytes        int64   // S_data to cache in staging (Eq. 10)
	MemPerCore       int64   // staging memory contributed per allocated core
	AnalysisCoreSecs float64 // single-core in-transit analysis time of S_data
	NextSimSeconds   float64 // T_{i+1}_sim(N) prediction
	SendSeconds      float64 // T_{i+1}_sd
	RecvSeconds      float64 // T_i_recv
	MinCores         int     // floor (≥1)
	MaxCores         int     // pre-allocated pool ceiling
}

// SelectStagingCores implements the resource-layer policy (Eqs. 9–10):
// allocate the minimal M such that (a) staging memory M·memPerCore holds
// S_data and (b) in-transit analysis on M cores finishes within the next
// simulation step — i.e. analysis + recv ≤ next-sim + send. The result is
// clamped to [MinCores, MaxCores].
func SelectStagingCores(in ResourceInput) int {
	mMem := 1
	if in.MemPerCore > 0 {
		mMem = int((in.DataBytes + in.MemPerCore - 1) / in.MemPerCore)
	}
	mTime := 1
	budget := in.NextSimSeconds + in.SendSeconds - in.RecvSeconds
	if budget > 0 {
		mTime = int(in.AnalysisCoreSecs/budget) + 1
	} else if in.AnalysisCoreSecs > 0 {
		mTime = in.MaxCores // no overlap budget at all: throw the pool at it
	}
	m := mMem
	if mTime > m {
		m = mTime
	}
	if m < in.MinCores {
		m = in.MinCores
	}
	if m < 1 {
		m = 1
	}
	if in.MaxCores > 0 && m > in.MaxCores {
		m = in.MaxCores
	}
	return m
}

// Mechanism names one layer's adaptation mechanism.
type Mechanism int

const (
	// MechApplication is the data-resolution mechanism.
	MechApplication Mechanism = iota
	// MechMiddleware is the placement mechanism.
	MechMiddleware
	// MechResource is the staging-allocation mechanism.
	MechResource
)

// String implements fmt.Stringer.
func (m Mechanism) String() string {
	switch m {
	case MechApplication:
		return "application"
	case MechMiddleware:
		return "middleware"
	case MechResource:
		return "resource"
	}
	return fmt.Sprintf("Mechanism(%d)", int(m))
}

// ParseMechanisms is the inverse of Mechanism.String over a list of names:
// the set of mechanisms named.
func ParseMechanisms(names []string) (map[Mechanism]bool, error) {
	known := make(map[string]Mechanism)
	for m := MechApplication; m <= MechResource; m++ {
		known[m.String()] = m
	}
	set := make(map[Mechanism]bool, len(names))
	for _, name := range names {
		m, ok := known[name]
		if !ok {
			return nil, fmt.Errorf("unknown mechanism %q", name)
		}
		set[m] = true
	}
	return set, nil
}

// Plan implements the cross-layer root–leaf policy (§4.4): mechanisms
// sharing the objective become roots; mechanisms whose outputs the roots
// data-depend on become leaves; execution runs leaves (in dependency
// order) before roots. The returned slice is the execution order.
//
//   - MinTimeToSolution: middleware is the root (same objective); its
//     inputs S_i_data and M come from the application and resource layers,
//     so both are leaves, and the application runs first because S_data
//     feeds the resource mechanism too → [application, resource, middleware].
//   - MaxStagingUtilization: resource is the root, application the leaf;
//     middleware has no data dependency with the root and is excluded
//     → [application, resource].
//   - MinDataMovement: application is the root (reduction is the direct
//     lever on bytes moved); middleware participates biased toward in-situ
//     → [application, middleware].
func Plan(objective Objective) []Mechanism {
	switch objective {
	case MinTimeToSolution:
		return []Mechanism{MechApplication, MechResource, MechMiddleware}
	case MaxStagingUtilization:
		return []Mechanism{MechApplication, MechResource}
	case MinDataMovement:
		return []Mechanism{MechApplication, MechMiddleware}
	}
	panic(fmt.Sprintf("policy: unknown objective %d", int(objective)))
}
