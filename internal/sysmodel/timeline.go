package sysmodel

import "fmt"

// Timeline tracks the busy intervals of one logical resource (the
// simulation side or the staging side) under the virtual clock. The two
// timelines advance independently — that asynchrony is exactly what makes
// in-transit analysis overlap the next simulation step (Eqs. 4–6). The zero
// Timeline is idle at t=0.
type Timeline struct {
	busyUntil float64 // virtual time the resource frees up
	busyTotal float64 // accumulated busy seconds (for utilization)
}

// FreeAt returns the virtual time the resource becomes idle.
func (t *Timeline) FreeAt() float64 { return t.busyUntil }

// BusyTotal returns the accumulated busy seconds.
func (t *Timeline) BusyTotal() float64 { return t.busyTotal }

// Schedule books work of the given duration starting no earlier than
// `earliest`, returning the start and end times. Work queues FIFO behind
// whatever the resource is already committed to.
func (t *Timeline) Schedule(earliest, duration float64) (start, end float64) {
	if duration < 0 {
		panic(fmt.Sprintf("sysmodel: negative duration %g", duration))
	}
	start = earliest
	if t.busyUntil > start {
		start = t.busyUntil
	}
	end = start + duration
	t.busyUntil = end
	t.busyTotal += duration
	return start, end
}

// Restore rewinds the timeline to a journaled horizon — the workflow's
// checkpoint/restart path re-arming the virtual clock after a driver
// crash. Both values must be non-negative and busyUntil-consistent only
// with the run that journaled them; no cross-checking is possible here.
func (t *Timeline) Restore(busyUntil, busyTotal float64) {
	if busyUntil < 0 || busyTotal < 0 {
		panic(fmt.Sprintf("sysmodel: negative timeline restore (%g, %g)", busyUntil, busyTotal))
	}
	t.busyUntil = busyUntil
	t.busyTotal = busyTotal
}

// RemainingAt returns how much booked work remains at virtual time now —
// the T_intransit_remaining estimate the middleware policy uses (Eq. 7).
func (t *Timeline) RemainingAt(now float64) float64 {
	if t.busyUntil <= now {
		return 0
	}
	return t.busyUntil - now
}

// StagingPool tracks a dynamically sized pool of staging cores with
// per-step allocation and utilization accounting (Eq. 12). Analysis jobs
// gang-schedule across the pool's current size.
type StagingPool struct {
	Timeline
	cores int

	// per-step accounting for Eq. 12 and Table 2
	coreSecondsBusy  float64 // Σ_j Σ_i T_intransit_analysis_i_j
	coreSecondsTotal float64 // Σ_j Σ_i T_intransit_total_i_j
}

// NewStagingPool creates a pool of `cores` staging cores.
func NewStagingPool(cores int) *StagingPool {
	if cores < 1 {
		panic(fmt.Sprintf("sysmodel: staging pool needs >= 1 core, got %d", cores))
	}
	return &StagingPool{cores: cores}
}

// Cores returns the pool's current size.
func (p *StagingPool) Cores() int { return p.cores }

// Resize changes the pool size (the resource-layer mechanism). It takes
// effect for subsequently scheduled work.
func (p *StagingPool) Resize(cores int) {
	if cores < 1 {
		panic(fmt.Sprintf("sysmodel: staging pool needs >= 1 core, got %d", cores))
	}
	p.cores = cores
}

// Restore rewinds the pool model to a journaled allocation and its
// core-seconds accounting (checkpoint/restart).
func (p *StagingPool) Restore(cores int, coreSecondsBusy, coreSecondsTotal float64) {
	p.Resize(cores)
	if coreSecondsBusy < 0 || coreSecondsTotal < 0 {
		panic(fmt.Sprintf("sysmodel: negative core-seconds restore (%g, %g)", coreSecondsBusy, coreSecondsTotal))
	}
	p.coreSecondsBusy = coreSecondsBusy
	p.coreSecondsTotal = coreSecondsTotal
}

// RunJob books a gang-scheduled job whose single-core duration is
// coreSeconds: on M cores it takes coreSeconds/M wallclock. Accounting
// attributes busy core-seconds for utilization.
func (p *StagingPool) RunJob(earliest, coreSeconds float64) (start, end float64) {
	dur := coreSeconds / float64(p.cores)
	start, end = p.Schedule(earliest, dur)
	p.coreSecondsBusy += dur * float64(p.cores)
	return start, end
}

// AccountSpan charges the pool for existing through a wallclock span with
// its current size; called once per workflow step so idle time is counted.
func (p *StagingPool) AccountSpan(seconds float64) {
	if seconds < 0 {
		return
	}
	p.coreSecondsTotal += seconds * float64(p.cores)
}

// CoreSecondsBusy returns the accumulated busy core-seconds (the Eq. 12
// numerator) — journaled at checkpoints alongside CoreSecondsTotal.
func (p *StagingPool) CoreSecondsBusy() float64 { return p.coreSecondsBusy }

// CoreSecondsTotal returns the accumulated allocated core-seconds (busy or
// idle) across the spans the pool has been accounted for.
func (p *StagingPool) CoreSecondsTotal() float64 { return p.coreSecondsTotal }

// Utilization returns Eq. 12: busy core-seconds over total core-seconds.
// It reports 1 for a pool that never existed through any span.
func (p *StagingPool) Utilization() float64 {
	if p.coreSecondsTotal <= 0 {
		return 1
	}
	u := p.coreSecondsBusy / p.coreSecondsTotal
	if u > 1 {
		u = 1
	}
	return u
}
