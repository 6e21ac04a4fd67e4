// Package monitor implements the Monitor component of the autonomic loop
// (paper §3, Fig. 2–3): it captures per-step operational state across the
// application, middleware and resource layers — execution times, generated
// data sizes, per-rank memory, staging occupancy — and derives the runtime
// estimates (smoothed step times, per-cell analysis rates) the Adaptation
// Engine feeds into the policies.
package monitor

import "fmt"

// Sample is the operational state captured after one workflow step.
type Sample struct {
	Step int

	// Application layer.
	SimSeconds float64 // modeled execution time of this simulation step
	DataBytes  int64   // S_data: bytes of analysis data generated this step
	DataCells  int64   // cells backing that data
	Imbalance  float64 // per-rank load imbalance factor (max/mean), ≥ 1
	// MaxRankDataBytes is the analysis-data share of the most loaded core
	// (model scale, per-core units) — the S_data the application-layer
	// memory constraint (Eq. 2) is checked against.
	MaxRankDataBytes int64

	// Resource layer (per virtual rank, simulation side).
	MemUsedPerRank  []int64 // bytes in use
	MemAvailPerRank []int64 // bytes still free

	// Middleware/staging. StagingMemCap is the *effective* capacity: with a
	// replicated staging pool it is scaled down to the healthy endpoints, so
	// the policies plan against capacity that actually exists.
	StagingMemCap int64 // 0 = unlimited

	// Replicated staging-pool health: endpoints in rotation out of the
	// configured total. Both zero when the transport does not track
	// endpoints (in-process space, single TCP server).
	StagingHealthyEndpoints int
	StagingTotalEndpoints   int
}

// StagingHealthFrac returns the healthy fraction of staging endpoints, 1
// when the transport does not track endpoints.
func (s *Sample) StagingHealthFrac() float64 {
	if s.StagingTotalEndpoints <= 0 {
		return 1
	}
	return float64(s.StagingHealthyEndpoints) / float64(s.StagingTotalEndpoints)
}

// MinMemAvail returns the tightest per-rank memory availability — the
// binding constraint for Eqs. 2 and 8.
func (s *Sample) MinMemAvail() int64 {
	if len(s.MemAvailPerRank) == 0 {
		return 0
	}
	m := s.MemAvailPerRank[0]
	for _, v := range s.MemAvailPerRank[1:] {
		if v < m {
			m = v
		}
	}
	return m
}

// MaxMemUsed returns the peak per-rank memory usage (the Fig. 1 series).
func (s *Sample) MaxMemUsed() int64 {
	var m int64
	for _, v := range s.MemUsedPerRank {
		if v > m {
			m = v
		}
	}
	return m
}

// Monitor keeps the latest sample and maintains smoothed estimates.
type Monitor struct {
	last    Sample
	hasLast bool

	// Exponentially weighted moving averages used as predictors.
	alpha         float64
	simSecsEWMA   float64
	dataBytesEWMA float64
	haveEWMA      bool
}

// New creates a Monitor. alpha is the EWMA smoothing weight in (0,1];
// 0 selects the default 0.5.
func New(alpha float64) *Monitor {
	if alpha == 0 {
		alpha = 0.5
	}
	if alpha < 0 || alpha > 1 {
		panic(fmt.Sprintf("monitor: invalid alpha %g", alpha))
	}
	return &Monitor{alpha: alpha}
}

// Record ingests a sample (the periodic sampling of Fig. 3).
func (m *Monitor) Record(s Sample) {
	m.last, m.hasLast = s, true
	if !m.haveEWMA {
		m.simSecsEWMA = s.SimSeconds
		m.dataBytesEWMA = float64(s.DataBytes)
		m.haveEWMA = true
		return
	}
	m.simSecsEWMA = m.alpha*s.SimSeconds + (1-m.alpha)*m.simSecsEWMA
	m.dataBytesEWMA = m.alpha*float64(s.DataBytes) + (1-m.alpha)*m.dataBytesEWMA
}

// Restore primes a fresh Monitor with a resumed run's journaled EWMA
// values: only the smoothed estimates survive a restart, not the last
// sample.
func (m *Monitor) Restore(simSecsEWMA, dataBytesEWMA float64, have bool) {
	if m.hasLast {
		panic("monitor: restore after samples were recorded")
	}
	m.simSecsEWMA = simSecsEWMA
	m.dataBytesEWMA = dataBytesEWMA
	m.haveEWMA = have
}

// EWMA exposes the smoothed estimates and whether any sample primed them —
// the state a journal checkpoint captures for Restore.
func (m *Monitor) EWMA() (simSecs, dataBytes float64, have bool) {
	return m.simSecsEWMA, m.dataBytesEWMA, m.haveEWMA
}

// Last returns the most recent sample; ok is false when none exist.
func (m *Monitor) Last() (Sample, bool) { return m.last, m.hasLast }

// PredictSimSeconds estimates the next step's simulation time
// (T_{i+1}_sim in Eq. 9) from the smoothed history; fallback is returned
// before any sample exists.
func (m *Monitor) PredictSimSeconds(fallback float64) float64 {
	if !m.haveEWMA {
		return fallback
	}
	return m.simSecsEWMA
}
