// Package sysmodel provides the execution-platform substrate: descriptions
// of the paper's two testbeds (Intrepid IBM BlueGene/P and Titan Cray XK7),
// an analytic cost model that scales the real kernels' work to those
// machines' core counts, and busy-interval bookkeeping for the simulation
// and staging timelines.
//
// The substitution this package embodies is documented in DESIGN.md: the
// adaptation policies consume times, sizes and memory levels, not network
// packets, so a calibrated analytic model of compute and transfer costs
// reproduces the relative behaviour (who wins, where crossovers fall) that
// the paper reports, without MPI or RDMA.
package sysmodel

import "fmt"

// Machine describes a target platform for the cost model.
type Machine struct {
	CoresPerNode int
	MemPerNode   int64 // bytes of RAM per node

	// Rates are per core. They are calibration constants, chosen so the
	// relative cost of simulation vs analysis vs movement matches the
	// regimes of the paper's evaluation (analysis ≪ simulation per step,
	// transfer cost visible but not dominant).
	SimCellRate      float64 // simulation cell-updates per second per core
	AnalysisCellRate float64 // analysis (isosurface) cells per second per core
	ReduceCellRate   float64 // data-reduction cells per second per core

	NetBandwidth float64 // bytes/second per endpoint for staging transfers
	NetLatency   float64 // seconds per message

	// WattsPerCore is the active power draw per allocated core, used by
	// the energy accounting (the paper's future work names power
	// management as the next application of cross-layer adaptation; the
	// resource layer's smaller staging allocations translate directly
	// into energy savings under this model).
	WattsPerCore float64
}

// MemPerCore returns the memory share of one core.
func (m Machine) MemPerCore() int64 { return m.MemPerNode / int64(m.CoresPerNode) }

// Intrepid returns the IBM BlueGene/P model used in §5.2.1/5.2.3: quad-core
// 850 MHz nodes with 2 GB of RAM (500 MB per core) — the machine whose tiny
// memory makes the application-layer adaptation necessary.
func Intrepid() Machine {
	return Machine{
		CoresPerNode:     4,
		MemPerNode:       2 << 30,
		SimCellRate:      2.0e5,
		AnalysisCellRate: 1.0e7,
		ReduceCellRate:   2.0e7,
		NetBandwidth:     400e6,
		NetLatency:       20e-6,
		WattsPerCore:     8, // BG/P's hallmark efficiency
	}
}

// Titan returns the Cray XK7 model used in §5.2.2/5.2.4: 16-core Opteron
// nodes on a Gemini interconnect.
func Titan() Machine {
	return Machine{
		CoresPerNode:     16,
		MemPerNode:       32 << 30,
		SimCellRate:      1.0e6,
		AnalysisCellRate: 1.6e7,
		ReduceCellRate:   1.0e8,
		NetBandwidth:     3e9,
		NetLatency:       5e-6,
		WattsPerCore:     18,
	}
}

// Energy returns the joules consumed by ncores cores held for `seconds`
// wallclock (allocation-based accounting: a core draws power while it is
// allocated, busy or idle — which is what makes over-allocated staging
// pools expensive).
func (m Machine) Energy(ncores int, seconds float64) float64 {
	return m.WattsPerCore * float64(ncores) * seconds
}

// SimTime returns the wallclock seconds to advance `cells` cell-updates on
// ncores cores, assuming the balanced decomposition the load balancer
// maintains.
func (m Machine) SimTime(cells int64, ncores int) float64 {
	if ncores < 1 {
		panic(fmt.Sprintf("sysmodel: ncores %d", ncores))
	}
	return float64(cells) / (m.SimCellRate * float64(ncores))
}

// AnalysisTime returns the wallclock seconds for the visualization kernel
// to sweep `cells` cells on ncores cores.
func (m Machine) AnalysisTime(cells int64, ncores int) float64 {
	if ncores < 1 {
		panic(fmt.Sprintf("sysmodel: ncores %d", ncores))
	}
	return float64(cells) / (m.AnalysisCellRate * float64(ncores))
}

// ReduceTime returns the wallclock seconds for the reduction operator over
// `cells` cells on ncores cores.
func (m Machine) ReduceTime(cells int64, ncores int) float64 {
	if ncores < 1 {
		panic(fmt.Sprintf("sysmodel: ncores %d", ncores))
	}
	return float64(cells) / (m.ReduceCellRate * float64(ncores))
}

// TransferTime returns T_sd/T_recv (Eq. 9's latency terms): the seconds to
// move `bytes` from nlinks concurrent sender endpoints into staging.
func (m Machine) TransferTime(bytes int64, nlinks int) float64 {
	if nlinks < 1 {
		nlinks = 1
	}
	return m.NetLatency + float64(bytes)/(m.NetBandwidth*float64(nlinks))
}

// ImbalanceFactor converts a per-rank load distribution into the ratio
// max/mean, the slowdown an imbalanced step suffers versus a perfectly
// balanced one. The cost model multiplies balanced times by this factor so
// the AMR-induced imbalance the paper highlights (Fig. 1) shows up in the
// timelines.
func ImbalanceFactor(perRank []int64) float64 {
	if len(perRank) == 0 {
		return 1
	}
	var sum, max int64
	for _, v := range perRank {
		sum += v
		if v > max {
			max = v
		}
	}
	if sum == 0 {
		return 1
	}
	mean := float64(sum) / float64(len(perRank))
	return float64(max) / mean
}
