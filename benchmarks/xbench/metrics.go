package main

import (
	"math"
	"sort"
)

// metricDef names one reported metric. The two tables below are the single
// source for names and units; BENCHMARK.json repeats them for the driver and
// TestManifestMatchesTables keeps the two in step.
type metricDef struct {
	name  string
	unit  string
	lower bool    // true when a lower value is better
	bound float64 // end-to-end only: share of the parent's median it may worsen by
}

// endToEnd is what a user of the staging runtime sees. Every workload reports
// every one of them (see README.md for how put_p50_ms is taken on the
// read-only workload). failed_frac is not in the table because a metric may
// never read 0; it travels as the result line's failed/attempted pair.
//
// Every timed metric carries the largest bound the driver allows: on this
// sandbox their run-to-run spread (quartile distance over median, ten seeds)
// is 3-10 %, and a bound has to be three times that to be safe from noise.
// The allocation volume repeats to five digits and is held to 2 %.
var endToEnd = []metricDef{
	{"setup_s", "s", true, 0.25},
	{"steps_per_s", "1/s", false, 0.25},
	{"step_p50_ms", "ms", true, 0.25},
	{"step_p90_ms", "ms", true, 0.25},
	{"user_mb_per_s", "MB/s", false, 0.25},
	{"alloc_mb_per_step", "MB", true, 0.02},
	{"put_p50_ms", "ms", true, 0.25},
	{"get_p50_ms", "ms", true, 0.25},
}

// perLayer is the ledger: one number per rung a block passes through. A
// metric a workload does not exercise reads 0 there.
var perLayer = []metricDef{
	// Traced rounds: spans recorded by the benchmark's own decorators.
	{"solver.busy_frac", "frac", false, 0},
	{"solver.step_p50_ms", "ms", true, 0},
	{"solver.cells_per_s", "1/s", false, 0},
	{"analysis.busy_frac", "frac", false, 0},
	{"analysis.triangles_per_s", "1/s", false, 0},
	{"core.self_frac", "frac", true, 0},
	{"core.step_p50_ms", "ms", true, 0},
	{"core.intransit_steps", "count", false, 0},
	{"core.degraded_steps", "count", true, 0},
	{"pool.put_busy_frac", "frac", true, 0},
	{"pool.get_busy_frac", "frac", true, 0},
	{"pool.drop_busy_frac", "frac", true, 0},
	{"pool.put_p50_ms", "ms", true, 0},
	{"pool.put_p99_ms", "ms", true, 0},
	{"pool.get_p50_ms", "ms", true, 0},
	{"pool.get_p99_ms", "ms", true, 0},
	{"pool.drop_p50_ms", "ms", true, 0},
	{"pool.puts", "count", false, 0},
	{"pool.gets", "count", false, 0},
	{"pool.put_bytes", "B", false, 0},
	{"pool.get_bytes", "B", false, 0},
	{"pool.retries", "count", true, 0},
	{"pool.reconnects", "count", true, 0},
	{"pool.healthy_endpoints", "count", false, 0},
	{"tcp.admitted", "count", false, 0},
	{"tcp.shed", "count", true, 0},
	{"wal.records", "count", true, 0},
	{"wal.fsyncs", "count", true, 0},
	{"wal.fsyncs_per_put", "ratio", true, 0},
	{"wal.bytes_per_user_byte", "ratio", true, 0},
	{"wal.snapshots", "count", true, 0},
	{"wal.recover_ms", "ms", true, 0},
	{"wal.recovered_blocks", "count", false, 0},
	// Probes: public functions timed at successive stack depths.
	{"codec.encode_ns_4k", "ns", true, 0},
	{"codec.decode_ns_4k", "ns", true, 0},
	{"codec.encode_ns_160k", "ns", true, 0},
	{"codec.decode_ns_160k", "ns", true, 0},
	{"codec.encode_allocs", "count", true, 0},
	{"codec.decode_allocs", "count", true, 0},
	{"codec.decode_b_per_op_4k", "B", true, 0},
	{"space.put_ns_4k", "ns", true, 0},
	{"space.get_ns_4k", "ns", true, 0},
	{"space.drop_ns", "ns", true, 0},
	{"space.put_allocs", "count", true, 0},
	{"wal.put_us_4k", "us", true, 0},
	{"wal.put_us_160k", "us", true, 0},
	{"tcp.put_rtt_us_4k", "us", true, 0},
	{"tcp.put_rtt_us_160k", "us", true, 0},
	{"tcp.get_rtt_us_4k", "us", true, 0},
	{"tcp.get_rtt_us_160k", "us", true, 0},
	{"tcp.put_self_us_4k", "us", true, 0},
	{"tcp.put_allocs", "count", true, 0},
	{"tcp.put_b_per_op_4k", "B", true, 0},
	{"pool.put_self_us_4k", "us", true, 0},
	{"reduce.downsample_mb_per_s", "MB/s", false, 0},
	{"reduce.plan_decide_us", "us", true, 0},
	{"entropy.block_ns", "ns", true, 0},
	{"viz.extract_ms_32", "ms", true, 0},
	{"obs.emit_ns", "ns", true, 0},
	{"obs.span_ns", "ns", true, 0},
	{"journal.checkpoint_us", "us", true, 0},
	{"sysmodel.transfer_pred_over_measured", "ratio", false, 0},
	// Toggles: pool-churn-mem variants, 1 - variant/base steps_per_s.
	{"obs.events_cost_frac", "frac", true, 0},
	{"obs.spans_cost_frac", "frac", true, 0},
	{"tenant.scope_cost_frac", "frac", true, 0},
	{"wal.durable_cost_frac", "frac", true, 0},
	{"trace.overhead_frac", "frac", true, 0},
}

// quantile returns the q-quantile of vs by linear interpolation between
// closest ranks. vs is sorted in place; an empty slice reads 0.
func quantile(vs []float64, q float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	sort.Float64s(vs)
	pos := q * float64(len(vs)-1)
	lo := int(math.Floor(pos))
	hi := min(lo+1, len(vs)-1)
	return vs[lo] + (pos-float64(lo))*(vs[hi]-vs[lo])
}

func median(vs []float64) float64 { return quantile(vs, 0.5) }

// nsQuantileMs is quantile over nanosecond samples, in milliseconds.
func nsQuantileMs(ns []int64, q float64) float64 {
	vs := make([]float64, len(ns))
	for i, v := range ns {
		vs[i] = float64(v) / 1e6
	}
	return quantile(vs, q)
}

func sumNs(ns []int64) (total int64) {
	for _, v := range ns {
		total += v
	}
	return total
}

// iqrOverMedian is the driver's steadiness measure: the distance between the
// first and third quartile as Python's statistics.quantiles(vs, n=4) gives
// them (the "exclusive" method), as a share of the median.
func iqrOverMedian(vs []float64) float64 {
	if len(vs) < 2 {
		return 0
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	cut := func(i int) float64 {
		const n = 4
		m := len(s) + 1
		j := i * m / n
		j = max(1, min(j, len(s)-1))
		delta := i*m - j*n
		return (s[j-1]*float64(n-delta) + s[j]*float64(delta)) / n
	}
	med := cut(2)
	if med == 0 {
		return 0
	}
	return math.Abs((cut(3) - cut(1)) / med)
}
