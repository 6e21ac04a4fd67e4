package obs

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Metrics: a small lock-cheap registry in the Prometheus data model.
// Registration takes the registry lock once; every update afterwards is a
// few atomic operations, so instruments can sit on hot paths (the staging
// server's per-request counters, the workflow's per-step histograms) and be
// scraped concurrently by the -metrics-addr HTTP endpoint without pausing
// the run.

// Counter is a monotonically increasing float64.
type Counter struct{ bits atomic.Uint64 }

// Inc adds 1.
func (c *Counter) Inc() { c.Add(1) }

// Add adds v (negative deltas are ignored; counters only go up).
func (c *Counter) Add(v float64) {
	if v < 0 {
		return
	}
	atomicAddFloat(&c.bits, v)
}

// Retract takes back v that was counted ahead of the event it tallies — the
// unwritten tail of a write counted before the write came up short.
func (c *Counter) Retract(v float64) {
	if v > 0 {
		atomicAddFloat(&c.bits, -v)
	}
}

// Value returns the current count.
func (c *Counter) Value() float64 { return math.Float64frombits(c.bits.Load()) }

// Gauge is a float64 that can go up and down.
type Gauge struct{ bits atomic.Uint64 }

// Set replaces the value.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Add adjusts the value by v.
func (g *Gauge) Add(v float64) { atomicAddFloat(&g.bits, v) }

// Value returns the current value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// atomicAddFloat adds v to a float64 stored as uint64 bits with a CAS loop.
func atomicAddFloat(bits *atomic.Uint64, v float64) {
	for {
		old := bits.Load()
		neu := math.Float64bits(math.Float64frombits(old) + v)
		if bits.CompareAndSwap(old, neu) {
			return
		}
	}
}

// Histogram counts observations in explicit cumulative-style buckets.
type Histogram struct {
	bounds  []float64 // sorted upper bounds; an implicit +Inf bucket follows
	counts  []atomic.Uint64
	sumBits atomic.Uint64
	count   atomic.Uint64
}

// Observe records v.
func (h *Histogram) Observe(v float64) {
	// Buckets are few (≤ ~15); linear scan beats binary search in practice.
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	h.counts[i].Add(1)
	h.count.Add(1)
	atomicAddFloat(&h.sumBits, v)
}

// Count returns the total number of observations.
func (h *Histogram) Count() uint64 { return h.count.Load() }

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sumBits.Load()) }

// DefBuckets is the default seconds histogram (covers the model-scale step
// costs from milliseconds to minutes).
var DefBuckets = []float64{0.005, 0.025, 0.1, 0.5, 1, 2.5, 5, 10, 30, 60, 120, 300}

// BytesBuckets is the default bucket layout for per-step byte volumes.
var BytesBuckets = []float64{1 << 20, 1 << 23, 1 << 26, 1 << 28, 1 << 30, 1 << 32, 1 << 34, 1 << 37}

// metricType distinguishes exposition formats.
type metricType int

const (
	typeCounter metricType = iota
	typeGauge
	typeHistogram
)

// metric is one registered instrument with its rendered label set.
type metric struct {
	labels string // `{k="v",...}` or ""
	c      *Counter
	g      *Gauge
	h      *Histogram
}

// family groups same-name metrics for HELP/TYPE lines.
type family struct {
	name    string
	help    string
	typ     metricType
	metrics []*metric
	byLabel map[string]*metric
}

// Registry holds instruments and renders them in the Prometheus text
// exposition format. Instrument getters are get-or-create and idempotent,
// so independent subsystems can share a registry without coordination.
type Registry struct {
	mu   sync.Mutex
	fams map[string]*family
}

// NewRegistry builds an empty registry.
func NewRegistry() *Registry { return &Registry{fams: make(map[string]*family)} }

// Counter returns the counter registered under name and label pairs
// (k1, v1, k2, v2, …), creating it on first use. A nil registry returns a
// live but unregistered instrument, so callers never branch.
func (r *Registry) Counter(name, help string, labelPairs ...string) *Counter {
	if r == nil {
		return &Counter{}
	}
	m := r.metric(name, help, typeCounter, labelPairs)
	return m.c
}

// Gauge returns the gauge registered under name and label pairs, creating
// it on first use.
func (r *Registry) Gauge(name, help string, labelPairs ...string) *Gauge {
	if r == nil {
		return &Gauge{}
	}
	m := r.metric(name, help, typeGauge, labelPairs)
	return m.g
}

// Histogram returns the histogram registered under name with the given
// explicit bucket upper bounds (nil = DefBuckets), creating it on first
// use. Buckets are fixed by the first registration.
func (r *Registry) Histogram(name, help string, buckets []float64, labelPairs ...string) *Histogram {
	if r == nil {
		buckets = normBuckets(buckets)
		h := &Histogram{bounds: buckets}
		h.counts = make([]atomic.Uint64, len(buckets)+1)
		return h
	}
	m := r.metricWith(name, help, typeHistogram, labelPairs, func() *metric {
		b := normBuckets(buckets)
		h := &Histogram{bounds: b}
		h.counts = make([]atomic.Uint64, len(b)+1)
		return &metric{h: h}
	})
	return m.h
}

func normBuckets(b []float64) []float64 {
	if len(b) == 0 {
		b = DefBuckets
	}
	out := append([]float64(nil), b...)
	sort.Float64s(out)
	return out
}

func (r *Registry) metric(name, help string, typ metricType, labelPairs []string) *metric {
	return r.metricWith(name, help, typ, labelPairs, func() *metric {
		switch typ {
		case typeCounter:
			return &metric{c: &Counter{}}
		default:
			return &metric{g: &Gauge{}}
		}
	})
}

func (r *Registry) metricWith(name, help string, typ metricType, labelPairs []string, mk func() *metric) *metric {
	labels := renderLabels(labelPairs)
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.fams[name]
	if f == nil {
		f = &family{name: name, help: help, typ: typ, byLabel: make(map[string]*metric)}
		r.fams[name] = f
	}
	if f.typ != typ {
		panic(fmt.Sprintf("obs: metric %q re-registered with a different type", name))
	}
	if m := f.byLabel[labels]; m != nil {
		return m
	}
	m := mk()
	m.labels = labels
	f.metrics = append(f.metrics, m)
	f.byLabel[labels] = m
	return m
}

// renderLabels turns (k1,v1,k2,v2,…) into a canonical `{k="v",…}` string
// (pairs sorted by key). An odd trailing key is dropped.
func renderLabels(pairs []string) string {
	n := len(pairs) / 2
	if n == 0 {
		return ""
	}
	type kv struct{ k, v string }
	kvs := make([]kv, 0, n)
	for i := 0; i+1 < len(pairs); i += 2 {
		kvs = append(kvs, kv{pairs[i], pairs[i+1]})
	}
	sort.Slice(kvs, func(i, j int) bool { return kvs[i].k < kvs[j].k })
	var b strings.Builder
	b.WriteByte('{')
	for i, p := range kvs {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(p.k)
		b.WriteString(`="`)
		b.WriteString(escapeLabel(p.v))
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

func escapeLabel(v string) string {
	v = strings.ReplaceAll(v, `\`, `\\`)
	v = strings.ReplaceAll(v, "\n", `\n`)
	return strings.ReplaceAll(v, `"`, `\"`)
}

// mergeLabels splices extra pairs (e.g. le="...") into a rendered label
// string.
func mergeLabels(labels, extra string) string {
	if labels == "" {
		return "{" + extra + "}"
	}
	return labels[:len(labels)-1] + "," + extra + "}"
}

// WritePrometheus renders every registered instrument in the Prometheus
// text exposition format (version 0.0.4), families sorted by name.
func (r *Registry) WritePrometheus(w io.Writer) error {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	names := make([]string, 0, len(r.fams))
	for n := range r.fams {
		names = append(names, n)
	}
	sort.Strings(names)
	fams := make([]*family, len(names))
	for i, n := range names {
		fams[i] = r.fams[n]
	}
	r.mu.Unlock()

	var b strings.Builder
	for _, f := range fams {
		if f.help != "" {
			fmt.Fprintf(&b, "# HELP %s %s\n", f.name, strings.ReplaceAll(f.help, "\n", " "))
		}
		fmt.Fprintf(&b, "# TYPE %s %s\n", f.name, typeName(f.typ))
		for _, m := range f.metrics {
			switch f.typ {
			case typeCounter:
				fmt.Fprintf(&b, "%s%s %s\n", f.name, m.labels, formatValue(m.c.Value()))
			case typeGauge:
				fmt.Fprintf(&b, "%s%s %s\n", f.name, m.labels, formatValue(m.g.Value()))
			case typeHistogram:
				var cum uint64
				for i, bound := range m.h.bounds {
					cum += m.h.counts[i].Load()
					le := mergeLabels(m.labels, fmt.Sprintf(`le="%s"`, formatValue(bound)))
					fmt.Fprintf(&b, "%s_bucket%s %d\n", f.name, le, cum)
				}
				cum += m.h.counts[len(m.h.bounds)].Load()
				le := mergeLabels(m.labels, `le="+Inf"`)
				fmt.Fprintf(&b, "%s_bucket%s %d\n", f.name, le, cum)
				fmt.Fprintf(&b, "%s_sum%s %s\n", f.name, m.labels, formatValue(m.h.Sum()))
				fmt.Fprintf(&b, "%s_count%s %d\n", f.name, m.labels, m.h.Count())
			}
		}
	}
	_, err := io.WriteString(w, b.String())
	return err
}

func typeName(t metricType) string {
	switch t {
	case typeCounter:
		return "counter"
	case typeGauge:
		return "gauge"
	default:
		return "histogram"
	}
}

func formatValue(v float64) string {
	switch {
	case math.IsInf(v, 1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	}
	return strings.TrimSuffix(fmt.Sprintf("%g", v), ".0")
}
