package obs

import "slices"

// The event→counter table. Every fact the runtime both emits as an event and
// exports as a Prometheus counter is declared here once, and a component
// records it through one call (Counts.Record) that does the atomic add and
// then emits — so the counter and the event stream cannot drift, and
// counting never needs a sink: a component with no emitter still counts.
// Series that no event field can supply (repaired blocks, skipped ops,
// admitted/queued connections, gauges) stay plain registry instruments.

// counterRow declares the series one event kind feeds.
type counterRow struct {
	name, help string
	// label, when set, is the label key; labelOf reads its value from the
	// event, and labels lists the values, registered in this order. A value
	// outside labels is not counted.
	label   string
	labelOf func(Event) string
	labels  []string
	// bytesName, when set, names a second series summing Event.Bytes.
	bytesName, bytesHelp string
}

var counterTable = map[Kind]counterRow{
	// staging.Pool
	KindFailoverGet: {name: "xlayer_staging_pool_failover_gets_total",
		help: "Shard reads served by a replica because the primary endpoint was unavailable."},
	KindRepair: {name: "xlayer_staging_pool_repairs_total",
		help: "Anti-entropy repair passes run when an endpoint rejoined."},
	KindRepairDelta: {name: "xlayer_staging_pool_delta_repairs_total",
		help:      "Repair passes that diffed the endpoint's advertised content manifest.",
		bytesName: "xlayer_staging_pool_repair_bytes_avoided_total",
		bytesHelp: "Wire bytes delta repair did not re-ship because the endpoint already held them."},
	KindEndpointDown: {name: "xlayer_staging_pool_endpoint_down_total",
		help: "Circuit-breaker openings across pool endpoints."},
	// staging.Server
	KindAdmissionShed: {name: "xlayer_staging_admission_shed_total",
		help:  "Connections refused by admission control, by reason.",
		label: "reason", labelOf: func(ev Event) string { return ev.Reason },
		labels: []string{"max_conns", "backlog_full"}},
	KindQuotaRejected: {name: "xlayer_staging_admission_quota_rejected_total",
		help: "Puts rejected server-side by a tenant byte/block quota."},
	// staging.Client
	KindStagingRetry: {name: "xlayer_staging_client_retries_total",
		help: "Transport retry attempts across all staging operations."},
	KindStagingReconnect: {name: "xlayer_staging_client_reconnects_total",
		help: "Successful staging re-dials after a transport failure."},
	// core.Workflow
	KindStagingDegrade: {name: "xlayer_staging_degraded_steps_total",
		help: "Steps degraded to in-situ after the staging transport exhausted its retry budget."},
	KindResourceResize: {name: "xlayer_staging_resizes_total",
		help: "Staging-pool resizes executed by the resource layer."},
}

// Counts is one component's binding of its table rows: a live counter per
// series, registered in the component's registry when it has one and
// unregistered otherwise, so recording never branches on either.
type Counts struct{ rows []boundRow }

type boundRow struct {
	kind   Kind
	row    counterRow
	series []*Counter // one per label value, or the single unlabelled series
	bytes  *Counter   // nil without a bytes series
}

// NewCounts binds the rows of kinds in reg (nil = live but unregistered). A
// kind without a row is a programming error and panics.
func NewCounts(reg *Registry, kinds ...Kind) *Counts {
	c := &Counts{}
	for _, k := range kinds {
		row, ok := counterTable[k]
		if !ok {
			panic("obs: no counter row for event kind " + string(k))
		}
		b := boundRow{kind: k, row: row}
		if row.label == "" {
			b.series = []*Counter{reg.Counter(row.name, row.help)}
		}
		for _, v := range row.labels {
			b.series = append(b.series, reg.Counter(row.name, row.help, row.label, v))
		}
		if row.bytesName != "" {
			b.bytes = reg.Counter(row.bytesName, row.bytesHelp)
		}
		c.rows = append(c.rows, b)
	}
	return c
}

// Record counts ev against its bound row, then emits it through e. A nil e
// counts without emitting; a kind this component did not bind only emits.
func (c *Counts) Record(e *Emitter, ev Event) {
	for i := range c.rows {
		if b := &c.rows[i]; b.kind == ev.Kind {
			b.count(ev)
			break
		}
	}
	e.Emit(ev)
}

func (b *boundRow) count(ev Event) {
	i := 0
	if b.row.label != "" {
		if i = slices.Index(b.row.labels, b.row.labelOf(ev)); i < 0 {
			return
		}
	}
	b.series[i].Inc()
	if b.bytes != nil {
		b.bytes.Add(float64(ev.Bytes))
	}
}

// Value sums kind's series across label values (0 for an unbound kind).
func (c *Counts) Value(kind Kind) float64 {
	sum := 0.0
	for _, b := range c.rows {
		if b.kind == kind {
			for _, s := range b.series {
				sum += s.Value()
			}
		}
	}
	return sum
}
