package core

import (
	"crosslayer/internal/field"
	"crosslayer/internal/grid"
	"crosslayer/internal/obs/span"
	"crosslayer/internal/staging"
)

// StagingStore is where in-transit data physically goes. The in-process
// staging.Space is the default; a staging.Client over TCP plugs in the same
// way (Config.Staging), giving the workflow a real, failure-prone transport.
// Unlike the in-process space, a remote store's operations can fail with
// staging.ErrStagingUnavailable — the signal the middleware layer turns
// into graceful in-situ degradation.
type StagingStore interface {
	Put(varName string, version int, d *field.BoxData) error
	GetBlocks(varName string, version int, region grid.Box) ([]*field.BoxData, error)
	DropBefore(varName string, version int) (int64, error)
}

// transportStats is the optional observability face of a StagingStore:
// stores backed by a retrying transport report cumulative retry/reconnect
// counters, which the workflow snapshots into per-step trace records.
type transportStats interface {
	TransportStats() (retries, reconnects int64)
}

// transportStatsOf reads the store's counters when it has any.
func transportStatsOf(store StagingStore) (retries, reconnects int64) {
	if ts, ok := store.(transportStats); ok {
		return ts.TransportStats()
	}
	return 0, 0
}

// replicated is the contract of a replicated staging store — a
// staging.Pool handle, or a store wrapping one — which buildWorkflow
// asserts once. The workflow scales the monitored staging capacity by the
// pool's healthy-endpoint fraction, so the resource and middleware layers
// adapt to lost servers; parents pool-op spans under the phase span it
// installs; flushes the events and spans a concurrent pool buffers, in
// deterministic order, at each step barrier; and journals the pool's content
// manifest at every barrier, re-arming and auditing it on resume. Stores
// without it (the in-process space, a single client) track no endpoints,
// buffer nothing, and checkpoint an empty manifest.
type replicated interface {
	StagingStore
	HealthyEndpoints() (healthy, total int)
	SetSpanScope(span.Ctx)
	DrainEvents()
	DrainSpans()
	Manifest() staging.Manifest
	RestoreManifest(staging.Manifest)
	Audit(m staging.Manifest) (missing int)
}

// setSpanScope points a replicated store's op spans at c.
func (w *Workflow) setSpanScope(c span.Ctx) {
	if w.pooled != nil {
		w.pooled.SetSpanScope(c)
	}
}
