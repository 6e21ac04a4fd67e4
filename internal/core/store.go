package core

import (
	"crosslayer/internal/field"
	"crosslayer/internal/grid"
	"crosslayer/internal/obs/span"
	"crosslayer/internal/staging"
)

// StagingStore is where in-transit data physically goes. The in-process
// staging.Space is the default; a staging.Pool over TCP servers plugs in the
// same way (Config.Staging), giving the workflow a real, failure-prone
// transport. Unlike the in-process space, a pool's operations can fail with
// staging.ErrStagingUnavailable — the signal the middleware layer turns
// into graceful in-situ degradation.
type StagingStore interface {
	Put(varName string, version int, d *field.BoxData) error
	GetBlocks(varName string, version int, region grid.Box) ([]*field.BoxData, error)
	DropBefore(varName string, version int) (int64, error)
}

// replicated is the contract of a remote staging store — a staging.Pool
// handle, or a store wrapping one — which buildWorkflow asserts once. The
// workflow scales the monitored staging capacity by the pool's
// healthy-endpoint fraction, so the resource and middleware layers adapt to
// lost servers; snapshots its cumulative retry/reconnect counts into
// per-step trace records; parents pool-op spans under the phase span it
// installs; flushes the events and spans a concurrent pool buffers, in
// deterministic order, at each step barrier; and journals the pool's content
// manifest at every barrier, re-arming and auditing it on resume. The
// in-process space has none of this: it tracks no endpoints, counts no
// retries, buffers nothing, and checkpoints an empty manifest.
type replicated interface {
	StagingStore
	HealthyEndpoints() (healthy, total int)
	TransportStats() (retries, reconnects int64)
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
