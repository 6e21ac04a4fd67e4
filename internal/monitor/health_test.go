package monitor

import (
	"math"
	"testing"
)

// TestStagingHealthFrac pins the endpoint-health fraction: transports that
// do not track endpoints (total 0) read as fully healthy, a degraded pool
// reads as its live share, and a fully dark pool reads as 0 — the value the
// resource layer's allocation cap scales by.
func TestStagingHealthFrac(t *testing.T) {
	cases := []struct {
		healthy, total int
		want           float64
	}{
		{0, 0, 1}, // in-process space / single TCP server
		{3, 3, 1}, // healthy pool
		{2, 3, 2.0 / 3.0},
		{1, 4, 0.25},
		{0, 2, 0},  // every endpoint down
		{5, -1, 1}, // defensive: negative total reads as untracked
	}
	for _, c := range cases {
		s := Sample{StagingHealthyEndpoints: c.healthy, StagingTotalEndpoints: c.total}
		if got := s.StagingHealthFrac(); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("HealthFrac(%d/%d) = %g, want %g", c.healthy, c.total, got, c.want)
		}
	}
}

// TestEndpointHealthSampling records a failover-and-repair health history
// the way the workflow does each step, and checks the per-step samples are
// retrievable and independent — the series the degradation invariants and
// the resource policy both consume.
func TestEndpointHealthSampling(t *testing.T) {
	m := New(0)
	history := []struct{ healthy, total int }{
		{3, 3}, // healthy
		{2, 3}, // one endpoint lost
		{2, 3}, // still down
		{3, 3}, // repaired and rejoined
	}
	for i, h := range history {
		m.Record(Sample{
			Step:                    i,
			StagingHealthyEndpoints: h.healthy,
			StagingTotalEndpoints:   h.total,
		})
		s, ok := m.Last()
		if !ok || s.Step != i || s.StagingHealthyEndpoints != h.healthy || s.StagingTotalEndpoints != h.total {
			t.Errorf("Last after step %d = step %d %d/%d, want %d/%d",
				i, s.Step, s.StagingHealthyEndpoints, s.StagingTotalEndpoints, h.healthy, h.total)
		}
		if degraded := h.healthy < h.total; degraded != (s.StagingHealthFrac() < 1) {
			t.Errorf("step %d samples healthy frac %g with %d of %d endpoints", i, s.StagingHealthFrac(), h.healthy, h.total)
		}
	}
}
