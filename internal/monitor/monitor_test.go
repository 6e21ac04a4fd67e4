package monitor

import (
	"math"
	"testing"
)

func TestSampleMemoryViews(t *testing.T) {
	s := Sample{
		MemUsedPerRank:  []int64{100, 900, 300},
		MemAvailPerRank: []int64{400, 50, 200},
	}
	if got := s.MaxMemUsed(); got != 900 {
		t.Errorf("MaxMemUsed = %d", got)
	}
	if got := s.MinMemAvail(); got != 50 {
		t.Errorf("MinMemAvail = %d", got)
	}
	empty := Sample{}
	if empty.MaxMemUsed() != 0 || empty.MinMemAvail() != 0 {
		t.Error("empty sample memory views wrong")
	}
}

func TestMonitorRecordAndLast(t *testing.T) {
	m := New(0)
	if _, ok := m.Last(); ok {
		t.Error("Last on empty monitor")
	}
	m.Record(Sample{Step: 0, SimSeconds: 10})
	last, ok := m.Last()
	if !ok || last.Step != 0 {
		t.Errorf("Last = %+v", last)
	}
	m.Record(Sample{Step: 1, SimSeconds: 20})
	last, ok = m.Last()
	if !ok || last.Step != 1 {
		t.Errorf("Last = %+v", last)
	}
}

func TestPredictSimSecondsEWMA(t *testing.T) {
	m := New(0.5)
	if got := m.PredictSimSeconds(7); got != 7 {
		t.Errorf("fallback = %v", got)
	}
	m.Record(Sample{SimSeconds: 10})
	if got := m.PredictSimSeconds(0); got != 10 {
		t.Errorf("first prediction = %v", got)
	}
	m.Record(Sample{SimSeconds: 20})
	if got := m.PredictSimSeconds(0); math.Abs(got-15) > 1e-12 {
		t.Errorf("EWMA = %v, want 15", got)
	}
	// Prediction tracks a level shift.
	for i := 0; i < 20; i++ {
		m.Record(Sample{SimSeconds: 40})
	}
	if got := m.PredictSimSeconds(0); math.Abs(got-40) > 1 {
		t.Errorf("EWMA did not converge: %v", got)
	}
}

func TestNewValidatesAlpha(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("alpha > 1 should panic")
		}
	}()
	New(2)
}
