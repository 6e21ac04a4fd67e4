package sysmodel

import (
	"math"
	"testing"
	"testing/quick"
)

func TestMachinePresets(t *testing.T) {
	in, ti := Intrepid(), Titan()
	if in.MemPerCore() != 512<<20 {
		t.Errorf("Intrepid mem/core = %d, want 512MiB (the paper's \"500MB per core\")", in.MemPerCore())
	}
	if in.CoresPerNode != 4 || ti.CoresPerNode != 16 {
		t.Error("cores per node wrong")
	}
	if ti.SimCellRate <= in.SimCellRate {
		t.Error("Titan should be faster than Intrepid per core")
	}
}

func TestCostScalesInverselyWithCores(t *testing.T) {
	m := Titan()
	if got, want := m.SimTime(1e6, 2000), m.SimTime(1e6, 1000)/2; math.Abs(got-want) > 1e-12 {
		t.Errorf("SimTime does not halve with double cores: %v vs %v", got, want)
	}
	if m.AnalysisTime(1e6, 100) >= m.SimTime(1e6, 100) {
		t.Error("analysis per cell should be cheaper than simulation per cell")
	}
	if m.ReduceTime(1e6, 100) >= m.AnalysisTime(1e6, 100) {
		t.Error("reduction should be cheaper than analysis")
	}
}

func TestTransferTime(t *testing.T) {
	m := Titan()
	small := m.TransferTime(1, 1)
	if small < m.NetLatency {
		t.Error("latency floor missing")
	}
	big := m.TransferTime(1<<30, 1)
	if big <= small {
		t.Error("transfer time not increasing with size")
	}
	if got := m.TransferTime(1<<30, 4); got >= big {
		t.Error("more links should be faster")
	}
	if got := m.TransferTime(100, 0); got != m.TransferTime(100, 1) {
		t.Error("nlinks<1 should clamp to 1")
	}
}

func TestImbalanceFactor(t *testing.T) {
	if got := ImbalanceFactor([]int64{10, 10, 10, 10}); got != 1 {
		t.Errorf("balanced factor = %v", got)
	}
	if got := ImbalanceFactor([]int64{40, 0, 0, 0}); got != 4 {
		t.Errorf("concentrated factor = %v", got)
	}
	if got := ImbalanceFactor(nil); got != 1 {
		t.Errorf("empty factor = %v", got)
	}
	if got := ImbalanceFactor([]int64{0, 0}); got != 1 {
		t.Errorf("all-zero factor = %v", got)
	}
	// factor >= 1 always
	f := func(loads []uint16) bool {
		ls := make([]int64, len(loads))
		for i, v := range loads {
			ls[i] = int64(v)
		}
		return ImbalanceFactor(ls) >= 1-1e-12
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestTimelineFIFO(t *testing.T) {
	tl := &Timeline{}
	s1, e1 := tl.Schedule(0, 10)
	if s1 != 0 || e1 != 10 {
		t.Fatalf("first job %v-%v", s1, e1)
	}
	// A job submitted earlier than the busy horizon queues behind it.
	s2, e2 := tl.Schedule(5, 3)
	if s2 != 10 || e2 != 13 {
		t.Errorf("second job %v-%v, want 10-13", s2, e2)
	}
	// A job after an idle gap starts at its earliest time.
	s3, _ := tl.Schedule(20, 1)
	if s3 != 20 {
		t.Errorf("third job starts %v, want 20", s3)
	}
	if tl.BusyTotal() != 14 {
		t.Errorf("BusyTotal = %v", tl.BusyTotal())
	}
}

func TestTimelineRemainingAt(t *testing.T) {
	tl := &Timeline{}
	tl.Schedule(0, 10)
	if got := tl.RemainingAt(4); got != 6 {
		t.Errorf("RemainingAt(4) = %v", got)
	}
	if got := tl.RemainingAt(15); got != 0 {
		t.Errorf("RemainingAt(15) = %v", got)
	}
}

func TestTimelineNegativeDurationPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("negative duration should panic")
		}
	}()
	new(Timeline).Schedule(0, -1)
}

func TestStagingPoolGangScheduling(t *testing.T) {
	p := NewStagingPool(4)
	_, end := p.RunJob(0, 40) // 40 core-seconds on 4 cores = 10s
	if end != 10 {
		t.Errorf("gang job end = %v, want 10", end)
	}
	p.Resize(8)
	_, end = p.RunJob(10, 40) // now 5s
	if end != 15 {
		t.Errorf("after resize end = %v, want 15", end)
	}
	if p.Cores() != 8 {
		t.Errorf("Cores = %d", p.Cores())
	}
}

func TestStagingPoolUtilization(t *testing.T) {
	p := NewStagingPool(4)
	p.RunJob(0, 20)   // 5s busy on 4 cores = 20 core-seconds
	p.AccountSpan(10) // existed for 10s at 4 cores = 40 core-seconds
	if got := p.Utilization(); math.Abs(got-0.5) > 1e-12 {
		t.Errorf("Utilization = %v, want 0.5", got)
	}
}

func TestStagingPoolUtilizationClamp(t *testing.T) {
	p := NewStagingPool(2)
	if got := p.Utilization(); got != 1 {
		t.Errorf("fresh pool utilization = %v", got)
	}
	p.RunJob(0, 100)
	p.AccountSpan(1) // undersized span
	if got := p.Utilization(); got > 1 {
		t.Errorf("utilization exceeded 1: %v", got)
	}
	p.AccountSpan(-5) // ignored
}

func TestStagingPoolValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("zero-core pool should panic")
		}
	}()
	NewStagingPool(0)
}

func TestEnergyModel(t *testing.T) {
	m := Titan()
	if got := m.Energy(100, 10); got != m.WattsPerCore*1000 {
		t.Errorf("Energy = %v", got)
	}
	if Intrepid().WattsPerCore >= Titan().WattsPerCore {
		t.Error("BG/P should draw less per core than XK7")
	}
}

func TestStagingPoolCoreSecondsTotal(t *testing.T) {
	p := NewStagingPool(8)
	p.AccountSpan(2)
	p.Resize(4)
	p.AccountSpan(3)
	if got := p.CoreSecondsTotal(); got != 8*2+4*3 {
		t.Errorf("CoreSecondsTotal = %v", got)
	}
}
