package solver

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"runtime"
	"testing"

	"crosslayer/internal/amr"
	"crosslayer/internal/grid"
)

// State checksums of the two xbench solver configurations, pinned with the
// closure-based kernels after Reflux's face order was fixed. Kernel changes
// must leave them untouched: they are the bit-for-bit contract.
const (
	gasStateSum     uint64 = 0x721bc3129c5a162a
	advDiffStateSum uint64 = 0xeb3a244d20413582
)

// xbenchGas is the coupled-gas-mem solver: 24³, one refinement level,
// 12-cell patches on 8 ranks, refluxing on.
func xbenchGas() Simulation {
	return NewPolytropicGas(GasConfig{
		AMR:    amr.Config{Domain: cube(24), MaxLevel: 1, MaxBoxSize: 12, NRanks: 8},
		Reflux: true,
	})
}

// xbenchAdvDiff is the coupled-advdiff-durable solver: 32³ periodic,
// 16-cell patches on 8 ranks.
func xbenchAdvDiff() Simulation {
	return NewAdvectionDiffusion(AdvDiffConfig{
		AMR: amr.Config{Domain: cube(32), MaxLevel: 1, MaxBoxSize: 16, NRanks: 8, Periodic: true},
	})
}

func cube(edge int) grid.Box {
	return grid.NewBox(grid.IV(0, 0, 0), grid.IV(edge-1, edge-1, edge-1))
}

// stateSum is FNV-1a over every level's patch boxes and float bits, in
// level, patch, component, row-major order.
func stateSum(h *amr.Hierarchy) uint64 {
	sum := fnv.New64a()
	var b [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(b[:], v)
		sum.Write(b[:])
	}
	for _, l := range h.Levels {
		for _, p := range l.Patches {
			for _, v := range []int{p.Box.Lo.X, p.Box.Lo.Y, p.Box.Lo.Z, p.Box.Hi.X, p.Box.Hi.Y, p.Box.Hi.Z} {
				put(uint64(int64(v)))
			}
			for c := 0; c < p.Data.NComp; c++ {
				for _, v := range p.Data.Comp(c) {
					put(math.Float64bits(v))
				}
			}
		}
	}
	return sum.Sum64()
}

func runSum(mk func() Simulation, steps int) uint64 {
	s := mk()
	for i := 0; i < steps; i++ {
		s.Step()
	}
	return stateSum(s.Hierarchy())
}

// checkReproducible runs the configuration twice at the host's GOMAXPROCS
// and once at 1: the state must not depend on the run or on how
// forEachPatch schedules patches, and must equal the pinned value.
func checkReproducible(t *testing.T, mk func() Simulation, steps int, want uint64) {
	t.Helper()
	first := runSum(mk, steps)
	if again := runSum(mk, steps); again != first {
		t.Errorf("two runs differ: %#x vs %#x", first, again)
	}
	prev := runtime.GOMAXPROCS(1)
	serial := runSum(mk, steps)
	runtime.GOMAXPROCS(prev)
	if serial != first {
		t.Errorf("GOMAXPROCS=1 gives %#x, GOMAXPROCS=%d gives %#x", serial, prev, first)
	}
	if first != want {
		t.Errorf("state checksum %#x, pinned %#x", first, want)
	}
}

func TestGasStateReproducible(t *testing.T) {
	checkReproducible(t, xbenchGas, 32, gasStateSum)
}

func TestAdvDiffStateReproducible(t *testing.T) {
	checkReproducible(t, xbenchAdvDiff, 40, advDiffStateSum)
}
