// Package solver implements the two Chombo-distributed AMR applications the
// paper evaluates with: the 3-D Polytropic Gas dynamics solver (Euler
// equations, unsplit Godunov with MUSCL reconstruction and HLL fluxes) and
// the Advection-Diffusion solver (unsplit upwind transport plus explicit
// diffusion). Both advance a shared amr.Hierarchy, tag and regrid around
// moving features, and expose the hooks the workflow runtime monitors:
// per-step data sizes, per-rank memory and the analysis variable.
package solver

import (
	"runtime"
	"sync"

	"crosslayer/internal/amr"
	"crosslayer/internal/field"
)

// Simulation is the contract between an AMR application and the workflow
// runtime. A simulation owns a hierarchy and advances it one time step at a
// time; the runtime samples its state between steps.
type Simulation interface {
	// Name identifies the application (for logs and experiment output).
	Name() string
	// Hierarchy exposes the AMR state the analysis services consume.
	Hierarchy() *amr.Hierarchy
	// Step advances the solution by one time step, regridding on the
	// configured cadence, and returns statistics about the work done.
	Step() StepStats
	// AnalysisComp returns the component index analysis operates on
	// (density for the gas solver, the scalar for advection-diffusion).
	AnalysisComp() int
}

// StepStats summarizes one time step for the Monitor.
type StepStats struct {
	Dt           float64
	CellsUpdated int64 // total cell updates across levels
	FinestLevel  int
}

// forEachPatch runs f over patches [0,n) with bounded parallelism. Explicit
// AMR updates are embarrassingly parallel across patches: a level advance
// reads every Patch.Data and writes only the scratch of the patch it is on
// (levelScratch), so this is the hot loop of both solvers.
func forEachPatch(n int, f func(i int)) {
	workers := runtime.GOMAXPROCS(0)
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			f(i)
		}
		return
	}
	var wg sync.WaitGroup
	next := make(chan int)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				f(i)
			}
		}()
	}
	for i := 0; i < n; i++ {
		next <- i
	}
	close(next)
	wg.Wait()
}

// levelScratch is one level's working memory, kept across steps so a
// step on an unchanged hierarchy allocates nothing: per patch index, the
// ghost-extended snapshot the update reads and the buffer it writes. The
// update never writes Patch.Data in place; once every patch of the level is
// done, swap exchanges each patch's data with its next buffer, which
// thereby holds the level's previous state until the next advance.
//
// No buffer is trusted across a hierarchy change: every use reshapes it to
// the patch it serves (field.Sized, amr.GhostScratch), reallocating only
// when the backing array is too small, and rewrites all of it. Entries past
// the level's current patch count idle until a regrid grows the level again.
type levelScratch struct {
	ghost []amr.GhostScratch
	next  []*field.BoxData
}

// scratch is a solver's working memory, one levelScratch per level.
type scratch []levelScratch

// level returns level li's scratch with an entry for every patch of l.
func (sc *scratch) level(li int, l *amr.Level) *levelScratch {
	for len(*sc) <= li {
		*sc = append(*sc, levelScratch{})
	}
	ls := &(*sc)[li]
	for len(ls.next) < len(l.Patches) {
		ls.ghost = append(ls.ghost, amr.GhostScratch{})
		ls.next = append(ls.next, nil)
	}
	return ls
}

func (ls *levelScratch) swap(l *amr.Level) {
	for i, p := range l.Patches {
		p.Data, ls.next[i] = ls.next[i], p.Data
	}
}
