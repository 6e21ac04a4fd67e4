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

// forEachPatch runs f(w, i) over patches [0,n) with bounded parallelism,
// where w is the index of the worker running patch i; the worker count is
// fixed here, and sc.ghost is grown to it first, so worker w may use
// sc.ghost[w]. Explicit AMR updates are embarrassingly parallel across
// patches: a level advance reads every Patch.Data and writes only its
// worker's ghost scratch and the next buffer of the patch it is on, so this
// is the hot loop of both solvers.
func (sc *scratch) forEachPatch(n int, f func(w, i int)) {
	workers := min(runtime.GOMAXPROCS(0), n)
	for len(sc.ghost) < workers {
		sc.ghost = append(sc.ghost, amr.GhostScratch{})
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			f(0, i)
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
				f(w, i)
			}
		}()
	}
	for i := 0; i < n; i++ {
		next <- i
	}
	close(next)
	wg.Wait()
}

// scratch is a solver's working memory, kept across steps so a step on an
// unchanged hierarchy allocates nothing.
//
// A patch's ghost-extended snapshot lives only while that patch updates,
// and every ghost fill reshapes its scratch to the patch it is given and
// rewrites all of it, so the snapshots are per forEachPatch worker, not per
// patch: ghost[w] serves every patch worker w updates, on every level, and
// a regrid that reshapes the levels leaves their number unchanged.
type scratch struct {
	ghost  []amr.GhostScratch // per forEachPatch worker
	levels []levelScratch
}

// levelScratch holds, per patch index of one level, the buffer the update
// writes. The update never writes Patch.Data in place; once every patch of
// the level is done, swap exchanges each patch's data with its next buffer,
// which thereby holds the level's previous state until the next advance.
// These stay per patch because swap makes them patch data.
//
// No buffer is trusted across a hierarchy change: every use reshapes it to
// the patch it serves (field.Sized), reallocating only when the backing
// array is too small, and rewrites all of it. Entries past the level's
// current patch count idle until a regrid grows the level again.
type levelScratch struct {
	next []*field.BoxData
}

// level returns level li's scratch with an entry for every patch of l.
func (sc *scratch) level(li int, l *amr.Level) *levelScratch {
	for len(sc.levels) <= li {
		sc.levels = append(sc.levels, levelScratch{})
	}
	ls := &sc.levels[li]
	for len(ls.next) < len(l.Patches) {
		ls.next = append(ls.next, nil)
	}
	return ls
}

func (ls *levelScratch) swap(l *amr.Level) {
	for i, p := range l.Patches {
		p.Data, ls.next[i] = ls.next[i], p.Data
	}
}
