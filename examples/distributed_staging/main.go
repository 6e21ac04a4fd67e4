// Distributed staging: the same producer/consumer handoff the paper's
// workflows perform, but across a real network boundary. A staging server
// owns the object space; the "simulation" connects as a TCP client and
// ships density blocks each step; a separate "analysis" client pulls each
// version, computes descriptive statistics, and evicts consumed data —
// exactly the in-transit path, with stdlib TCP standing in for RDMA.
package main

import (
	"fmt"
	"log"
	"sync"

	"crosslayer"
)

const steps = 8

func main() {
	dom := crosslayer.NewBox(crosslayer.IV(0, 0, 0), crosslayer.IV(23, 23, 23))

	// Staging node: one object space behind one TCP endpoint.
	space := crosslayer.NewStagingSpace(1, 0, dom)
	srv, err := crosslayer.ServeStagingOptions("127.0.0.1:0", space, crosslayer.StagingServerOptions{})
	if err != nil {
		log.Fatal(err)
	}
	defer srv.Close()
	fmt.Println("staging server on", srv.Addr())

	var wg sync.WaitGroup
	wg.Add(2)

	// Producer: the AMR simulation ships its density field every step.
	go func() {
		defer wg.Done()
		cl, err := crosslayer.DialStaging(srv.Addr())
		if err != nil {
			log.Fatal(err)
		}
		defer cl.Close()
		sim := crosslayer.NewPolytropicGas(crosslayer.GasConfig{
			AMR: crosslayer.AMRConfig{Domain: dom, MaxLevel: 1, MaxBoxSize: 12, NRanks: 4},
		})
		for v := 0; v < steps; v++ {
			sim.Step()
			h := sim.Hierarchy()
			sent := 0
			for _, l := range h.Levels {
				for _, p := range l.Patches {
					b := crosslayer.NewBoxData(p.Box, 1)
					copy(b.Comp(0), p.Data.Comp(sim.AnalysisComp()))
					if err := cl.Put("rho", v, b); err != nil {
						log.Fatal(err)
					}
					sent++
				}
			}
			// Completion marker: readers must not consume a version until
			// every block has landed; a marker variable put last says so.
			marker := crosslayer.NewBoxData(crosslayer.NewBox(crosslayer.IV(0, 0, 0), crosslayer.IV(0, 0, 0)), 1)
			marker.Set(crosslayer.IV(0, 0, 0), 0, float64(sent))
			if err := cl.Put("rho.done", v, marker); err != nil {
				log.Fatal(err)
			}
			fmt.Printf("[sim]      step %d: shipped %d blocks\n", v, sent)
		}
	}()

	// Consumer: in-transit statistics over each version as it appears.
	go func() {
		defer wg.Done()
		cl, err := crosslayer.DialStaging(srv.Addr())
		if err != nil {
			log.Fatal(err)
		}
		defer cl.Close()
		stats := crosslayer.NewStatisticsService(64)
		for v := 0; v < steps; v++ {
			for { // poll the completion marker
				if _, err := cl.GetBlocks("rho.done", v, crosslayer.NewBox(crosslayer.IV(0, 0, 0), crosslayer.IV(0, 0, 0))); err == nil {
					break
				}
			}
			// Level-1 patches are indexed in the fine (refined) space, so
			// query a region covering both levels' index ranges.
			blocks, err := cl.GetBlocks("rho", v, dom.Refine(2))
			if err != nil {
				log.Fatal(err)
			}
			rep := stats.Analyze(blocks, 0, 1.0/24)
			fmt.Printf("[analysis] step %d: %d blocks, rho in [%.3f, %.3f], mean %.3f, H=%.2f bits\n",
				v, len(blocks), rep.Metrics["min"], rep.Metrics["max"],
				rep.Metrics["mean"], rep.Metrics["entropy"])
			if _, err := cl.DropBefore("rho", v+1); err != nil {
				log.Fatal(err)
			}
			if _, err := cl.DropBefore("rho.done", v+1); err != nil {
				log.Fatal(err)
			}
		}
	}()

	wg.Wait()
	used, _ := func() (int64, error) {
		cl, err := crosslayer.DialStaging(srv.Addr())
		if err != nil {
			return 0, err
		}
		defer cl.Close()
		return cl.MemUsed()
	}()
	fmt.Printf("run complete; staging memory in use after eviction: %d bytes\n", used)
}
