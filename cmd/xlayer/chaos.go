package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"

	"crosslayer"
)

// setupChaos is `xlayer chaos`, the deterministic chaos explorer: either a
// seeded sweep (shrinking any violation to a repro file under -out) or a
// single-file replay of a previously shrunk repro. Any violation exits
// nonzero.
func setupChaos(fs *flag.FlagSet) func([]string) error {
	o := crosslayer.ChaosOptions{Log: os.Stderr}
	fs.IntVar(&o.Seeds, "seeds", 25, "seeded fault schedules to explore")
	fs.Int64Var(&o.StartSeed, "start-seed", 0, "first seed of the sweep")
	fs.IntVar(&o.MaxSteps, "steps", 0, "cap on every schedule's step count (0 = the generator's choice)")
	fs.StringVar(&o.OutDir, "out", "", "write shrunk repros into this directory")
	replay := fs.String("replay", "", "replay this shrunk repro file instead of sweeping")
	jsonOut := fs.Bool("json", false, "print the sweep report as JSON")
	return func([]string) error { return runChaos(o, *replay, *jsonOut) }
}

func runChaos(o crosslayer.ChaosOptions, replay string, jsonOut bool) error {
	if replay != "" {
		rr, err := crosslayer.ReplayChaosRepro(replay)
		if err != nil {
			return err
		}
		fmt.Printf("replayed %s: steps=%d servers=%d replicas=%d concurrency=%d faults=%d\n",
			replay, rr.Schedule.Steps, rr.Schedule.Servers, rr.Schedule.Replicas,
			rr.Schedule.Concurrency, rr.Schedule.FaultCount())
		if len(rr.Violations) == 0 {
			fmt.Println("no invariant violations — the repro no longer fires")
			return nil
		}
		for _, v := range rr.Violations {
			fmt.Println(" ", v)
		}
		if rr.DataDir != "" {
			fmt.Printf("  offending staging data dirs preserved under %s\n", rr.DataDir)
		}
		return fmt.Errorf("%d invariant violation(s)", len(rr.Violations))
	}

	rep, err := crosslayer.ExploreChaos(o)
	if err != nil {
		return err
	}
	if jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(rep); err != nil {
			return err
		}
	} else {
		fmt.Printf("chaos: %d schedules, %d replay-checked, %d durability-armed, %d crash-resumed (%d resume-checked), %d restarted (%d recovered), %d degraded steps, %d violating\n",
			rep.Schedules, rep.ReplayChecked, rep.DurabilityChecked, rep.CrashResumes, rep.ResumeChecked,
			rep.Restarts, rep.RecoveredRestarts, rep.DegradedSteps, len(rep.Failures))
		for _, f := range rep.Failures {
			fmt.Printf("  seed %d: %s\n", f.Schedule.Seed, f.Violations[0])
			fmt.Printf("    shrunk to steps=%d servers=%d faults=%d", f.Shrunk.Steps, f.Shrunk.Servers, f.Shrunk.FaultCount())
			if f.ReproPath != "" {
				fmt.Printf(" → %s", f.ReproPath)
			}
			if f.DataPath != "" {
				fmt.Printf(" (data: %s)", f.DataPath)
			}
			fmt.Println()
		}
	}
	if len(rep.Failures) > 0 {
		return fmt.Errorf("%d of %d schedules violated an invariant", len(rep.Failures), rep.Schedules)
	}
	return nil
}
