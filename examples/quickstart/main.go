// Quickstart: schedule a small batch of tasks on a quad-core CPU with
// per-core DVFS and compare the optimal Workload Based Greedy schedule
// against running everything at maximum frequency.
//
// This example uses the high-level core facade: construct a Scheduler
// with functional options, then plan under a context.Context. The
// lower-level packages (batch, envelope, sim) remain available when
// you need their knobs directly.
//
// Run with:
//
//	go run ./examples/quickstart
package main

import (
	"context"
	"fmt"
	"log"

	"dvfsched/internal/core"
	"dvfsched/internal/model"
	"dvfsched/internal/platform"
)

func main() {
	ctx := context.Background()

	// The cost model: Re cents per joule of energy, Rt cents per
	// second a user waits.
	params := model.CostParams{Re: 0.1, Rt: 0.4}

	// The CPU: four identical cores on the paper's Table II
	// frequency/energy ladder.
	rates := platform.TableII()
	plat := platform.Homogeneous(4, rates, platform.Ideal{})

	// Some work: a mix of short and long jobs (lengths in Gcycles).
	tasks := model.TaskSet{
		{ID: 1, Name: "thumbnail", Cycles: 4, Deadline: model.NoDeadline},
		{ID: 2, Name: "transcode", Cycles: 900, Deadline: model.NoDeadline},
		{ID: 3, Name: "lint", Cycles: 30, Deadline: model.NoDeadline},
		{ID: 4, Name: "compile", Cycles: 260, Deadline: model.NoDeadline},
		{ID: 5, Name: "test-suite", Cycles: 420, Deadline: model.NoDeadline},
		{ID: 6, Name: "backup", Cycles: 1500, Deadline: model.NoDeadline},
		{ID: 7, Name: "index", Cycles: 120, Deadline: model.NoDeadline},
		{ID: 8, Name: "report", Cycles: 60, Deadline: model.NoDeadline},
	}

	// A scheduler with the default options: the shared envelope cache
	// and no observability. Add core.WithSink or core.WithMetrics to
	// record events or counters; the schedule is identical.
	sched, err := core.New(params, plat)
	if err != nil {
		log.Fatal(err)
	}

	// Which frequency is best for which queue position? (Algorithm 1)
	env, err := sched.DominatingRanges(0)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("dominating position ranges (backward position -> rate):")
	fmt.Println(" ", env)

	// The optimal schedule across 4 cores (Algorithm 3).
	plan, err := sched.PlanBatch(ctx, tasks)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\noptimal plan:")
	for _, cp := range plan.Cores {
		if len(cp.Sequence) == 0 {
			continue
		}
		fmt.Printf("  core %d:", cp.Core)
		for _, a := range cp.Sequence {
			fmt.Printf("  %s@%.1fGHz", a.Task.Name, a.Level.Rate)
		}
		fmt.Println()
	}

	eCost, tCost, total := plan.Cost()
	joules, makespan, _ := plan.EnergyTime()
	fmt.Printf("\nWBG:      %8.1f J, makespan %6.1f s, cost %.1f cents (energy %.1f + time %.1f)\n",
		joules, makespan, total, eCost, tCost)

	// Compare: everything at maximum frequency, same placement rule —
	// a second scheduler on a rate table restricted to the top level.
	maxOnly, err := rates.Restrict(func(l model.RateLevel) bool {
		return model.ApproxEq(l.Rate, rates.Max().Rate, model.DefaultEps)
	})
	if err != nil {
		log.Fatal(err)
	}
	fastSched, err := core.New(params, platform.Homogeneous(4, maxOnly, platform.Ideal{}))
	if err != nil {
		log.Fatal(err)
	}
	fast, err := fastSched.PlanBatch(ctx, tasks)
	if err != nil {
		log.Fatal(err)
	}
	fe, ft, ftotal := fast.Cost()
	fj, fm, _ := fast.EnergyTime()
	fmt.Printf("all-max:  %8.1f J, makespan %6.1f s, cost %.1f cents (energy %.1f + time %.1f)\n",
		fj, fm, ftotal, fe, ft)
	fmt.Printf("\nWBG saves %.0f%% energy and %.0f%% total cost.\n",
		100*(1-joules/fj), 100*(1-total/ftotal))
}
