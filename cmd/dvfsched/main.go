// Command dvfsched computes an optimal batch schedule (Workload Based
// Greedy) for a task trace and prints the per-core execution plan with
// its predicted energy, time, and monetary cost.
//
// Usage:
//
//	dvfsched [-trace tasks.jsonl] [-cores 4] [-platform table2|i7|exynos]
//	         [-re 0.1] [-rt 0.4] [-spec]
//	         [-trace-out events.jsonl] [-metrics-out metrics.json]
//
// With -spec the paper's 24 SPEC CPU2006 workloads are scheduled
// instead of reading a trace (default when no trace is given). The
// trace format is JSON Lines; see internal/trace.
//
// -trace-out and -metrics-out execute the computed plan on the
// simulator and dump the run's event stream (JSONL) and metrics
// snapshot (JSON); the report package replays the event stream into
// Gantt/CSV artifacts.
package main

import (
	"flag"
	"fmt"
	"io"
	"log"
	"os"

	"dvfsched/internal/batch"
	"dvfsched/internal/envelope"
	"dvfsched/internal/model"
	"dvfsched/internal/obs"
	"dvfsched/internal/platform"
	"dvfsched/internal/sim"
	"dvfsched/internal/trace"
	"dvfsched/internal/workload"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("dvfsched: ")
	if err := run(os.Args[1:], os.Stdout); err != nil {
		log.Fatal(err)
	}
}

func run(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("dvfsched", flag.ContinueOnError)
	var (
		traceFile = fs.String("trace", "", "JSONL task trace to schedule (default: the paper's SPEC workloads)")
		cores     = fs.Int("cores", 4, "number of cores")
		platName  = fs.String("platform", "table2", "rate table: table2, i7, or exynos")
		re        = fs.Float64("re", 0.1, "Re, cents per joule")
		rt        = fs.Float64("rt", 0.4, "Rt, cents per second of waiting")
		spec      = fs.Bool("spec", false, "schedule the paper's SPEC workloads")
		asJSON    = fs.Bool("json", false, "emit the plan as self-contained JSON instead of text")
		ranges    = fs.Bool("ranges", false, "print the platform's dominating position ranges and exit")

		traceOut   = fs.String("trace-out", "", "simulate the plan and write its event stream as JSONL")
		metricsOut = fs.String("metrics-out", "", "simulate the plan and write its metrics snapshot as JSON")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	rates, err := platform.RateTableByName(*platName)
	if err != nil {
		return err
	}
	params := model.CostParams{Re: *re, Rt: *rt}
	if err := params.Validate(); err != nil {
		return err
	}
	if *ranges {
		env, err := envelope.Compute(params, rates)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "dominating position ranges for %s at Re=%v, Rt=%v:\n  %s\n",
			*platName, *re, *rt, env)
		return nil
	}
	if *cores <= 0 {
		return fmt.Errorf("need at least one core, got %d", *cores)
	}

	var tasks model.TaskSet
	switch {
	case *traceFile != "" && *spec:
		return fmt.Errorf("choose either -trace or -spec, not both")
	case *traceFile != "":
		f, err := os.Open(*traceFile)
		if err != nil {
			return err
		}
		tasks, err = trace.Read(f)
		f.Close()
		if err != nil {
			return err
		}
	default:
		tasks = workload.SPECTasks()
	}
	for _, t := range tasks {
		if t.Interactive || t.Arrival != 0 {
			return fmt.Errorf("task %d is not a batch task (use onlinesim for online traces)", t.ID)
		}
	}

	plan, err := batch.WBG(params, batch.HomogeneousCores(*cores, rates), tasks)
	if err != nil {
		return err
	}
	if *traceOut != "" || *metricsOut != "" {
		if err := simulatePlan(plan, rates, *cores, tasks, params, *traceOut, *metricsOut); err != nil {
			return err
		}
	}
	if *asJSON {
		return plan.WriteJSON(w)
	}
	printPlan(w, plan)
	return nil
}

// simulatePlan executes the WBG plan on the ideal simulator and dumps
// the observability artifacts the flags requested.
func simulatePlan(plan *batch.Plan, rates *model.RateTable, cores int, tasks model.TaskSet, params model.CostParams, traceOut, metricsOut string) error {
	fp, err := sim.NewFixedPlan(plan)
	if err != nil {
		return err
	}
	reg := obs.NewRegistry()
	var sink obs.Sink = obs.NewMetricsSink(reg)
	var jsonl *obs.JSONLWriter
	if traceOut != "" {
		f, err := os.Create(traceOut)
		if err != nil {
			return err
		}
		defer f.Close()
		jsonl = obs.NewJSONLWriter(f)
		sink = obs.Multi(jsonl, sink)
	}
	plat := platform.Homogeneous(cores, rates, platform.Ideal{})
	if _, err := sim.Run(sim.Config{Platform: plat, Policy: fp, Sink: sink}, tasks, params); err != nil {
		return err
	}
	if jsonl != nil {
		if err := jsonl.Close(); err != nil {
			return fmt.Errorf("writing %s: %w", traceOut, err)
		}
	}
	if metricsOut != "" {
		f, err := os.Create(metricsOut)
		if err != nil {
			return err
		}
		werr := reg.WriteJSON(f)
		if cerr := f.Close(); werr == nil {
			werr = cerr
		}
		if werr != nil {
			return fmt.Errorf("writing %s: %w", metricsOut, werr)
		}
	}
	return nil
}

func printPlan(w io.Writer, plan *batch.Plan) {
	for _, cp := range plan.Cores {
		fmt.Fprintf(w, "core %d (%d tasks):\n", cp.Core, len(cp.Sequence))
		elapsed := 0.0
		for i, a := range cp.Sequence {
			dur := model.TaskTime(a.Task.Cycles, a.Level)
			name := a.Task.Name
			if name == "" {
				name = fmt.Sprintf("task-%d", a.Task.ID)
			}
			fmt.Fprintf(w, "  %2d. %-18s %10.2f Gcyc @ %.2f GHz  start %9.1fs  end %9.1fs  %8.1f J\n",
				i+1, name, a.Task.Cycles, a.Level.Rate, elapsed, elapsed+dur,
				model.TaskEnergy(a.Task.Cycles, a.Level))
			elapsed += dur
		}
	}
	eCost, tCost, total := plan.Cost()
	joules, makespan, turnaround := plan.EnergyTime()
	fmt.Fprintf(w, "\npredicted: energy %.1f J, makespan %.1f s, turnaround sum %.1f s\n", joules, makespan, turnaround)
	fmt.Fprintf(w, "cost: energy %.2f + time %.2f = %.2f cents\n", eCost, tCost, total)
}
