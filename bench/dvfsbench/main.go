// Command dvfsbench is the end-to-end benchmark of the dvfsched
// service. It boots the code under test inside its own process on real
// loopback listeners — a solo server.Server, or a 3-node cluster.Node
// ring — drives it with one seeded workload, checks every answer, and
// prints each metric as "name value unit n=<samples>" followed by one
// JSON summary line:
//
//	dvfsbench -workload judge-online -seed 1 -seconds 20 -trace 0
//
// With -trace 1 the run also records spans around every call into the
// serving layers, times direct calls into internal/core, writes the
// spans to <out-dir>/spans-<workload>-<seed>.json, and the JSON line
// carries the per-layer metrics instead of the end-to-end ones.
// bench/README.md describes the workloads and metrics.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
	"time"
)

// config is one run's parameters. The flags set the first five; the
// rest are the workload sizes, which the tests shrink.
type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	outDir   string

	warmup time.Duration
	// setups is how many times the system under test is booted; setup_s
	// is their median and the last instance serves the load.
	setups int
	// maxLagMs is the open loop's limit on the p99 of its lag: an
	// attempt that sent later than this is invalid.
	maxLagMs float64
	// judgeScale scales the paper's Judgegirl trace (1 = 51k tasks).
	judgeScale float64
	// judgeTraces is the number of distinct judge traces sessions cycle
	// through; the serial oracle replays each once before timing.
	judgeTraces int
	// rotate is the task count after which a submit session is replaced.
	rotate int
	// coldTasks is the history of the session replicated-submit migrates,
	// and migrations how many times it is moved.
	coldTasks, migrations int
	// planSizes are plan-mix's workload sizes, drawn with weights
	// 0.6/0.3/0.1.
	planSizes [3]int
	// smallRate and replRate are the open-loop rates in requests/s.
	smallRate, replRate float64
	// probeScale scales the direct core calls of a traced run.
	probeScale float64
	// corruptOracle perturbs the judge oracle, so the run must fail.
	corruptOracle bool
}

func defaultConfig() config {
	return config{
		seconds:     20,
		outDir:      ".bench_build",
		warmup:      2 * time.Second,
		setups:      101,
		maxLagMs:    1,
		judgeScale:  0.25,
		judgeTraces: 6,
		rotate:      1000,
		coldTasks:   5000,
		migrations:  20,
		planSizes:   [3]int{24, 200, 1000},
		smallRate:   2000,
		replRate:    500,
		probeScale:  1,
	}
}

// workloads maps each -workload name to the function that runs it.
var workloads = map[string]func(*bench) (*outcome, error){
	"judge-online":      runJudge,
	"submit-small":      runSubmitSmall,
	"replicated-submit": runReplicatedSubmit,
	"plan-mix":          runPlanMix,
}

func parseFlags(args []string) (config, error) {
	cfg := defaultConfig()
	fs := flag.NewFlagSet("dvfsbench", flag.ContinueOnError)
	fs.StringVar(&cfg.workload, "workload", "", "workload: "+workloadNames())
	fs.Int64Var(&cfg.seed, "seed", 1, "input seed")
	fs.Float64Var(&cfg.seconds, "seconds", cfg.seconds, "length of the measured phases in seconds")
	traced := fs.Int("trace", 0, "1 records spans and reports the per-layer metrics")
	fs.StringVar(&cfg.outDir, "out-dir", cfg.outDir, "directory for the span file of a traced run")
	if err := fs.Parse(args); err != nil {
		return cfg, err
	}
	if _, ok := workloads[cfg.workload]; !ok {
		return cfg, fmt.Errorf("unknown -workload %q (want %s)", cfg.workload, workloadNames())
	}
	if cfg.seconds <= 0 {
		return cfg, fmt.Errorf("-seconds must be positive, got %v", cfg.seconds)
	}
	if *traced != 0 && *traced != 1 {
		return cfg, fmt.Errorf("-trace must be 0 or 1, got %d", *traced)
	}
	cfg.trace = *traced == 1
	return cfg, nil
}

func workloadNames() string {
	names := make([]string, 0, len(workloads))
	for name := range workloads {
		names = append(names, name)
	}
	sort.Strings(names)
	return strings.Join(names, ", ")
}

func main() {
	cfg, err := parseFlags(os.Args[1:])
	if err != nil {
		fmt.Fprintln(os.Stderr, "dvfsbench:", err)
		os.Exit(2)
	}
	rep, err := run(cfg, os.Stdout)
	if rep != nil {
		if werr := writeSummary(os.Stdout, rep, cfg.trace); werr != nil && err == nil {
			err = werr
		}
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "dvfsbench:", err)
		os.Exit(1)
	}
}

// metric is one reported number.
type metric struct {
	name  string
	value float64
	unit  string
	n     int // samples behind the value; 0 for counts and ratios
}

// report is a finished run: what the summary line prints, plus the
// spans the tests inspect.
type report struct {
	correct           bool
	attempted, failed int64
	e2e, layer        []metric
	spans             []span
}

// errIncorrect marks a run whose answers failed a correctness check, as
// opposed to one that could not run at all.
var errIncorrect = errors.New("incorrect result")

// run executes one workload and prints its metric lines to w. A nil
// report means the run could not produce one; a report with correct
// false comes with an error wrapping errIncorrect.
func run(cfg config, w io.Writer) (*report, error) {
	b := newBench(cfg)
	defer b.close()
	var err error
	if b.echoSrv, err = startEcho(); err != nil {
		return nil, err
	}
	res, err := workloads[cfg.workload](b)
	rep := &report{correct: err == nil, attempted: b.attempted.Load(), failed: b.failed.Load()}
	if err != nil {
		if errors.Is(err, errIncorrect) {
			return rep, err
		}
		return nil, err
	}
	if rep.e2e, err = b.endToEnd(res); err != nil {
		return nil, err
	}
	lines := rep.e2e
	ops := append(clientOpMetrics(res), loadgenMetrics(res)...)
	if cfg.trace {
		if rep.layer, rep.spans, err = b.perLayer(res); err != nil {
			return nil, err
		}
		rep.layer = append(ops, rep.layer...)
		lines = append(lines, rep.layer...)
	} else {
		for _, m := range ops {
			if m.n > 0 {
				lines = append(lines, m)
			}
		}
	}
	for _, m := range lines {
		if m.n > 0 {
			fmt.Fprintf(w, "%s %.6g %s n=%d\n", m.name, m.value, m.unit, m.n)
		} else {
			fmt.Fprintf(w, "%s %.6g %s\n", m.name, m.value, m.unit)
		}
	}
	fmt.Fprintf(w, "error_rate %.6g ratio n=%d\n", float64(rep.failed)/float64(max(rep.attempted, 1)), rep.attempted)
	return rep, nil
}

// writeSummary prints the final JSON line: the end-to-end metrics, or
// the per-layer ones for a traced run.
func writeSummary(w io.Writer, rep *report, traced bool) error {
	set := rep.e2e
	if traced {
		set = rep.layer
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := map[string]value{}
	for _, m := range set {
		metrics[m.name] = value{m.value, m.unit}
	}
	attempted := rep.attempted
	if attempted < 1 {
		attempted = 1
	}
	out, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int64            `json:"attempted"`
		Failed    int64            `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{rep.correct, attempted, rep.failed, metrics})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", out)
	return err
}
