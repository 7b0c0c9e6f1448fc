package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"math"
	"os"
	"strings"
	"testing"
	"time"

	"dvfsched/bench/loadgen"
)

// tinyConfig shrinks a workload to about a second.
func tinyConfig(t *testing.T, workload string) config {
	cfg := defaultConfig()
	cfg.workload = workload
	cfg.seed = 7
	cfg.seconds = 1.2
	cfg.trace = true
	cfg.outDir = t.TempDir()
	cfg.warmup = 100 * time.Millisecond
	cfg.setups = 2
	// The tests share two cores with other packages' tests, which the
	// open loop's validity limit does not allow for.
	cfg.maxLagMs = 50
	cfg.judgeScale = 0.01
	cfg.judgeTraces = 2
	cfg.rotate = 300
	cfg.coldTasks = 200
	cfg.migrations = 4
	cfg.planSizes = [3]int{8, 24, 64}
	// Rates the race detector's slower code still keeps up with.
	cfg.smallRate = 1000
	cfg.replRate = 300
	cfg.probeScale = 0.05
	return cfg
}

// benchmarkSpec is the metric list BENCHMARK.json declares.
type benchmarkSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func loadSpec(t *testing.T) benchmarkSpec {
	raw, err := os.ReadFile("../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	return spec
}

// TestWorkloadsSmoke runs every workload traced at tiny scale: each must
// pass its correctness checks, print every metric BENCHMARK.json
// declares as "name value unit", and end with a summary line carrying
// exactly the declared metrics; the spans must nest.
func TestWorkloadsSmoke(t *testing.T) {
	spec := loadSpec(t)
	for _, w := range spec.Workloads {
		t.Run(w.Name, func(t *testing.T) {
			var out bytes.Buffer
			cfg := tinyConfig(t, w.Name)
			rep, err := run(cfg, &out)
			if err != nil {
				t.Fatalf("%v\n%s", err, out.String())
			}
			lines := map[string]string{}
			for _, line := range strings.Split(out.String(), "\n") {
				if f := strings.Fields(line); len(f) >= 3 {
					if _, dup := lines[f[0]]; dup {
						t.Errorf("metric %s printed twice", f[0])
					}
					lines[f[0]] = f[2]
				}
			}
			for _, m := range spec.EndToEnd {
				if unit, ok := lines[m.Name]; !ok || unit != m.Unit {
					t.Errorf("end-to-end metric %s printed with unit %q, want %q", m.Name, unit, m.Unit)
				}
			}
			for _, m := range spec.PerLayer {
				if unit, ok := lines[m.Name]; !ok || unit != m.Unit {
					t.Errorf("per-layer metric %s printed with unit %q, want %q", m.Name, unit, m.Unit)
				}
			}
			for _, traced := range []bool{false, true} {
				want := len(spec.EndToEnd)
				if traced {
					want = len(spec.PerLayer)
				}
				var sum bytes.Buffer
				if err := writeSummary(&sum, rep, traced); err != nil {
					t.Fatal(err)
				}
				var got struct {
					Correct bool                       `json:"correct"`
					Metrics map[string]json.RawMessage `json:"metrics"`
				}
				if err := json.Unmarshal(sum.Bytes(), &got); err != nil {
					t.Fatal(err)
				}
				if !got.Correct || len(got.Metrics) != want {
					t.Errorf("summary (traced=%v): correct=%v with %d metrics, want %d", traced, got.Correct, len(got.Metrics), want)
				}
			}
			if _, err := os.Stat((&bench{cfg: cfg}).spanPath()); err != nil {
				t.Errorf("span file: %v", err)
			}
			checkNesting(t, rep.spans)
			if w.Name == "replicated-submit" {
				checkForwardNesting(t, rep.spans)
			}
		})
	}
}

// checkNesting requires every joined span to lie inside its parent.
func checkNesting(t *testing.T, spans []span) {
	t.Helper()
	joined := 0
	for _, s := range spans {
		if s.Parent == 0 {
			continue
		}
		joined++
		p := spans[s.Parent-1]
		if s.Start < p.Start || s.End > p.End {
			t.Fatalf("span %q [%d,%d] escapes its parent %q [%d,%d]", s.Name, s.Start, s.End, p.Name, p.Start, p.End)
		}
	}
	if joined == 0 {
		t.Fatal("no span was joined to a parent")
	}
}

// checkForwardNesting requires every replicated submit to have a front
// span inside its client span and an owner span inside the front span.
func checkForwardNesting(t *testing.T, spans []span) {
	t.Helper()
	children := map[int][]span{}
	for _, s := range spans {
		if s.Parent > 0 {
			children[s.Parent-1] = append(children[s.Parent-1], s)
		}
	}
	n := 0
	for i, s := range spans {
		if s.node != "client" || s.kind != "submit" {
			continue
		}
		n++
		var front, owner *span
		for _, c := range children[i] {
			if c.node == "n3" {
				c := c
				front = &c
			}
		}
		if front == nil {
			t.Fatalf("submit %d: no front span on n3", s.req)
		}
		for _, c := range children[front.ID-1] {
			if c.node == "n1" {
				c := c
				owner = &c
			}
		}
		if owner == nil {
			t.Fatalf("submit %d: no owner span on n1 under the front span", s.req)
		}
		if front.Start < s.Start || front.End > s.End || owner.Start < front.Start || owner.End > front.End {
			t.Fatalf("submit %d: client [%d,%d] front [%d,%d] owner [%d,%d] do not nest",
				s.req, s.Start, s.End, front.Start, front.End, owner.Start, owner.End)
		}
	}
	if n == 0 {
		t.Fatal("no submit spans")
	}
}

// TestCorruptedOracleFailsRun perturbs the judge oracle's cost by one
// ulp: the run must report itself incorrect.
func TestCorruptedOracleFailsRun(t *testing.T) {
	cfg := tinyConfig(t, "judge-online")
	cfg.trace = false
	cfg.corruptOracle = true
	rep, err := run(cfg, io.Discard)
	if !errors.Is(err, errIncorrect) || rep == nil || rep.correct {
		t.Fatalf("corrupted oracle: report %+v, err %v; want an incorrect run", rep, err)
	}
	var sum bytes.Buffer
	if err := writeSummary(&sum, rep, false); err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(sum.String(), `{"correct":false,`) {
		t.Fatalf("summary %s does not report the failure", sum.String())
	}
}

// TestUnkeptScheduleStillReports holds the open loop to a lag no attempt
// can meet: the run must make every attempt, keep one, and still pass
// its correctness checks, since a slow machine is not a wrong answer.
func TestUnkeptScheduleStillReports(t *testing.T) {
	cfg := tinyConfig(t, "submit-small")
	cfg.trace = false
	cfg.maxLagMs = -1
	rep, err := run(cfg, io.Discard)
	if err != nil || rep == nil || !rep.correct {
		t.Fatalf("report %+v, err %v; want a correct run", rep, err)
	}
	for _, m := range rep.e2e {
		if !(m.value > 0) {
			t.Errorf("%s = %v, want > 0", m.name, m.value)
		}
	}
}

// TestSlotTime splits phases into their 200-ms work and echo slots,
// the last one cut short.
func TestSlotTime(t *testing.T) {
	start := time.Unix(1000, 0)
	for _, c := range []struct {
		seconds    float64
		work, echo time.Duration
	}{
		{1, 600 * time.Millisecond, 400 * time.Millisecond},
		{1.1, 600 * time.Millisecond, 500 * time.Millisecond},
		{0.1, 100 * time.Millisecond, 0},
	} {
		if work, echo := slotTime(newWindow(start, c.seconds)); work != c.work || echo != c.echo {
			t.Errorf("%vs: work %v, echo %v; want %v and %v", c.seconds, work, echo, c.work, c.echo)
		}
	}
}

// TestMetricsReadAgainstEcho reads a 1-s phase: work slots [0,200),
// [400,600) and [800,1000) ms hold submits of 1..4 ms, echo slots hold
// echoes of 0.4..0.6 ms, and points outside the phase must not count.
// 300 tasks in 0.6 s of work slots are 500 tasks/s.
func TestMetricsReadAgainstEcho(t *testing.T) {
	start := time.Unix(1000, 0)
	phase := newWindow(start, 1)
	res := &outcome{primary: "submit", reqPhase: phase, tasksPhase: phase}
	at := func(ms int) time.Time { return start.Add(time.Duration(ms) * time.Millisecond) }
	for _, p := range []struct {
		kind string
		ms   int
		v    float64
	}{
		{"submit", -5, 100}, {"submit", 10, 1}, {"submit", 20, 2}, {"submit", 410, 3}, {"submit", 810, 4}, {"submit", 1000, 100},
		{"echo", 210, 0.4}, {"echo", 610, 0.5}, {"echo", 620, 0.6}, {"echo", 1200, 9},
	} {
		res.rec.add(p.kind, at(p.ms), p.v)
	}
	res.tasks.Add(300)
	b := &bench{setupS: []float64{0.002, 0.001, 0.003}}
	got := map[string]float64{}
	e2e, err := b.endToEnd(res)
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range append(e2e, clientOpMetrics(res)...) {
		got[m.name] = m.value
	}
	for name, want := range map[string]float64{
		"req_p50_over_echo": 2.5 / 0.5,
		"tasks_per_echo":    500 * 0.5e-3,
		"setup_s":           0.002,
		"req_p50_ms":        2.5,
		"echo_p50_ms":       0.5,
		"tasks_per_s":       500,
	} {
		if math.Abs(got[name]-want) > 1e-9*want {
			t.Errorf("%s = %v, want %v", name, got[name], want)
		}
	}
}

// TestOpenValid applies the open loop's validity rule to 1000
// operations: at most 1% unsent, and a lag p99 of at most 1 ms.
func TestOpenValid(t *testing.T) {
	ops := func(late, unsent int) []loadgen.Op {
		out := make([]loadgen.Op, 1000)
		for i := range out {
			due := time.Duration(i) * time.Millisecond
			out[i] = loadgen.Op{Due: due, Sent: due, Done: due + time.Millisecond}
			switch {
			case i < late:
				out[i].Sent += 2 * time.Millisecond
			case i < late+unsent:
				out[i].Sent, out[i].Done = -1, -1
			}
		}
		return out
	}
	for _, c := range []struct {
		late, unsent int
		want         bool
	}{
		{0, 0, true},
		{10, 0, true},  // lag p99 0.02 ms
		{11, 0, false}, // lag p99 2 ms
		{0, 10, true},  // 99% sent
		{0, 11, false},
	} {
		if got := openValid(ops(c.late, c.unsent), 1); got != c.want {
			t.Errorf("%d late, %d unsent: valid %v, want %v", c.late, c.unsent, got, c.want)
		}
	}
	// The attempt kept when none is valid: more sent wins, then less lag.
	if !betterOpen(ops(50, 0), ops(0, 11)) || betterOpen(ops(0, 11), ops(50, 0)) {
		t.Error("betterOpen preferred the attempt that sent less")
	}
	if !betterOpen(ops(10, 0), ops(50, 0)) || betterOpen(ops(50, 0), ops(10, 0)) {
		t.Error("betterOpen preferred the later attempt")
	}
}

func TestParseFlags(t *testing.T) {
	cfg, err := parseFlags([]string{"--workload", "plan-mix", "--seed", "3", "--seconds", "7", "--trace", "1"})
	if err != nil || cfg.workload != "plan-mix" || cfg.seed != 3 || cfg.seconds != 7 || !cfg.trace {
		t.Fatalf("parseFlags: %+v, %v", cfg, err)
	}
	for _, args := range [][]string{
		{"--workload", "nope"},
		{"--workload", "plan-mix", "--trace", "2"},
		{"--workload", "plan-mix", "--seconds", "0"},
	} {
		if _, err := parseFlags(args); err == nil {
			t.Errorf("parseFlags(%q) accepted", args)
		}
	}
}
