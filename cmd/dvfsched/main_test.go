package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"dvfsched/internal/batch"
	"dvfsched/internal/model"
	"dvfsched/internal/obs"
	"dvfsched/internal/report"
	"dvfsched/internal/trace"
)

func TestRunSpecDefault(t *testing.T) {
	var out bytes.Buffer
	if err := run(nil, &out); err != nil {
		t.Fatal(err)
	}
	s := out.String()
	for _, want := range []string{"core 0", "core 3", "h264ref/ref", "predicted:", "cost:"} {
		if !strings.Contains(s, want) {
			t.Errorf("output missing %q", want)
		}
	}
}

func TestRunWithTraceFile(t *testing.T) {
	tasks := model.TaskSet{
		{ID: 1, Name: "x", Cycles: 5, Deadline: model.NoDeadline},
		{ID: 2, Name: "y", Cycles: 50, Deadline: model.NoDeadline},
	}
	path := filepath.Join(t.TempDir(), "batch.jsonl")
	var buf bytes.Buffer
	if err := trace.Write(&buf, tasks); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if err := run([]string{"-trace", path, "-cores", "2", "-platform", "i7"}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "x") || !strings.Contains(out.String(), "y") {
		t.Errorf("trace task names missing:\n%s", out.String())
	}
}

func TestRunErrors(t *testing.T) {
	cases := [][]string{
		{"-platform", "nope"},
		{"-re", "0"},
		{"-cores", "0"},
		{"-trace", "/does/not/exist.jsonl"},
		{"-trace", "x", "-spec"},
	}
	for _, args := range cases {
		if err := run(args, &bytes.Buffer{}); err == nil {
			t.Errorf("args %v accepted", args)
		}
	}
}

func TestRunRejectsOnlineTrace(t *testing.T) {
	tasks := model.TaskSet{{ID: 1, Cycles: 5, Arrival: 2, Deadline: model.NoDeadline}}
	path := filepath.Join(t.TempDir(), "online.jsonl")
	var buf bytes.Buffer
	if err := trace.Write(&buf, tasks); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-trace", path}, &bytes.Buffer{}); err == nil {
		t.Error("online trace accepted by the batch scheduler")
	}
}

func TestRunJSONOutput(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-json", "-cores", "2"}, &out); err != nil {
		t.Fatal(err)
	}
	plan, err := batch.ReadPlanJSON(&out)
	if err != nil {
		t.Fatalf("output is not a valid plan: %v", err)
	}
	if plan.NumTasks() != 24 {
		t.Errorf("plan tasks = %d, want the 24 SPEC workloads", plan.NumTasks())
	}
}

func TestRunRangesFlag(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-ranges", "-platform", "i7"}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "dominating position ranges") ||
		!strings.Contains(out.String(), "GHz") {
		t.Errorf("output:\n%s", out.String())
	}
}

func TestTraceAndMetricsOut(t *testing.T) {
	dir := t.TempDir()
	eventsPath := filepath.Join(dir, "events.jsonl")
	metricsPath := filepath.Join(dir, "metrics.json")
	var out bytes.Buffer
	if err := run([]string{"-cores", "2", "-trace-out", eventsPath, "-metrics-out", metricsPath}, &out); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(eventsPath)
	if err != nil {
		t.Fatal(err)
	}
	events, rerr := obs.ReadJSONL(f)
	f.Close()
	if rerr != nil {
		t.Fatal(rerr)
	}
	timeline, err := report.TimelineFromEvents(events)
	if err != nil {
		t.Fatal(err)
	}
	if len(timeline) == 0 {
		t.Fatal("empty replayed timeline")
	}
	var gantt bytes.Buffer
	if err := report.Gantt(&gantt, timeline); err != nil {
		t.Fatal(err)
	}
	mb, err := os.ReadFile(metricsPath)
	if err != nil {
		t.Fatal(err)
	}
	var snap struct {
		Counters map[string]float64 `json:"counters"`
	}
	if err := json.Unmarshal(mb, &snap); err != nil {
		t.Fatal(err)
	}
	// The default workload is the paper's 24 SPEC programs; the plan
	// execution must complete all of them.
	if got := snap.Counters["sim.tasks.completed"]; got != 24 {
		t.Errorf("sim.tasks.completed = %v, want 24", got)
	}
	if snap.Counters["sim.energy_j"] <= 0 {
		t.Error("sim.energy_j missing from metrics snapshot")
	}
}
