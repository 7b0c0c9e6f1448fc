package core_test

import (
	"bytes"
	"context"
	"math"
	"math/rand"
	"testing"

	"dvfsched/internal/core"
	"dvfsched/internal/envelope"
	"dvfsched/internal/model"
	"dvfsched/internal/obs"
	"dvfsched/internal/platform"
	"dvfsched/internal/report"
	"dvfsched/internal/workload"
)

// judgeTrace generates the mixed online workload the parity tests
// replay: interactive and non-interactive arrivals over 4 cores.
func judgeTrace(t *testing.T) model.TaskSet {
	t.Helper()
	judge := workload.DefaultJudgeConfig()
	judge.Interactive, judge.NonInteractive, judge.Duration = 300, 45, 80
	tasks, err := judge.Generate(rand.New(rand.NewSource(7)))
	if err != nil {
		t.Fatal(err)
	}
	return tasks
}

// runOnlineTimeline executes the trace with the given options and
// returns the replayed timeline CSV plus the result, so two
// configurations can be compared byte for byte.
func runOnlineTimeline(t *testing.T, tasks model.TaskSet, opts ...core.Option) ([]byte, float64) {
	t.Helper()
	rec := &obs.Recorder{}
	opts = append(opts, core.WithSink(rec))
	sched, err := core.New(model.CostParams{Re: 0.1, Rt: 0.4},
		platform.Homogeneous(4, platform.TableII(), platform.Ideal{}), opts...)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sched.RunOnline(context.Background(), tasks)
	if err != nil {
		t.Fatal(err)
	}
	timeline, err := report.TimelineFromEvents(rec.Events())
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := report.TimelineCSV(&buf, timeline); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes(), res.TotalCost
}

// TestRunOnlineParityAcrossOptions is the differential proof that the
// envelope cache is a pure performance knob. Every cache configuration
// must replay to a byte-identical schedule timeline and the exact same
// cost bits as the uncached reference.
func TestRunOnlineParityAcrossOptions(t *testing.T) {
	tasks := judgeTrace(t)
	refCSV, refCost := runOnlineTimeline(t, tasks, core.WithEnvelopeCache(nil))

	configs := map[string][]core.Option{
		"cached":              {core.WithEnvelopeCache(envelope.NewCache(8))},
		"private-small-cache": {core.WithEnvelopeCache(envelope.NewCache(1))},
	}
	names := []string{"cached", "private-small-cache"}
	for _, name := range names {
		csv, cost := runOnlineTimeline(t, tasks, configs[name]...)
		if math.Float64bits(cost) != math.Float64bits(refCost) {
			t.Errorf("%s: total cost %v differs from reference %v", name, cost, refCost)
		}
		if !bytes.Equal(csv, refCSV) {
			t.Errorf("%s: replayed timeline differs from the uncached reference", name)
		}
	}
}

// TestPlanBatchParityAcrossOptions mirrors the differential proof for
// the batch plane: Workload Based Greedy with cached envelopes must
// produce the same plan document as with recomputed ones.
func TestPlanBatchParityAcrossOptions(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	tasks := make(model.TaskSet, 40)
	for i := range tasks {
		tasks[i] = model.Task{ID: i, Cycles: 5 + rng.Float64()*800, Deadline: model.NoDeadline}
	}
	plat := platform.Homogeneous(8, platform.TableII(), platform.Ideal{})
	params := model.CostParams{Re: 0.1, Rt: 0.4}

	planJSON := func(opts ...core.Option) []byte {
		sched, err := core.New(params, plat, opts...)
		if err != nil {
			t.Fatal(err)
		}
		plan, err := sched.PlanBatch(context.Background(), tasks)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := plan.WriteJSON(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}

	ref := planJSON(core.WithEnvelopeCache(nil))
	for _, tc := range []struct {
		name string
		opts []core.Option
	}{
		{"cached", []core.Option{core.WithEnvelopeCache(envelope.NewCache(8))}},
	} {
		if got := planJSON(tc.opts...); !bytes.Equal(got, ref) {
			t.Errorf("%s: plan JSON differs from the uncached reference", tc.name)
		}
	}
}
