package core_test

import (
	"bytes"
	"context"
	"flag"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"dvfsched/internal/core"
	"dvfsched/internal/model"
	"dvfsched/internal/obs"
	"dvfsched/internal/platform"
	"dvfsched/internal/sim"
	"dvfsched/internal/workload"
)

var update = flag.Bool("update", false, "rewrite the judge replay golden in testdata")

// Golden judge replay: a 1/64-scale Judgegirl trace submitted in
// 64-task batches into a 16-core Table II session with the paper's
// online constants, the shape of the judge-online benchmark.
const (
	goldenBatch  = 64
	goldenCutAt  = 6 // the frozen checkpoint is taken after this many batches
	goldenTrace  = "judge16.bintrace"
	goldenCost   = "judge16.cost"
	frozenDVSC   = "judge16_mid_v1.dvsc"
	goldenJudgeS = 1.0 / 64
)

func judgeScheduler(tb testing.TB, sink obs.Sink) *core.Scheduler {
	tb.Helper()
	sched, err := core.New(model.CostParams{Re: 0.4, Rt: 0.1},
		platform.Homogeneous(16, platform.TableII(), platform.Ideal{}), core.WithSink(sink))
	if err != nil {
		tb.Fatal(err)
	}
	return sched
}

// judgeBatches scales the Judgegirl trace of the given seed and splits
// it, in arrival order, into submissions of goldenBatch tasks.
func judgeBatches(tb testing.TB, scale float64, seed int64) []model.TaskSet {
	tb.Helper()
	jc := workload.DefaultJudgeConfig()
	jc.Interactive = int(float64(jc.Interactive) * scale)
	jc.NonInteractive = int(float64(jc.NonInteractive) * scale)
	jc.Duration *= scale
	tasks, err := jc.Generate(rand.New(rand.NewSource(seed)))
	if err != nil {
		tb.Fatal(err)
	}
	tasks.ByArrival()
	var batches []model.TaskSet
	for lo := 0; lo < len(tasks); lo += goldenBatch {
		batches = append(batches, tasks[lo:min(lo+goldenBatch, len(tasks))])
	}
	return batches
}

// goldenBatches returns the golden replay's submissions in order.
func goldenBatches(t *testing.T) []model.TaskSet { return judgeBatches(t, goldenJudgeS, 3) }

func submitAll(t *testing.T, sess *core.OnlineSession, batches []model.TaskSet) {
	t.Helper()
	for i, b := range batches {
		if err := sess.Submit(context.Background(), b.Clone()); err != nil {
			t.Fatalf("batch %d: %v", i, err)
		}
	}
}

func costLine(c float64) string {
	return fmt.Sprintf("%016x %v\n", math.Float64bits(c), c)
}

// TestJudgeReplayGolden pins the engine's output on the judge replay:
// the binary trace must match testdata/judge16.bintrace byte for byte
// and the drained total cost must match testdata/judge16.cost bit for
// bit. Regenerate with -update only for an intended schedule change.
func TestJudgeReplayGolden(t *testing.T) {
	rec := &obs.Recorder{}
	sess, err := judgeScheduler(t, rec).OpenOnline(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	submitAll(t, sess, goldenBatches(t))
	res, err := sess.Drain(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	trace := obs.AppendBinary(nil, rec.Events())
	cost := costLine(res.TotalCost)

	tracePath := filepath.Join("testdata", goldenTrace)
	costPath := filepath.Join("testdata", goldenCost)
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(tracePath, trace, 0o644); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(costPath, []byte(cost), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	wantTrace, err := os.ReadFile(tracePath)
	if err != nil {
		t.Fatalf("%v (run `go test ./internal/core -update` to create)", err)
	}
	wantCost, err := os.ReadFile(costPath)
	if err != nil {
		t.Fatalf("%v (run `go test ./internal/core -update` to create)", err)
	}
	if !bytes.Equal(trace, wantTrace) {
		t.Errorf("judge replay trace differs from golden (%d vs %d bytes, %d events)",
			len(trace), len(wantTrace), len(rec.Events()))
	}
	if cost != string(wantCost) {
		t.Errorf("judge replay total cost %q, golden %q", strings.TrimSpace(cost), strings.TrimSpace(string(wantCost)))
	}
}

// TestFrozenCheckpointRestores is the checkpoint compatibility
// contract. testdata/judge16_mid_v1.dvsc is the judge replay's session
// after goldenCutAt batches, written by the engine version that left
// superseded completion events in its queue; it is NEVER regenerated
// (-update creates it only if absent). Restoring it and submitting the
// remaining batches must reproduce the golden trace's suffix byte for
// byte and the golden total cost bit for bit.
func TestFrozenCheckpointRestores(t *testing.T) {
	ctx := context.Background()
	batches := goldenBatches(t)
	path := filepath.Join("testdata", frozenDVSC)
	if _, err := os.Stat(path); os.IsNotExist(err) && *update {
		// A sink keeps the event seq counting, so EvSeq marks the cut.
		sess, err := judgeScheduler(t, &obs.Recorder{}).OpenOnline(ctx)
		if err != nil {
			t.Fatal(err)
		}
		submitAll(t, sess, batches[:goldenCutAt])
		blob, err := sess.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, blob, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	blob, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (frozen checkpoint missing; create once with -update)", err)
	}
	cp, err := sim.UnmarshalCheckpoint(blob)
	if err != nil {
		t.Fatal(err)
	}
	// Only completions carry a nonzero seq; one whose seq is not its
	// core's live run seq was superseded by a reschedule.
	stale := 0
	for _, ev := range cp.Events {
		if ev.Seq != 0 && ev.Seq != cp.Cores[ev.Core].RunSeq {
			stale++
		}
	}
	if stale == 0 {
		t.Fatal("frozen checkpoint holds no superseded completions; it no longer covers restore's drop path")
	}

	rec := &obs.Recorder{}
	sess, err := judgeScheduler(t, rec).RestoreOnline(ctx, blob)
	if err != nil {
		t.Fatal(err)
	}
	submitAll(t, sess, batches[goldenCutAt:])
	res, err := sess.Drain(ctx)
	if err != nil {
		t.Fatal(err)
	}

	raw, err := os.ReadFile(filepath.Join("testdata", goldenTrace))
	if err != nil {
		t.Fatal(err)
	}
	golden, err := obs.ReadBinary(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	var suffix []obs.Event
	for i, ev := range golden {
		if ev.Seq > cp.EvSeq {
			suffix = golden[i:]
			break
		}
	}
	if len(suffix) == 0 {
		t.Fatal("golden trace has no events after the checkpoint")
	}
	if got, want := obs.AppendBinary(nil, rec.Events()), obs.AppendBinary(nil, suffix); !bytes.Equal(got, want) {
		t.Errorf("restored trace differs from the golden suffix (%d vs %d bytes)", len(got), len(want))
	}
	wantCost, err := os.ReadFile(filepath.Join("testdata", goldenCost))
	if err != nil {
		t.Fatal(err)
	}
	bits, err := strconv.ParseUint(strings.Fields(string(wantCost))[0], 16, 64)
	if err != nil {
		t.Fatal(err)
	}
	if got := math.Float64bits(res.TotalCost); got != bits {
		t.Errorf("restored total cost %v (%016x), golden %016x", res.TotalCost, got, bits)
	}
}
