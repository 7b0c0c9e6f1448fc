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
	"dvfsched/internal/workload"
)

var update = flag.Bool("update", false, "rewrite the judge replay golden in testdata")

// Golden judge replay: a 1/64-scale Judgegirl trace submitted in
// 64-task batches into a 16-core Table II session with the paper's
// online constants, the shape of the judge-online benchmark.
const (
	goldenBatch  = 64
	goldenCutAt  = 6 // the frozen log replay resumes after this many batches
	goldenTrace  = "judge16.bintrace"
	goldenCost   = "judge16.cost"
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

// TestFrozenLogReplays is the compatibility promise of the event log,
// the one format a session is exported and rebuilt from.
// testdata/judge16.bintrace is the judge replay's whole log. Replaying
// it up to the last Seq of the first goldenCutAt batches and submitting
// the remaining batches must reproduce the golden bytes byte for byte
// and the golden total cost bit for bit.
func TestFrozenLogReplays(t *testing.T) {
	ctx := context.Background()
	batches := goldenBatches(t)
	raw, err := os.ReadFile(filepath.Join("testdata", goldenTrace))
	if err != nil {
		t.Fatal(err)
	}
	golden, err := obs.ReadBinary(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}

	// The cut: where the log stood when the first goldenCutAt batches
	// had been submitted.
	live := &obs.Recorder{}
	src, err := judgeScheduler(t, live).OpenOnline(ctx)
	if err != nil {
		t.Fatal(err)
	}
	submitAll(t, src, batches[:goldenCutAt])
	cut := 0
	for cut < len(golden) && golden[cut].Seq <= live.LastSeq() {
		cut++
	}
	if cut == 0 || cut == len(golden) {
		t.Fatalf("cut at seq %d leaves %d of %d golden events to replay", live.LastSeq(), cut, len(golden))
	}

	rec := &obs.Recorder{}
	sess, err := judgeScheduler(t, rec).OpenOnline(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sess.ReplayTrace(ctx, golden[:cut]); err != nil {
		t.Fatal(err)
	}
	submitAll(t, sess, batches[goldenCutAt:])
	res, err := sess.Drain(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if got := obs.AppendBinary(nil, rec.Events()); !bytes.Equal(got, raw) {
		t.Errorf("replayed and resumed log differs from the golden (%d vs %d bytes)", len(got), len(raw))
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
		t.Errorf("replayed total cost %v (%016x), golden %016x", res.TotalCost, got, bits)
	}
}
