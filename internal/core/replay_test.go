package core_test

import (
	"bytes"
	"context"
	"strings"
	"testing"

	"dvfsched/internal/obs"
)

// TestReplayTraceRebuildsPromotedSession is the promotion path at the
// facade level: run the golden judge session to the end, then rebuild
// it the way a replica is promoted — replay the whole recorded trace's
// arrivals through ReplayTrace into a fresh session. The rebuilt trace
// must equal the original run's byte for byte, and its drain cost bit
// for bit.
func TestReplayTraceRebuildsPromotedSession(t *testing.T) {
	ctx := context.Background()
	batches := goldenBatches(t)

	recA := &obs.Recorder{}
	sessA, err := judgeScheduler(t, recA).OpenOnline(ctx)
	if err != nil {
		t.Fatal(err)
	}
	submitAll(t, sessA, batches)
	resA, err := sessA.Drain(ctx)
	if err != nil {
		t.Fatal(err)
	}
	events := recA.Events()

	recB := &obs.Recorder{}
	sessB, err := judgeScheduler(t, recB).OpenOnline(ctx)
	if err != nil {
		t.Fatal(err)
	}
	n, err := sessB.ReplayTrace(ctx, events)
	if err != nil {
		t.Fatal(err)
	}
	want := 0
	for _, b := range batches {
		want += len(b)
	}
	if n != want {
		t.Fatalf("ReplayTrace re-admitted %d tasks, want the %d submitted", n, want)
	}
	resB, err := sessB.Drain(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if got, wantTrace := obs.AppendBinary(nil, recB.Events()), obs.AppendBinary(nil, events); !bytes.Equal(got, wantTrace) {
		t.Errorf("rebuilt trace differs from the original run (%d vs %d bytes)", len(got), len(wantTrace))
	}
	if !bitEq(resB.TotalCost, resA.TotalCost) {
		t.Errorf("rebuilt drain cost %v, original %v", resB.TotalCost, resA.TotalCost)
	}
}

// TestReplayTraceReportsFailedArrival replays a trace that names the
// same task twice: the first arrival is re-admitted, the second fails
// with an error naming its sequence number.
func TestReplayTraceReportsFailedArrival(t *testing.T) {
	ctx := context.Background()
	sess, err := judgeScheduler(t, &obs.Recorder{}).OpenOnline(ctx)
	if err != nil {
		t.Fatal(err)
	}
	arrival := obs.Event{Seq: 1, T: 1, Kind: obs.KindArrival, Task: 7, Cycles: 5}
	dup := arrival
	dup.Seq, dup.T = 2, 2
	n, err := sess.ReplayTrace(ctx, []obs.Event{arrival, dup})
	if n != 1 || err == nil || !strings.Contains(err.Error(), "replay arrival seq 2") {
		t.Fatalf("ReplayTrace of a duplicated arrival = %d, %v; want 1 and an error naming seq 2", n, err)
	}
}
