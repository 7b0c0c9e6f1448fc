package core_test

import (
	"bytes"
	"context"
	"strings"
	"testing"

	"dvfsched/internal/obs"
	"dvfsched/internal/sim"
)

// TestReplayTraceRebuildsPromotedSession is the promotion path at the
// facade level: snapshot a judge session at its midpoint, keep running
// it to the end, then rebuild it the way a replica is promoted —
// restore the snapshot with RestoreOnline, with the recorder preloaded
// with the events up to the checkpoint, and replay the recorded
// arrival suffix through ReplayTrace. The rebuilt trace must equal the
// uninterrupted run's byte for byte, and its drain cost bit for bit.
func TestReplayTraceRebuildsPromotedSession(t *testing.T) {
	ctx := context.Background()
	batches := goldenBatches(t)
	cut := len(batches) / 2

	recA := &obs.Recorder{}
	sessA, err := judgeScheduler(t, recA).OpenOnline(ctx)
	if err != nil {
		t.Fatal(err)
	}
	submitAll(t, sessA, batches[:cut])
	blob, err := sessA.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	submitAll(t, sessA, batches[cut:])
	resA, err := sessA.Drain(ctx)
	if err != nil {
		t.Fatal(err)
	}
	events := recA.Events()

	cp, err := sim.UnmarshalCheckpoint(blob)
	if err != nil {
		t.Fatal(err)
	}
	recB := &obs.Recorder{}
	for _, ev := range events {
		if ev.Seq <= cp.EvSeq {
			recB.Emit(ev)
		}
	}
	sessB, err := judgeScheduler(t, recB).RestoreOnline(ctx, blob)
	if err != nil {
		t.Fatal(err)
	}
	known := make(map[int]bool, len(cp.IDs))
	for _, id := range cp.IDs {
		known[id] = true
	}
	n, err := sessB.ReplayTrace(ctx, events, cp.EvSeq, func(id int) bool { return known[id] })
	if err != nil {
		t.Fatal(err)
	}
	want := 0
	for _, b := range batches[cut:] {
		want += len(b)
	}
	if n != want {
		t.Fatalf("ReplayTrace re-admitted %d tasks, want the %d submitted after the snapshot", n, want)
	}
	resB, err := sessB.Drain(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if got, wantTrace := obs.AppendBinary(nil, recB.Events()), obs.AppendBinary(nil, events); !bytes.Equal(got, wantTrace) {
		t.Errorf("rebuilt trace differs from the uninterrupted run (%d vs %d bytes)", len(got), len(wantTrace))
	}
	if !bitEq(resB.TotalCost, resA.TotalCost) {
		t.Errorf("rebuilt drain cost %v, uninterrupted %v", resB.TotalCost, resA.TotalCost)
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
	n, err := sess.ReplayTrace(ctx, []obs.Event{arrival, dup}, 0, nil)
	if n != 1 || err == nil || !strings.Contains(err.Error(), "replay arrival seq 2") {
		t.Fatalf("ReplayTrace of a duplicated arrival = %d, %v; want 1 and an error naming seq 2", n, err)
	}
}
