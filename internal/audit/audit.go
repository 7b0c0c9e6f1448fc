// Package audit states the service's durability contract once, as a
// checker for drained session traces: every acked task exactly once,
// and a serial replay that reproduces the trace and its drained cost.
package audit

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math"
	"sort"

	"dvfsched/internal/obs"
	"dvfsched/internal/report"
	"dvfsched/internal/server"
)

// CheckTrace holds a drained session's trace to the contract:
//
//   - seqs run 1, 2, ... with no gap or reorder;
//   - no task arrives twice, and every acked task arrives and
//     completes exactly once;
//   - report.TimelineFromEvents accepts the trace;
//   - server.ReplaySession over the trace alone, then drained,
//     regenerates it byte-identically.
//
// Given the drain response, it also requires the drain's task count to
// match the trace, the rebuild's cost to equal the drain cost bit for
// bit, and the trace's own Re·energy + Rt·turnaround to lie within
// 1e-6 (relative) of it. Pass a nil drain when the drain's ack was
// lost.
func CheckTrace(spec server.PlatformSpec, events []obs.Event, acked map[int]bool, drain *server.DrainResponse) error {
	if len(events) == 0 {
		return errors.New("empty trace")
	}
	arrivals := map[int]int{}
	completions := map[int]int{}
	nComplete := 0
	for i, ev := range events {
		if ev.Seq != uint64(i+1) {
			return fmt.Errorf("event %d has seq %d: trace gap or reorder", i, ev.Seq)
		}
		switch ev.Kind {
		case obs.KindArrival:
			if arrivals[ev.Task]++; arrivals[ev.Task] > 1 {
				return fmt.Errorf("task %d arrives twice (seq %d)", ev.Task, ev.Seq)
			}
		case obs.KindComplete:
			completions[ev.Task]++
			nComplete++
		}
	}
	ids := make([]int, 0, len(acked))
	for id := range acked {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	for _, id := range ids {
		if arrivals[id] == 0 {
			return fmt.Errorf("acked task %d never arrives", id)
		}
		if completions[id] != 1 {
			return fmt.Errorf("acked task %d completes %d times", id, completions[id])
		}
	}
	if drain != nil && (drain.Tasks != len(arrivals) || drain.Tasks != nComplete) {
		return fmt.Errorf("drain reports %d tasks, trace has %d arrivals and %d completions",
			drain.Tasks, len(arrivals), nComplete)
	}
	if _, err := report.TimelineFromEvents(events); err != nil {
		return fmt.Errorf("trace does not replay as a timeline: %w", err)
	}

	rb, err := server.ReplaySession(context.Background(), spec, nil, events)
	if err != nil {
		return fmt.Errorf("serial rebuild: %w", err)
	}
	res, err := rb.Sess.Drain(context.Background())
	if err != nil {
		return fmt.Errorf("serial rebuild drain: %w", err)
	}
	got, want := obs.AppendBinary(nil, rb.Rec.Events()), obs.AppendBinary(nil, events)
	if !bytes.Equal(got, want) {
		return fmt.Errorf("serial rebuild diverges from the trace: %d vs %d encoded bytes (%d vs %d events)",
			len(got), len(want), len(rb.Rec.Events()), len(events))
	}
	if drain == nil {
		return nil
	}
	if math.Float64bits(res.TotalCost) != math.Float64bits(drain.TotalCost) {
		return fmt.Errorf("rebuilt cost %v != drain cost %v", res.TotalCost, drain.TotalCost)
	}

	// The trace prices itself: energy and turnaround as the metrics
	// sink accumulates them from the events, weighted by the rebuild's
	// normalized Re and Rt.
	reg := obs.NewRegistry()
	sink := obs.NewMetricsSink(reg)
	for _, ev := range events {
		sink.Emit(ev)
	}
	snap := reg.Snapshot()
	cost := rb.Spec.Re*snap.Counters["sim.energy_j"] + rb.Spec.Rt*snap.Histograms["sim.turnaround_s"].Sum
	if math.Abs(cost-drain.TotalCost) > 1e-6*math.Max(1, math.Abs(drain.TotalCost)) {
		return fmt.Errorf("trace prices to %v, drain cost %v", cost, drain.TotalCost)
	}
	return nil
}
