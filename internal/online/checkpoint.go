package online

import (
	"encoding/json"
	"fmt"
	"math"

	"dvfsched/internal/dynsched"
	"dvfsched/internal/sim"
)

// LMC implements sim.CheckpointablePolicy so online sessions can be
// snapshotted and recovered (snapshot + trace-suffix replay instead of
// replay from t=0). The policy's state is each core's dynamic cost
// structure plus its waiting sets; everything else on LMC — envelopes,
// metrics handles — is wiring that Init rebuilds.
//
// The blob is JSON: unlike the engine checkpoint, LMC state contains
// no non-finite floats (lengths and cost aggregates are finite by
// construction), JSON's shortest-round-trip float encoding restores
// the exact bits, and Go decodes the uint64 treap priorities from the
// integer literal, not through a float64.

// lmcCheckpointVersion is bumped whenever the blob layout changes.
const lmcCheckpointVersion = 1

// lmcQueueState is one waiting non-interactive submission: the task
// (as a session task-table index), its rank in the core's dynamic
// structure, and the length estimate it was placed with.
type lmcQueueState struct {
	Task int     `json:"task"`
	Rank int     `json:"rank"`
	Est  float64 `json:"est"`
}

// lmcCoreState is one core's policy state.
type lmcCoreState struct {
	Sched dynsched.Checkpoint `json:"sched"`
	Queue []lmcQueueState     `json:"queue,omitempty"`
	// Paused holds preempted tasks in stack order (resumed LIFO).
	Paused []int `json:"paused,omitempty"`
	// Interactive holds interactive tasks waiting for a core, FIFO.
	Interactive []int `json:"interactive,omitempty"`
}

// lmcCheckpoint is the serialized policy state.
type lmcCheckpoint struct {
	Version int            `json:"version"`
	CompSum float64        `json:"compSum"`
	CompN   int            `json:"compN"`
	Cores   []lmcCoreState `json:"cores"`
}

// SnapshotPolicy implements sim.CheckpointablePolicy.
func (l *LMC) SnapshotPolicy(taskIndex func(*sim.TaskState) int) ([]byte, error) {
	cp := lmcCheckpoint{
		Version: lmcCheckpointVersion,
		CompSum: l.compSum,
		CompN:   l.compN,
		Cores:   make([]lmcCoreState, len(l.cores)),
	}
	for j, c := range l.cores {
		cs := lmcCoreState{Sched: c.sched.Checkpoint()}
		for _, entry := range c.queue {
			cs.Queue = append(cs.Queue, lmcQueueState{
				Task: taskIndex(entry.ts),
				Rank: c.sched.Rank(entry.h),
				Est:  entry.est,
			})
		}
		for _, ts := range c.paused {
			cs.Paused = append(cs.Paused, taskIndex(ts))
		}
		for _, ts := range c.interactive {
			cs.Interactive = append(cs.Interactive, taskIndex(ts))
		}
		cp.Cores[j] = cs
	}
	return json.Marshal(cp)
}

// RestorePolicy implements sim.CheckpointablePolicy. It runs on a
// fresh policy whose Init has already built empty per-core state; the
// dynamic structures are rebuilt exactly (bit-identical aggregates and
// generator state, see dynsched.RestoreFromEnvelope) and the queue
// handles re-derived by rank.
func (l *LMC) RestorePolicy(data []byte, taskAt func(int) *sim.TaskState) error {
	var cp lmcCheckpoint
	if err := json.Unmarshal(data, &cp); err != nil {
		return fmt.Errorf("online: lmc checkpoint: %w", err)
	}
	if cp.Version != lmcCheckpointVersion {
		return fmt.Errorf("online: lmc checkpoint version %d (decoder knows %d)", cp.Version, lmcCheckpointVersion)
	}
	if len(cp.Cores) != len(l.cores) {
		return fmt.Errorf("online: lmc checkpoint has %d cores, policy has %d", len(cp.Cores), len(l.cores))
	}
	l.compSum = cp.CompSum
	l.compN = cp.CompN
	for j := range cp.Cores {
		cs := &cp.Cores[j]
		c := l.cores[j]
		sched, err := dynsched.RestoreFromEnvelope(c.env, cs.Sched)
		if err != nil {
			return fmt.Errorf("online: core %d: %w", j, err)
		}
		if sched.Len() != len(cs.Queue) {
			return fmt.Errorf("online: core %d: structure holds %d tasks, queue lists %d", j, sched.Len(), len(cs.Queue))
		}
		if l.Metrics != nil {
			sched.Instrument(l.Metrics)
			sched.SetClock(l.Clock)
		}
		c.sched = sched
		c.queue = make([]queueEntry, 0, len(cs.Queue))
		for _, qs := range cs.Queue {
			h, err := sched.HandleAtRank(qs.Rank)
			if err != nil {
				return fmt.Errorf("online: core %d: %w", j, err)
			}
			// The estimate placed the entry in the structure; a mismatch
			// means ranks and queue drifted apart.
			if math.Float64bits(h.Cycles()) != math.Float64bits(qs.Est) {
				return fmt.Errorf("online: core %d: rank %d holds %v cycles, queue entry says %v", j, qs.Rank, h.Cycles(), qs.Est)
			}
			c.queue = append(c.queue, queueEntry{ts: taskAt(qs.Task), h: h, est: qs.Est})
		}
		c.paused = c.paused[:0]
		for _, i := range cs.Paused {
			c.paused = append(c.paused, taskAt(i))
		}
		c.interactive = c.interactive[:0]
		for _, i := range cs.Interactive {
			c.interactive = append(c.interactive, taskAt(i))
		}
		l.noteQueueDepth(j)
	}
	return nil
}
