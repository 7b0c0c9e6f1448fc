package dynsched

import (
	"fmt"

	"dvfsched/internal/envelope"
	"dvfsched/internal/rangetree"
)

// RangeCheckpoint is the persisted occupancy of one dominating range.
// The static bounds and the rate level are not stored: they derive
// from the envelope the scheduler is restored onto.
type RangeCheckpoint struct {
	// A and B are the occupied boundary positions; empty iff B < A.
	A int `json:"a"`
	B int `json:"b"`
	// X and D are the maintained aggregates x_i and d_i, bit-exact.
	X float64 `json:"x"`
	D float64 `json:"d"`
}

// Checkpoint is a complete exact-state capture of a Scheduler. The
// floating-point fields (tree aggregates, range aggregates, cost) are
// accumulation state whose rounding depends on the full insert/delete
// history — they are recorded verbatim, never recomputed, so a
// restored scheduler returns bit-identical costs and makes
// bit-identical decisions from the first operation on. That includes
// the aggregates of empty ranges, which carry the residue of the
// inserts and deletes that emptied them.
type Checkpoint struct {
	// Tree is the range tree's exact state.
	Tree rangetree.TreeState `json:"tree"`
	// Ranges is the per-dominating-range occupancy, aligned with the
	// envelope's range list.
	Ranges []RangeCheckpoint `json:"ranges"`
	// Cost is the maintained total cost C, bit-exact.
	Cost float64 `json:"cost"`
}

// Checkpoint captures the scheduler's complete state. Metric handles
// and the injected clock are wiring, not state: the restoring side
// re-attaches its own via Instrument and SetClock.
func (s *Scheduler) Checkpoint() Checkpoint {
	cp := Checkpoint{
		Tree:   s.tree.Snapshot(),
		Ranges: make([]RangeCheckpoint, len(s.ranges)),
		Cost:   s.cost,
	}
	for i := range s.ranges {
		r := &s.ranges[i]
		cp.Ranges[i] = RangeCheckpoint{A: r.a, B: r.b, X: r.x, D: r.d}
	}
	return cp
}

// RestoreFromEnvelope rebuilds a scheduler from a checkpoint onto an
// envelope, which must be computed from the same cost parameters and
// rate table as the captured scheduler's (cores with identical tables
// can share it, exactly as with NewFromEnvelope). Handles into the old
// scheduler are dead; re-derive them with HandleAtRank.
func RestoreFromEnvelope(env *envelope.Envelope, cp Checkpoint) (*Scheduler, error) {
	s := NewFromEnvelope(env)
	if len(cp.Ranges) != len(s.ranges) {
		return nil, fmt.Errorf("dynsched: restore: checkpoint has %d ranges, envelope has %d (parameter mismatch?)",
			len(cp.Ranges), len(s.ranges))
	}
	tree, nodes, err := rangetree.Restore(cp.Tree)
	if err != nil {
		return nil, fmt.Errorf("dynsched: restore: %w", err)
	}
	s.tree = tree
	n := len(nodes)
	pos := 1
	for i := range s.ranges {
		r := &s.ranges[i]
		rc := cp.Ranges[i]
		wantB := r.hi
		if wantB == envelope.Unbounded || wantB > n {
			wantB = n
		}
		if wantB < r.lo {
			// Range beyond the occupied prefix: must be empty, but its
			// aggregates keep the rounding residue of the inserts and
			// deletes that emptied it, and the next insert adds to it.
			if rc.B >= rc.A {
				return nil, fmt.Errorf("dynsched: restore: range %d should be empty, checkpoint has [%d,%d]", i, rc.A, rc.B)
			}
			r.x, r.d = rc.X, rc.D
			continue
		}
		if rc.A != r.lo || rc.B != wantB {
			return nil, fmt.Errorf("dynsched: restore: range %d occupancy [%d,%d], want [%d,%d]",
				i, rc.A, rc.B, r.lo, wantB)
		}
		r.a, r.b = rc.A, rc.B
		r.x, r.d = rc.X, rc.D
		r.alpha, r.beta = nodes[r.a-1], nodes[r.b-1]
		pos = r.b + 1
	}
	if pos != n+1 {
		return nil, fmt.Errorf("dynsched: restore: ranges cover positions up to %d, tree has %d tasks", pos-1, n)
	}
	s.cost = cp.Cost
	return s, nil
}

// HandleAtRank returns a handle to the task at backward position k
// (1-based), for re-deriving task references after a restore. O(log N).
func (s *Scheduler) HandleAtRank(k int) (*Handle, error) {
	node := s.tree.Select(k)
	if node == nil {
		return nil, fmt.Errorf("dynsched: no task at rank %d (len %d)", k, s.tree.Len())
	}
	return &Handle{node: node, cycles: node.Cycles()}, nil
}
