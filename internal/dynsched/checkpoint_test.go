package dynsched

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"dvfsched/internal/envelope"
	"dvfsched/internal/model"
	"dvfsched/internal/platform"
	"dvfsched/internal/rangetree"
)

func testEnvelope(t testing.TB) *envelope.Envelope {
	t.Helper()
	env, err := envelope.Compute(model.CostParams{Re: 0.1, Rt: 0.4}, platform.TableII())
	if err != nil {
		t.Fatal(err)
	}
	return env
}

// driveIdentically applies the same randomized operation mix —
// inserts, deletes by rank, and marginal-cost probes (which advance
// the tree's seq/rng even though they leave the schedule unchanged) —
// to both schedulers and requires bit-identical results at every step.
func driveIdentically(t *testing.T, a, b *Scheduler, seed int64, ops int) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed)) // deterministic mix, not randomness
	for i := 0; i < ops; i++ {
		switch {
		case a.Len() > 0 && rng.Intn(4) == 0:
			k := rng.Intn(a.Len()) + 1
			ha, err := a.HandleAtRank(k)
			if err != nil {
				t.Fatal(err)
			}
			hb, err := b.HandleAtRank(k)
			if err != nil {
				t.Fatal(err)
			}
			if err := a.Delete(ha); err != nil {
				t.Fatal(err)
			}
			if err := b.Delete(hb); err != nil {
				t.Fatal(err)
			}
		case rng.Intn(3) == 0:
			c := rng.Float64()*50 + 0.01
			ma, err := a.MarginalInsertCost(c)
			if err != nil {
				t.Fatal(err)
			}
			mb, err := b.MarginalInsertCost(c)
			if err != nil {
				t.Fatal(err)
			}
			if math.Float64bits(ma) != math.Float64bits(mb) {
				t.Fatalf("op %d: marginal cost %v vs %v", i, ma, mb)
			}
		default:
			c := rng.Float64()*50 + 0.01
			if _, err := a.Insert(c); err != nil {
				t.Fatal(err)
			}
			if _, err := b.Insert(c); err != nil {
				t.Fatal(err)
			}
		}
		if math.Float64bits(a.Cost()) != math.Float64bits(b.Cost()) {
			t.Fatalf("op %d: cost diverged: %v vs %v", i, a.Cost(), b.Cost())
		}
		if a.Len() != b.Len() {
			t.Fatalf("op %d: len diverged: %d vs %d", i, a.Len(), b.Len())
		}
	}
}

func TestCheckpointRestoreExact(t *testing.T) {
	env := testEnvelope(t)
	s := NewFromEnvelope(env)
	rng := rand.New(rand.NewSource(3))
	var handles []*Handle
	for i := 0; i < 400; i++ {
		if len(handles) > 0 && rng.Intn(3) == 0 {
			j := rng.Intn(len(handles))
			if err := s.Delete(handles[j]); err != nil {
				t.Fatal(err)
			}
			handles = append(handles[:j], handles[j+1:]...)
		} else {
			h, err := s.Insert(rng.Float64()*80 + 0.01)
			if err != nil {
				t.Fatal(err)
			}
			handles = append(handles, h)
		}
		// Probes advance the priority stream mid-history, exactly as
		// the LMC placement loop does.
		if rng.Intn(5) == 0 {
			if _, err := s.MarginalInsertCost(rng.Float64() * 10); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := s.checkInvariants(); err != nil {
		t.Fatal(err)
	}

	cp := s.Checkpoint()
	restored, err := RestoreFromEnvelope(env, cp)
	if err != nil {
		t.Fatal(err)
	}
	if err := restored.checkInvariants(); err != nil {
		t.Fatalf("restored scheduler invalid: %v", err)
	}
	if math.Float64bits(restored.Cost()) != math.Float64bits(s.Cost()) {
		t.Fatalf("restored cost %v != %v", restored.Cost(), s.Cost())
	}
	if restored.Len() != s.Len() {
		t.Fatalf("restored len %d != %d", restored.Len(), s.Len())
	}
	// Re-checkpointing the restored scheduler must reproduce the
	// checkpoint exactly — restore loses nothing.
	if again := restored.Checkpoint(); !reflect.DeepEqual(cp, again) {
		t.Fatal("checkpoint of restored scheduler differs")
	}
	// And the decisive property: identical future behavior under a
	// shared operation stream, probes included.
	driveIdentically(t, s, restored, 17, 300)
}

func TestCheckpointRestoreEmpty(t *testing.T) {
	env := testEnvelope(t)
	s := NewFromEnvelope(env)
	// Churn that ends empty still advances the generators.
	h, err := s.Insert(5)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Delete(h); err != nil {
		t.Fatal(err)
	}
	restored, err := RestoreFromEnvelope(env, s.Checkpoint())
	if err != nil {
		t.Fatal(err)
	}
	driveIdentically(t, s, restored, 23, 100)
}

func TestRestoreRejectsMismatchedCheckpoint(t *testing.T) {
	env := testEnvelope(t)
	s := NewFromEnvelope(env)
	for i := 0; i < 20; i++ {
		if _, err := s.Insert(float64(i) + 1); err != nil {
			t.Fatal(err)
		}
	}
	cp := s.Checkpoint()

	// Wrong number of ranges.
	bad := cp
	bad.Ranges = bad.Ranges[:1]
	if _, err := RestoreFromEnvelope(env, bad); err == nil {
		t.Error("want error for range-count mismatch")
	}

	// Occupancy inconsistent with the tree size.
	bad = cp
	bad.Ranges = append([]RangeCheckpoint(nil), cp.Ranges...)
	for i := range bad.Ranges {
		if bad.Ranges[i].B >= bad.Ranges[i].A {
			bad.Ranges[i].B--
			break
		}
	}
	if _, err := RestoreFromEnvelope(env, bad); err == nil {
		t.Error("want error for occupancy mismatch")
	}

	// Tree nodes out of rank order.
	bad = cp
	bad.Tree.Nodes = append([]rangetree.NodeState(nil), cp.Tree.Nodes...)
	bad.Tree.Nodes[0], bad.Tree.Nodes[1] = bad.Tree.Nodes[1], bad.Tree.Nodes[0]
	if _, err := RestoreFromEnvelope(env, bad); err == nil {
		t.Error("want error for rank-order violation")
	}
}

// TestCheckpointRestoreAfterChurn checks that restore keeps the
// rounding residue of ranges that inserts and deletes left empty. Each
// pattern inserts a few tasks, deletes some of them, checkpoints,
// restores, and then drives both schedulers identically: Cost() must
// agree bit for bit at every step, and re-checkpointing the restored
// scheduler must reproduce the checkpoint.
func TestCheckpointRestoreAfterChurn(t *testing.T) {
	env := testEnvelope(t)
	lengths := []float64{0.3, 0.7, 1.1, 2.9, 5, 13.7}
	for _, c := range lengths {
		for n := 1; n <= 3; n++ {
			for keep := 0; keep < n; keep++ {
				t.Run(fmt.Sprintf("len=%v/insert=%d/keep=%d", c, n, keep), func(t *testing.T) {
					s := NewFromEnvelope(env)
					var hs []*Handle
					for i := 0; i < n; i++ {
						h, err := s.Insert(c * float64(i+1))
						if err != nil {
							t.Fatal(err)
						}
						hs = append(hs, h)
					}
					for _, h := range hs[keep:] {
						if err := s.Delete(h); err != nil {
							t.Fatal(err)
						}
					}
					cp := s.Checkpoint()
					restored, err := RestoreFromEnvelope(env, cp)
					if err != nil {
						t.Fatal(err)
					}
					again := restored.Checkpoint()
					for _, x := range []float64{c, 2 * c} {
						if _, err := s.Insert(x); err != nil {
							t.Fatal(err)
						}
						if _, err := restored.Insert(x); err != nil {
							t.Fatal(err)
						}
						if a, b := s.Cost(), restored.Cost(); math.Float64bits(a) != math.Float64bits(b) {
							t.Fatalf("after inserting %v: live cost %v, restored %v", x, a, b)
						}
					}
					if !reflect.DeepEqual(cp, again) {
						t.Fatalf("checkpoint of restored scheduler differs:\n%+v\n%+v", cp.Ranges, again.Ranges)
					}
				})
			}
		}
	}
}
