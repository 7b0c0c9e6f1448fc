package model

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"
)

func TestTaskValidate(t *testing.T) {
	cases := []struct {
		name string
		task Task
		ok   bool
	}{
		{"valid batch", Task{ID: 1, Cycles: 10, Deadline: NoDeadline}, true},
		{"valid with deadline", Task{ID: 2, Cycles: 1, Arrival: 0, Deadline: 5}, true},
		{"zero cycles", Task{ID: 3, Cycles: 0, Deadline: NoDeadline}, false},
		{"negative cycles", Task{ID: 4, Cycles: -1, Deadline: NoDeadline}, false},
		{"NaN cycles", Task{ID: 5, Cycles: math.NaN(), Deadline: NoDeadline}, false},
		{"inf cycles", Task{ID: 6, Cycles: math.Inf(1), Deadline: NoDeadline}, false},
		{"negative arrival", Task{ID: 7, Cycles: 1, Arrival: -1, Deadline: NoDeadline}, false},
		{"deadline before arrival", Task{ID: 8, Cycles: 1, Arrival: 10, Deadline: 5}, false},
		{"deadline equals arrival", Task{ID: 9, Cycles: 1, Arrival: 5, Deadline: 5}, false},
		{"NaN deadline", Task{ID: 10, Cycles: 1, Deadline: math.NaN()}, false},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			err := c.task.Validate()
			if c.ok && err != nil {
				t.Fatalf("expected valid, got %v", err)
			}
			if !c.ok && err == nil {
				t.Fatalf("expected error for %+v", c.task)
			}
		})
	}
}

func TestTaskHasDeadline(t *testing.T) {
	if (Task{Deadline: NoDeadline}).HasDeadline() {
		t.Error("NoDeadline task reports HasDeadline")
	}
	if !(Task{Deadline: 3}).HasDeadline() {
		t.Error("finite deadline not detected")
	}
}

func TestTaskString(t *testing.T) {
	s := Task{ID: 7, Name: "bzip", Cycles: 1.5, Interactive: true}.String()
	if s == "" {
		t.Fatal("empty String()")
	}
	s2 := Task{ID: 8, Cycles: 2}.String()
	if s2 == "" || s2 == s {
		t.Fatal("unexpected String output")
	}
}

func TestTaskSetValidate(t *testing.T) {
	if err := (TaskSet{}).Validate(); err == nil {
		t.Error("empty set should be invalid")
	}
	dup := TaskSet{
		{ID: 1, Cycles: 1, Deadline: NoDeadline},
		{ID: 1, Cycles: 2, Deadline: NoDeadline},
	}
	if err := dup.Validate(); err == nil {
		t.Error("duplicate IDs should be invalid")
	}
	good := TaskSet{
		{ID: 1, Cycles: 1, Deadline: NoDeadline},
		{ID: 2, Cycles: 2, Deadline: NoDeadline},
	}
	if err := good.Validate(); err != nil {
		t.Errorf("valid set rejected: %v", err)
	}
}

// mapValidate is TaskSet.Validate as it was before it skipped the ID
// map for increasing IDs: the reference the current one must match.
func mapValidate(ts TaskSet) error {
	if len(ts) == 0 {
		return fmt.Errorf("model: empty task set")
	}
	seen := make(map[int]bool, len(ts))
	for _, t := range ts {
		if err := t.Validate(); err != nil {
			return err
		}
		if seen[t.ID] {
			return fmt.Errorf("model: duplicate task ID %d", t.ID)
		}
		seen[t.ID] = true
	}
	return nil
}

// TestTaskSetValidateMatchesMap holds Validate to the map version on
// seeded random sets: increasing runs broken by out-of-order IDs,
// duplicates (before and after the break) and invalid tasks.
func TestTaskSetValidateMatchesMap(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	errs := map[string]int{}
	for i := 0; i < 20000; i++ {
		ts := make(TaskSet, 1+rng.Intn(12))
		id := rng.Intn(5) - 2
		for k := range ts {
			ts[k] = Task{ID: id, Cycles: 1, Deadline: NoDeadline}
			switch r := rng.Intn(20); {
			case r < 3:
				id -= rng.Intn(4) // a repeat or a step back
			case r == 3:
				ts[k].Cycles = -1
			case r == 4:
				ts[k].Arrival, ts[k].Deadline = 2, 1
			default:
				id += 1 + rng.Intn(3)
			}
		}
		got, want := ts.Validate(), mapValidate(ts)
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("%+v: Validate = %v, map version %v", ts, got, want)
		}
		if want == nil {
			errs["ok"]++
		} else {
			errs[want.Error()[:12]]++
		}
	}
	if errs["ok"] == 0 || errs["model: dupli"] == 0 || errs["model: task "] == 0 {
		t.Fatalf("sets did not cover every outcome: %v", errs)
	}
}

// TestTaskSetValidateIncreasingAllocs requires an ID-ordered set, the
// shape every generator and the judge trace produce, to validate
// without building an ID index.
func TestTaskSetValidateIncreasingAllocs(t *testing.T) {
	ts := make(TaskSet, 1000)
	for i := range ts {
		ts[i] = Task{ID: i, Cycles: 1 + float64(i%7), Deadline: NoDeadline}
	}
	if n := testing.AllocsPerRun(20, func() {
		if err := ts.Validate(); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("validating 1000 ID-ordered tasks: %v allocs/op, want 0", n)
	}
}

func TestTaskSetTotalCycles(t *testing.T) {
	ts := TaskSet{{Cycles: 1.5}, {Cycles: 2.5}, {Cycles: 3}}
	if got := ts.TotalCycles(); got != 7 {
		t.Errorf("TotalCycles = %v, want 7", got)
	}
	if got := (TaskSet{}).TotalCycles(); got != 0 {
		t.Errorf("empty TotalCycles = %v, want 0", got)
	}
}

func TestTaskSetSorts(t *testing.T) {
	mk := func() TaskSet {
		return TaskSet{
			{ID: 1, Cycles: 3},
			{ID: 2, Cycles: 1},
			{ID: 3, Cycles: 2},
			{ID: 4, Cycles: 2},
		}
	}
	asc := mk()
	asc.SortByCyclesAsc()
	wantAsc := []int{2, 3, 4, 1}
	for i, id := range wantAsc {
		if asc[i].ID != id {
			t.Fatalf("asc[%d].ID = %d, want %d", i, asc[i].ID, id)
		}
	}
	desc := mk()
	desc.SortByCyclesDesc()
	wantDesc := []int{1, 3, 4, 2}
	for i, id := range wantDesc {
		if desc[i].ID != id {
			t.Fatalf("desc[%d].ID = %d, want %d", i, desc[i].ID, id)
		}
	}
}

func TestTaskSetByArrival(t *testing.T) {
	ts := TaskSet{
		{ID: 1, Arrival: 5},
		{ID: 2, Arrival: 1},
		{ID: 3, Arrival: 5},
	}
	ts.ByArrival()
	want := []int{2, 1, 3}
	for i, id := range want {
		if ts[i].ID != id {
			t.Fatalf("ByArrival[%d].ID = %d, want %d", i, ts[i].ID, id)
		}
	}
}

func TestTaskSetClone(t *testing.T) {
	ts := TaskSet{{ID: 1, Cycles: 1}}
	c := ts.Clone()
	c[0].Cycles = 99
	if ts[0].Cycles != 1 {
		t.Error("Clone is not a deep copy of the slice")
	}
}

func TestTaskSetSplit(t *testing.T) {
	ts := TaskSet{
		{ID: 1, Interactive: true},
		{ID: 2},
		{ID: 3, Interactive: true},
	}
	in, non := ts.Split()
	if len(in) != 2 || len(non) != 1 {
		t.Fatalf("Split sizes = %d, %d; want 2, 1", len(in), len(non))
	}
	if in[0].ID != 1 || in[1].ID != 3 || non[0].ID != 2 {
		t.Error("Split did not preserve order")
	}
}

// stableOracle sorts like the original TaskSet sorts: sort.SliceStable
// with a (value, ID) comparator.
func stableOracle(ts TaskSet, key func(Task) float64, desc bool) {
	sort.SliceStable(ts, func(i, j int) bool {
		a, b := key(ts[i]), key(ts[j])
		//dvfslint:allow floatcmp the oracle repeats the original comparator
		if a != b {
			if desc {
				return a > b
			}
			return a < b
		}
		return ts[i].ID < ts[j].ID
	})
}

// TestTaskSetSortsMatchStableOracle checks the three TaskSet sorts
// against sort.SliceStable with the original comparators on sets with
// duplicate IDs, equal values, signed zeros and infinite arrivals: the
// orders must agree element for element, so the position tie-break
// reproduces stability exactly.
func TestTaskSetSortsMatchStableOracle(t *testing.T) {
	cycles := func(t Task) float64 { return t.Cycles }
	arrival := func(t Task) float64 { return t.Arrival }
	sorts := []struct {
		name string
		sort func(TaskSet)
		key  func(Task) float64
		desc bool
	}{
		{"SortByCyclesAsc", TaskSet.SortByCyclesAsc, cycles, false},
		{"SortByCyclesDesc", TaskSet.SortByCyclesDesc, cycles, true},
		{"ByArrival", TaskSet.ByArrival, arrival, false},
	}
	special := []float64{0, math.Copysign(0, -1), 1, 2, 3, 1e-300, 1e300, math.Inf(1)}
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 400; trial++ {
		n := rng.Intn(300)
		if trial < 8 {
			n = trial
		}
		ids := 1 + rng.Intn(n+1)
		ts := make(TaskSet, n)
		for i := range ts {
			v := func() float64 {
				switch rng.Intn(3) {
				case 0:
					return special[rng.Intn(len(special))]
				case 1:
					return float64(rng.Intn(4))
				}
				return rng.Float64() * 10
			}
			// Names record the original position, so equal tasks stay
			// distinguishable.
			ts[i] = Task{ID: rng.Intn(ids) - ids/2, Name: fmt.Sprint(i), Cycles: v(), Arrival: v()}
		}
		for _, s := range sorts {
			got, want := ts.Clone(), ts.Clone()
			s.sort(got)
			stableOracle(want, s.key, s.desc)
			for i := range got {
				if got[i].Name != want[i].Name {
					t.Fatalf("trial %d %s (n=%d): position %d holds task from %s, oracle %s", trial, s.name, n, i, got[i].Name, want[i].Name)
				}
			}
		}
	}
}
