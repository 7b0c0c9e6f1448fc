package sim

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"math/rand"
	"testing"

	"dvfsched/internal/model"
	"dvfsched/internal/obs"
	"dvfsched/internal/platform"
	"dvfsched/internal/power"
)

// cpFIFO is a checkpointable variant of the test FIFO policy: queue in
// arrival order, first idle core, and a level that alternates by task
// ID parity so runs exercise DVFS switches. Its only state is the
// queue, serialized as task-table indices.
type cpFIFO struct {
	queue []*TaskState
}

func (f *cpFIFO) Name() string   { return "cp-fifo" }
func (f *cpFIFO) Init(e *Engine) {}
func (f *cpFIFO) OnTick(e *Engine) {
	// Nudge an idle core's level around so tick events have visible
	// consequences that must survive a checkpoint.
	for i := 0; i < e.NumCores(); i++ {
		if e.Idle(i) {
			if err := e.SetLevel(i, e.RateTable(i).Min()); err != nil {
				panic(err)
			}
			return
		}
	}
}
func (f *cpFIFO) OnArrival(e *Engine, t *TaskState)           { f.queue = append(f.queue, t); f.drain(e) }
func (f *cpFIFO) OnCompletion(e *Engine, _ int, _ *TaskState) { f.drain(e) }
func (f *cpFIFO) drain(e *Engine) {
	for i := 0; i < e.NumCores() && len(f.queue) > 0; i++ {
		if !e.Idle(i) {
			continue
		}
		t := f.queue[0]
		f.queue = f.queue[1:]
		rt := e.RateTable(i)
		level := rt.Max()
		if t.Task.ID%2 == 0 {
			level = rt.Min()
		}
		if err := e.Start(i, t, level); err != nil {
			panic(err)
		}
	}
}

func (f *cpFIFO) SnapshotPolicy(taskIndex func(*TaskState) int) ([]byte, error) {
	b := binary.AppendUvarint(nil, uint64(len(f.queue)))
	for _, t := range f.queue {
		b = binary.AppendUvarint(b, uint64(taskIndex(t)))
	}
	return b, nil
}

func (f *cpFIFO) RestorePolicy(data []byte, taskAt func(int) *TaskState) error {
	n, w := binary.Uvarint(data)
	if w <= 0 {
		return fmt.Errorf("cp-fifo: bad queue length")
	}
	data = data[w:]
	f.queue = make([]*TaskState, 0, n)
	for i := uint64(0); i < n; i++ {
		idx, w := binary.Uvarint(data)
		if w <= 0 {
			return fmt.Errorf("cp-fifo: truncated queue entry %d", i)
		}
		data = data[w:]
		f.queue = append(f.queue, taskAt(int(idx)))
	}
	if len(data) != 0 {
		return fmt.Errorf("cp-fifo: %d trailing bytes", len(data))
	}
	return nil
}

// checkpointTasks builds a deterministic workload that keeps 3 cores
// oversubscribed: mixed lengths, staggered arrivals, both level
// parities.
func checkpointTasks() model.TaskSet {
	rng := rand.New(rand.NewSource(7)) // deterministic workload, not randomness
	tasks := make(model.TaskSet, 40)
	for i := range tasks {
		tasks[i] = model.Task{
			ID:          i + 1,
			Name:        fmt.Sprintf("job-%d", i+1),
			Cycles:      rng.Float64()*20 + 0.5,
			Arrival:     rng.Float64() * 8,
			Deadline:    model.NoDeadline,
			Interactive: i%3 == 0,
		}
	}
	return tasks
}

func traceBytes(events []obs.Event) []byte {
	var b []byte
	for _, ev := range events {
		b = ev.AppendJSON(b)
		b = append(b, '\n')
	}
	return b
}

// suffixAfter returns the events with Seq > seq.
func suffixAfter(events []obs.Event, seq uint64) []obs.Event {
	for i, ev := range events {
		if ev.Seq > seq {
			return events[i:]
		}
	}
	return nil
}

func sameResult(t *testing.T, a, b *Result) {
	t.Helper()
	type pair struct {
		name string
		x, y float64
	}
	for _, p := range []pair{
		{"ActiveEnergy", a.ActiveEnergy, b.ActiveEnergy},
		{"IdleEnergy", a.IdleEnergy, b.IdleEnergy},
		{"TotalEnergy", a.TotalEnergy, b.TotalEnergy},
		{"Makespan", a.Makespan, b.Makespan},
		{"TurnaroundSum", a.TurnaroundSum, b.TurnaroundSum},
		{"TotalCost", a.TotalCost, b.TotalCost},
	} {
		if math.Float64bits(p.x) != math.Float64bits(p.y) {
			t.Errorf("%s: %v vs %v (not bit-equal)", p.name, p.x, p.y)
		}
	}
	if a.Switches != b.Switches || a.Preemptions != b.Preemptions {
		t.Errorf("switches/preemptions: %d/%d vs %d/%d", a.Switches, a.Preemptions, b.Switches, b.Preemptions)
	}
	if len(a.Tasks) != len(b.Tasks) {
		t.Fatalf("task counts: %d vs %d", len(a.Tasks), len(b.Tasks))
	}
	for i := range a.Tasks {
		x, y := a.Tasks[i], b.Tasks[i]
		if x.Task != y.Task || x.Done != y.Done || x.Preemptions != y.Preemptions ||
			math.Float64bits(x.Energy) != math.Float64bits(y.Energy) ||
			math.Float64bits(x.Completion) != math.Float64bits(y.Completion) ||
			math.Float64bits(x.FirstStart) != math.Float64bits(y.FirstStart) {
			t.Errorf("task %d state differs: %+v vs %+v", x.Task.ID, x, y)
		}
	}
}

// TestSessionSnapshotRestoreEquivalence is the core recovery property:
// snapshot at time t, serialize, restore into a fresh session, and the
// restored run's trace is byte-identical (via AppendJSON) to the
// uninterrupted run's suffix — including events from a batch injected
// after the cut into both sessions.
func TestSessionSnapshotRestoreEquivalence(t *testing.T) {
	ctx := context.Background()
	for _, cut := range []float64{0.3, 1.7, 4.7} {
		t.Run(fmt.Sprintf("cut=%v", cut), func(t *testing.T) {
			recA := &obs.Recorder{}
			cfgA := Config{
				Platform:     platform.Homogeneous(3, table2(), platform.DefaultRealistic()),
				Policy:       &cpFIFO{},
				TickInterval: 0.25,
				Sink:         recA,
			}
			sA, err := OpenSession(cfgA, paperParams)
			if err != nil {
				t.Fatal(err)
			}
			if err := sA.Inject(checkpointTasks()); err != nil {
				t.Fatal(err)
			}
			if err := sA.AdvanceTo(ctx, cut); err != nil {
				t.Fatal(err)
			}

			cp, err := sA.Snapshot()
			if err != nil {
				t.Fatal(err)
			}
			wire, err := cp.MarshalBinary()
			if err != nil {
				t.Fatal(err)
			}
			cp2, err := UnmarshalCheckpoint(wire)
			if err != nil {
				t.Fatal(err)
			}
			// The wire format is a fixed point: re-marshaling the decoded
			// checkpoint reproduces the bytes exactly.
			wire2, err := cp2.MarshalBinary()
			if err != nil {
				t.Fatal(err)
			}
			if string(wire) != string(wire2) {
				t.Fatal("re-marshaled checkpoint differs")
			}

			recB := &obs.Recorder{}
			cfgB := cfgA
			cfgB.Policy = &cpFIFO{}
			cfgB.Sink = recB
			sB, err := RestoreSession(cfgB, paperParams, cp2)
			if err != nil {
				t.Fatal(err)
			}
			if math.Float64bits(sB.Clock()) != math.Float64bits(sA.Clock()) {
				t.Fatalf("restored clock %v, want %v", sB.Clock(), sA.Clock())
			}
			if sB.Pending() != sA.Pending() {
				t.Fatalf("restored pending %d, want %d", sB.Pending(), sA.Pending())
			}

			// A restored session keeps the ID history: re-injecting a used
			// ID must fail exactly as on the original.
			if err := sB.Inject(model.TaskSet{{ID: 1, Cycles: 1, Arrival: cut + 1, Deadline: model.NoDeadline}}); err == nil {
				t.Fatal("restored session accepted a duplicate task ID")
			}

			// Feed a post-snapshot batch to BOTH sessions: recovery must
			// hold for work that arrives after the checkpoint too.
			late := model.TaskSet{
				{ID: 101, Name: "late-a", Cycles: 6, Arrival: cut + 0.4, Deadline: model.NoDeadline},
				{ID: 102, Name: "late-b", Cycles: 2.5, Arrival: cut + 1.1, Deadline: model.NoDeadline, Interactive: true},
			}
			if err := sA.Inject(late); err != nil {
				t.Fatal(err)
			}
			if err := sB.Inject(late); err != nil {
				t.Fatal(err)
			}

			resA, err := sA.Finish(ctx)
			if err != nil {
				t.Fatal(err)
			}
			resB, err := sB.Finish(ctx)
			if err != nil {
				t.Fatal(err)
			}
			sameResult(t, resA, resB)

			want := traceBytes(suffixAfter(recA.Events(), cp.EvSeq))
			got := traceBytes(recB.Events())
			if len(got) == 0 {
				t.Fatal("restored session emitted no events")
			}
			if string(want) != string(got) {
				t.Fatalf("trace suffix diverged:\noriginal %d bytes, restored %d bytes", len(want), len(got))
			}
		})
	}
}

func TestSnapshotRefusals(t *testing.T) {
	open := func(cfg Config) *Session {
		t.Helper()
		if cfg.Platform == nil {
			cfg.Platform = platform.Homogeneous(2, table2(), platform.Ideal{})
		}
		if cfg.Policy == nil {
			cfg.Policy = &cpFIFO{}
		}
		s, err := OpenSession(cfg, paperParams)
		if err != nil {
			t.Fatal(err)
		}
		return s
	}

	s := open(Config{})
	if err := s.Inject(model.TaskSet{{ID: 1, Cycles: 1, Deadline: model.NoDeadline}}); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Finish(context.Background()); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Snapshot(); !errors.Is(err, ErrSessionFinished) {
		t.Errorf("finished session: got %v", err)
	}

	if _, err := open(Config{Meter: power.NewMeter(0.1, 0)}).Snapshot(); !errors.Is(err, ErrNotCheckpointable) {
		t.Errorf("meter session: got %v", err)
	}
	if _, err := open(Config{RecordTimeline: true}).Snapshot(); !errors.Is(err, ErrNotCheckpointable) {
		t.Errorf("timeline session: got %v", err)
	}
	if _, err := open(Config{Policy: newFIFO()}).Snapshot(); !errors.Is(err, ErrNotCheckpointable) {
		t.Errorf("plain policy: got %v", err)
	}
}

// midrunCheckpoint opens a session, runs it partway, and returns its
// checkpoint plus the config it was captured under.
func midrunCheckpoint(t *testing.T) (Config, *Checkpoint) {
	t.Helper()
	cfg := Config{
		Platform:     platform.Homogeneous(3, table2(), platform.DefaultRealistic()),
		Policy:       &cpFIFO{},
		TickInterval: 0.25,
	}
	s, err := OpenSession(cfg, paperParams)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Inject(checkpointTasks()); err != nil {
		t.Fatal(err)
	}
	if err := s.AdvanceTo(context.Background(), 3); err != nil {
		t.Fatal(err)
	}
	cp, err := s.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	return cfg, cp
}

func TestRestoreRejectsMismatches(t *testing.T) {
	cfg, cp := midrunCheckpoint(t)
	fresh := func() Config {
		c := cfg
		c.Policy = &cpFIFO{}
		return c
	}

	if _, err := RestoreSession(fresh(), paperParams, nil); err == nil {
		t.Error("nil checkpoint accepted")
	}

	bad := *cp
	bad.PolicyName = "someone-else"
	if _, err := RestoreSession(fresh(), paperParams, &bad); err == nil {
		t.Error("policy-name mismatch accepted")
	}

	c := fresh()
	c.Platform = platform.Homogeneous(2, table2(), platform.DefaultRealistic())
	if _, err := RestoreSession(c, paperParams, cp); err == nil {
		t.Error("core-count mismatch accepted")
	}

	c = fresh()
	c.Policy = newFIFO()
	if _, err := RestoreSession(c, paperParams, cp); !errors.Is(err, ErrNotCheckpointable) {
		t.Errorf("non-checkpointable restore policy: got %v", err)
	}

	if len(cp.Events) >= 2 {
		bad = *cp
		bad.Events = append([]EventState(nil), cp.Events...)
		bad.Events[0].Time = 1e18 // root later than its children
		if _, err := RestoreSession(fresh(), paperParams, &bad); err == nil {
			t.Error("heap-order violation accepted")
		}
	} else {
		t.Error("mid-run checkpoint unexpectedly has fewer than 2 queued events")
	}

	bad = *cp
	bad.Cores = append([]CoreCheckpoint(nil), cp.Cores...)
	bad.Cores[0].LevelIdx = 99
	if _, err := RestoreSession(fresh(), paperParams, &bad); err == nil {
		t.Error("out-of-range level index accepted")
	}

	bad = *cp
	bad.Active++
	if _, err := RestoreSession(fresh(), paperParams, &bad); err == nil {
		t.Error("active-count mismatch accepted")
	}

	res0 := cp.Cores[0].Residency
	if len(res0) == 0 {
		t.Fatal("mid-run checkpoint has no residency on core 0")
	}
	bad = *cp
	bad.Cores = append([]CoreCheckpoint(nil), cp.Cores...)
	bad.Cores[0].Residency = append(append([]RateSeconds(nil), res0...), RateSeconds{Rate: 123.456, Seconds: 7})
	if _, err := RestoreSession(fresh(), paperParams, &bad); err == nil {
		t.Error("residency at a rate outside the core's table accepted")
	}

	bad = *cp
	bad.Cores = append([]CoreCheckpoint(nil), cp.Cores...)
	bad.Cores[0].Residency = append(append([]RateSeconds(nil), res0...), res0[0])
	if _, err := RestoreSession(fresh(), paperParams, &bad); err == nil {
		t.Error("residency listing a rate twice accepted")
	}
}

func TestUnmarshalCheckpointErrors(t *testing.T) {
	_, cp := midrunCheckpoint(t)
	wire, err := cp.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}

	if _, err := UnmarshalCheckpoint(nil); !errors.Is(err, ErrCheckpointMagic) {
		t.Errorf("empty: got %v", err)
	}

	bad := append([]byte(nil), wire...)
	bad[0] ^= 0xff
	if _, err := UnmarshalCheckpoint(bad); !errors.Is(err, ErrCheckpointMagic) {
		t.Errorf("bad magic: got %v", err)
	}

	bad = append([]byte(nil), wire...)
	bad[4] = 99
	if _, err := UnmarshalCheckpoint(bad); !errors.Is(err, ErrCheckpointVersion) {
		t.Errorf("bad version: got %v", err)
	}

	bad = append([]byte(nil), wire...)
	bad[len(bad)/2] ^= 0x10
	if _, err := UnmarshalCheckpoint(bad); !errors.Is(err, ErrCheckpointChecksum) {
		t.Errorf("flipped payload byte: got %v", err)
	}

	if _, err := UnmarshalCheckpoint(wire[:len(wire)-7]); !errors.Is(err, ErrCheckpointChecksum) {
		t.Errorf("truncated: got %v", err)
	}

	// A structurally truncated payload with a VALID checksum must fail
	// with the corrupt error: magic + version + an unterminated varint.
	body := []byte{'D', 'V', 'S', 'C', checkpointVersion, 0x80}
	body = binary.LittleEndian.AppendUint32(body, crc32.ChecksumIEEE(body))
	if _, err := UnmarshalCheckpoint(body); !errors.Is(err, ErrCheckpointCorrupt) {
		t.Errorf("corrupt payload: got %v", err)
	}
}
