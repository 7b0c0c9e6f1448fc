package obs

import (
	"bytes"
	"math"
	"reflect"
	"strings"
	"sync"
	"testing"
)

func TestJSONLRoundTrip(t *testing.T) {
	in := []Event{
		{Seq: 1, T: 0, Kind: KindArrival, Core: -1, Task: 7, Cycles: 12.5, Interactive: true},
		{Seq: 2, T: 0, Kind: KindStart, Core: 0, Task: 7, Rate: 3.0, Eff: 0.001, Energy: 0, Remaining: 12.5},
		{Seq: 3, T: 1.25, Kind: KindDVFS, Core: 0, Task: 7, PrevRate: 3.0, Rate: 1.6, Eff: 1.251},
		{Seq: 4, T: 4.125, Kind: KindComplete, Core: 0, Task: 7, Energy: 88.75},
		{Seq: 5, T: 4.125, Kind: KindCoreIdle, Core: 0, Task: -1},
	}
	var buf bytes.Buffer
	w := NewJSONLWriter(&buf)
	for _, ev := range in {
		w.Emit(ev)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	out, err := ReadJSONL(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(in, out) {
		t.Errorf("round trip mismatch:\n in: %+v\nout: %+v", in, out)
	}
}

func TestJSONLReadSkipsBlankLines(t *testing.T) {
	src := "\n" + `{"seq":1,"t":0,"kind":"arrival","core":-1,"task":1}` + "\n\n"
	events, err := ReadJSONL(strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	if len(events) != 1 || events[0].Kind != KindArrival {
		t.Errorf("events = %+v", events)
	}
}

func TestJSONLReadRejectsGarbage(t *testing.T) {
	if _, err := ReadJSONL(strings.NewReader("not json\n")); err == nil {
		t.Error("want error for malformed line")
	}
}

type failWriter struct{ n int }

func (f *failWriter) Write(p []byte) (int, error) {
	f.n += len(p)
	if f.n > 16 {
		return 0, bytes.ErrTooLarge
	}
	return len(p), nil
}

func TestJSONLWriterStickyError(t *testing.T) {
	w := NewJSONLWriter(&failWriter{})
	for i := 0; i < 100; i++ {
		w.Emit(Event{Seq: uint64(i + 1), Kind: KindArrival, Core: -1, Task: i})
	}
	if err := w.Close(); err == nil {
		t.Error("want sticky write error")
	}
	if w.Err() == nil {
		t.Error("Err() should report the failure")
	}
}

func TestMultiDropsNilsAndFansOut(t *testing.T) {
	if Multi(nil, nil) != nil {
		t.Error("Multi of nils should be nil")
	}
	r := &Recorder{}
	if got := Multi(nil, r); got != Sink(r) {
		t.Error("Multi with a single sink should return it unchanged")
	}
	r2 := &Recorder{}
	m := Multi(r, nil, r2)
	m.Emit(Event{Seq: 1, Kind: KindArrival, Core: -1, Task: 0})
	Commit(m)
	if r.Len() != 1 || r2.Len() != 1 {
		t.Errorf("fan-out failed: %d, %d", r.Len(), r2.Len())
	}
}

func TestEffectiveAt(t *testing.T) {
	if got := (Event{T: 2}).EffectiveAt(); got != 2 {
		t.Errorf("unset Eff: got %v", got)
	}
	if got := (Event{T: 2, Eff: 2.5}).EffectiveAt(); got != 2.5 {
		t.Errorf("set Eff: got %v", got)
	}
}

func TestCounterGaugeHistogramConcurrent(t *testing.T) {
	reg := NewRegistry()
	const workers, each = 8, 1000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := reg.Counter("c")
			g := reg.Gauge("g")
			h := reg.Histogram("h", []float64{0.5, 1.5})
			for i := 0; i < each; i++ {
				c.Add(0.5)
				g.Add(1)
				g.Add(-1)
				h.Observe(1)
				_ = reg.Snapshot()
			}
		}()
	}
	wg.Wait()
	if got := reg.Counter("c").Value(); math.Abs(got-workers*each*0.5) > 1e-9 {
		t.Errorf("counter = %v", got)
	}
	if got := reg.Gauge("g").Value(); got != 0 {
		t.Errorf("gauge = %v", got)
	}
	hs := reg.Histogram("h", nil).Snapshot()
	if hs.Count != workers*each || hs.Sum != workers*each {
		t.Errorf("histogram = %+v", hs)
	}
	if hs.Counts[1] != workers*each { // 1 falls in the (0.5, 1.5] bucket
		t.Errorf("bucket counts = %v", hs.Counts)
	}
	if hs.Min != 1 || hs.Max != 1 {
		t.Errorf("min/max = %v/%v", hs.Min, hs.Max)
	}
}

func TestCounterIgnoresNegative(t *testing.T) {
	var c Counter
	c.Add(3)
	c.Add(-1)
	c.Add(math.NaN())
	if c.Value() != 3 {
		t.Errorf("counter = %v", c.Value())
	}
}

func TestRegistryWriteJSONDeterministic(t *testing.T) {
	mk := func() *Registry {
		reg := NewRegistry()
		reg.Counter("b").Add(2)
		reg.Counter("a").Add(1)
		reg.Gauge("z").Set(-4)
		reg.Histogram("h", []float64{1, 10}).Observe(3)
		return reg
	}
	var b1, b2 bytes.Buffer
	if err := mk().WriteJSON(&b1); err != nil {
		t.Fatal(err)
	}
	if err := mk().WriteJSON(&b2); err != nil {
		t.Fatal(err)
	}
	if b1.String() != b2.String() {
		t.Error("WriteJSON not deterministic")
	}
	for _, want := range []string{`"a": 1`, `"b": 2`, `"z": -4`, `"histograms"`} {
		if !strings.Contains(b1.String(), want) {
			t.Errorf("missing %q in:\n%s", want, b1.String())
		}
	}
}

// emitAll feeds a consistent two-task, one-core run into sink.
func emitAll(sink Sink) {
	for _, ev := range []Event{
		{Seq: 1, T: 0, Kind: KindArrival, Core: -1, Task: 1, Cycles: 10},
		{Seq: 2, T: 0, Kind: KindStart, Core: 0, Task: 1, Rate: 3, Remaining: 10},
		{Seq: 3, T: 0, Kind: KindCoreActive, Core: 0, Task: 1},
		{Seq: 4, T: 1, Kind: KindArrival, Core: -1, Task: 2, Cycles: 5, Interactive: true},
		{Seq: 5, T: 1, Kind: KindPreempt, Core: 0, Task: 1, Remaining: 7, Energy: 21.3},
		{Seq: 6, T: 1, Kind: KindCoreIdle, Core: 0, Task: -1},
		{Seq: 7, T: 1, Kind: KindStart, Core: 0, Task: 2, Rate: 3, Remaining: 5},
		{Seq: 8, T: 1, Kind: KindCoreActive, Core: 0, Task: 2},
		{Seq: 9, T: 2.65, Kind: KindComplete, Core: 0, Task: 2, Energy: 35.5},
		{Seq: 10, T: 2.65, Kind: KindCoreIdle, Core: 0, Task: -1},
		{Seq: 11, T: 2.65, Kind: KindStart, Core: 0, Task: 1, Rate: 3, Remaining: 7, Energy: 21.3},
		{Seq: 12, T: 2.65, Kind: KindCoreActive, Core: 0, Task: 1},
		{Seq: 13, T: 4.96, Kind: KindComplete, Core: 0, Task: 1, Energy: 71},
		{Seq: 14, T: 4.96, Kind: KindCoreIdle, Core: 0, Task: -1},
	} {
		sink.Emit(ev)
	}
}

func TestInvariantSinkAcceptsConsistentStream(t *testing.T) {
	inv := NewInvariantSink()
	emitAll(inv)
	if err := inv.Err(); err != nil {
		t.Errorf("unexpected violations: %v", err)
	}
	if inv.Violations() != 0 {
		t.Errorf("Violations() = %d", inv.Violations())
	}
}

func TestInvariantSinkDetectsViolations(t *testing.T) {
	cases := []struct {
		name   string
		events []Event
	}{
		{"double occupancy", []Event{
			{Seq: 1, T: 0, Kind: KindArrival, Core: -1, Task: 1, Cycles: 1},
			{Seq: 2, T: 0, Kind: KindArrival, Core: -1, Task: 2, Cycles: 1},
			{Seq: 3, T: 0, Kind: KindStart, Core: 0, Task: 1, Rate: 3, Remaining: 1},
			{Seq: 4, T: 0, Kind: KindStart, Core: 0, Task: 2, Rate: 3, Remaining: 1},
		}},
		{"time reversal", []Event{
			{Seq: 1, T: 5, Kind: KindArrival, Core: -1, Task: 1, Cycles: 1},
			{Seq: 2, T: 4, Kind: KindStart, Core: 0, Task: 1, Rate: 3, Remaining: 1},
		}},
		{"start before arrival", []Event{
			{Seq: 1, T: 0, Kind: KindStart, Core: 0, Task: 1, Rate: 3, Remaining: 1},
		}},
		{"completion without start", []Event{
			{Seq: 1, T: 0, Kind: KindArrival, Core: -1, Task: 1, Cycles: 1},
			{Seq: 2, T: 1, Kind: KindComplete, Core: 0, Task: 1, Energy: 1},
		}},
		{"energy decrease", []Event{
			{Seq: 1, T: 0, Kind: KindArrival, Core: -1, Task: 1, Cycles: 9},
			{Seq: 2, T: 0, Kind: KindStart, Core: 0, Task: 1, Rate: 3, Remaining: 9},
			{Seq: 3, T: 1, Kind: KindPreempt, Core: 0, Task: 1, Remaining: 5, Energy: 10},
			{Seq: 4, T: 2, Kind: KindStart, Core: 0, Task: 1, Rate: 3, Remaining: 5, Energy: 4},
		}},
		{"remaining grows", []Event{
			{Seq: 1, T: 0, Kind: KindArrival, Core: -1, Task: 1, Cycles: 9},
			{Seq: 2, T: 0, Kind: KindStart, Core: 0, Task: 1, Rate: 3, Remaining: 9},
			{Seq: 3, T: 1, Kind: KindPreempt, Core: 0, Task: 1, Remaining: 12},
		}},
		{"seq not increasing", []Event{
			{Seq: 2, T: 0, Kind: KindArrival, Core: -1, Task: 1, Cycles: 1},
			{Seq: 2, T: 0, Kind: KindArrival, Core: -1, Task: 2, Cycles: 1},
		}},
		{"idle while busy", []Event{
			{Seq: 1, T: 0, Kind: KindArrival, Core: -1, Task: 1, Cycles: 1},
			{Seq: 2, T: 0, Kind: KindStart, Core: 0, Task: 1, Rate: 3, Remaining: 1},
			{Seq: 3, T: 0, Kind: KindCoreIdle, Core: 0, Task: -1},
		}},
		{"dvfs no-op", []Event{
			{Seq: 1, T: 0, Kind: KindDVFS, Core: 0, Task: -1, PrevRate: 2, Rate: 2},
		}},
		{"complete with remaining", []Event{
			{Seq: 1, T: 0, Kind: KindArrival, Core: -1, Task: 1, Cycles: 4},
			{Seq: 2, T: 0, Kind: KindStart, Core: 0, Task: 1, Rate: 3, Remaining: 4},
			{Seq: 3, T: 1, Kind: KindComplete, Core: 0, Task: 1, Remaining: 2, Energy: 1},
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			inv := NewInvariantSink()
			var seen int
			inv.OnViolation = func(error) { seen++ }
			for _, ev := range tc.events {
				inv.Emit(ev)
			}
			if inv.Err() == nil {
				t.Error("violation not detected")
			}
			if seen == 0 {
				t.Error("OnViolation not invoked")
			}
		})
	}
}

func TestInvariantSinkCapsViolations(t *testing.T) {
	inv := NewInvariantSink()
	for i := 0; i < 2*maxViolations; i++ {
		// Every start lacks an arrival: one violation each (plus
		// occupancy clashes), far past the cap.
		inv.Emit(Event{Seq: uint64(i + 1), Kind: KindStart, Core: 0, Task: i, Rate: 1})
	}
	if inv.Violations() <= maxViolations {
		t.Errorf("Violations() = %d, want > %d", inv.Violations(), maxViolations)
	}
	if inv.Err() == nil {
		t.Error("want joined error")
	}
}

func TestMetricsSinkDerivesMetrics(t *testing.T) {
	reg := NewRegistry()
	emitAll(NewMetricsSink(reg))
	s := reg.Snapshot()
	checks := map[string]float64{
		"sim.tasks.arrived":             2,
		"sim.tasks.interactive_arrived": 1,
		"sim.tasks.started":             3,
		"sim.tasks.preempted":           1,
		"sim.tasks.completed":           2,
		"sim.energy_j":                  71 + 35.5,
		"sim.core0.busy_seconds":        4.96,
	}
	for name, want := range checks {
		if got := s.Counters[name]; math.Abs(got-want) > 1e-9 {
			t.Errorf("%s = %v, want %v", name, got, want)
		}
	}
	if got := s.Gauges["sim.active_cores"]; got != 0 {
		t.Errorf("active_cores = %v at quiesce", got)
	}
	h := s.Histograms["sim.turnaround_s"]
	if h.Count != 2 {
		t.Errorf("turnaround count = %d", h.Count)
	}
	// Task 2 waited 1 -> 2.65 (1.65 s), task 1 waited 0 -> 4.96.
	if math.Abs(h.Sum-(1.65+4.96)) > 1e-9 {
		t.Errorf("turnaround sum = %v", h.Sum)
	}
}
