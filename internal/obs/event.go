// Package obs is the observability layer of the simulator and the
// schedulers: a structured event stream describing a schedule as it
// unfolds (task arrivals, starts, preemptions, completions, DVFS level
// changes, core idle/active transitions), pluggable sinks consuming
// that stream, a goroutine-safe metrics registry (counters, gauges,
// histograms), and an invariant-checking sink that validates
// conservation properties online.
//
// The package depends only on the standard library so every layer of
// the system — the engine hot path, the schedulers, the CLIs — can
// emit into it without import cycles. Events carry enough information
// that a run's report (Gantt chart, per-segment CSV) is a pure
// function of its trace: package report replays a JSONL event dump
// into the same renderings it produces from a live simulation.
package obs

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"strconv"
	"sync"
	"unicode/utf8"
)

// Kind classifies an event.
type Kind string

// Event kinds. The schema is append-only: new kinds may be added, but
// existing kinds and their field meanings stay stable so persisted
// traces remain replayable.
const (
	// KindArrival: a task entered the system (Task, Cycles,
	// Interactive set; Core is -1).
	KindArrival Kind = "arrival"
	// KindStart: a task started (or resumed) on Core at Rate. Eff is
	// the instant execution effectively begins after any frequency-
	// switch stall; Energy is the task's cumulative joules so far
	// (non-zero when resuming) and Remaining its outstanding Gcycles.
	KindStart Kind = "start"
	// KindPreempt: the task running on Core was paused with Remaining
	// Gcycles left; Energy is its cumulative joules.
	KindPreempt Kind = "preempt"
	// KindComplete: the task running on Core finished; Energy is its
	// final joules.
	KindComplete Kind = "complete"
	// KindDVFS: Core's frequency changed from PrevRate to Rate. Eff is
	// when the new rate takes effect (after the switch stall) for a
	// running task; Task is the affected task or -1 if the core was
	// idle.
	KindDVFS Kind = "dvfs"
	// KindCoreActive: Core transitioned idle -> busy.
	KindCoreActive Kind = "core-active"
	// KindCoreIdle: Core transitioned busy -> idle.
	KindCoreIdle Kind = "core-idle"
)

// Event is one element of the structured event stream. Times are
// virtual-simulation seconds. Core and Task use -1 when the event is
// not scoped to a core or task.
type Event struct {
	// Seq is the 1-based emission index; strictly increasing within a
	// run.
	Seq uint64 `json:"seq"`
	// T is the event time in seconds.
	T float64 `json:"t"`
	// Kind classifies the event.
	Kind Kind `json:"kind"`
	// Core is the core index, or -1.
	Core int `json:"core"`
	// Task is the task ID, or -1.
	Task int `json:"task"`
	// Rate is the (new) processing rate in GHz, for start/dvfs events.
	Rate float64 `json:"rate,omitempty"`
	// PrevRate is the rate before a dvfs event, in GHz.
	PrevRate float64 `json:"prevRate,omitempty"`
	// Eff is the instant the event's effect reaches execution (start
	// of charged cycles after a switch stall); 0 means "equal to T".
	Eff float64 `json:"eff,omitempty"`
	// Cycles is the task's total length in Gcycles.
	Cycles float64 `json:"cycles,omitempty"`
	// Remaining is the task's outstanding Gcycles at the event.
	Remaining float64 `json:"remaining,omitempty"`
	// Energy is the task's cumulative consumed joules at the event.
	Energy float64 `json:"energy,omitempty"`
	// Interactive marks interactive (user-initiated) tasks.
	Interactive bool `json:"interactive,omitempty"`
}

// EffectiveAt returns when the event's effect reaches execution: Eff
// if set, else T (no stall).
func (ev Event) EffectiveAt() float64 {
	if ev.Eff > ev.T {
		return ev.Eff
	}
	return ev.T
}

// AppendJSON appends the event's JSON encoding to b and returns the
// extended slice, producing bytes identical to encoding/json.Marshal
// (same field order, omitempty semantics, float format and string
// escaping) without allocating. It is the serving fast path for
// streaming session traces: the HTTP events endpoint and JSONLWriter
// frame thousands of events per response, and a pooled buffer plus
// this appender keeps that loop allocation-free. Non-finite floats
// (which the engine never emits) encode as null instead of failing.
func (ev Event) AppendJSON(b []byte) []byte {
	b = append(b, `{"seq":`...)
	b = strconv.AppendUint(b, ev.Seq, 10)
	b = append(b, `,"t":`...)
	b = AppendJSONFloat(b, ev.T)
	b = append(b, `,"kind":`...)
	b = AppendJSONString(b, string(ev.Kind))
	b = append(b, `,"core":`...)
	b = strconv.AppendInt(b, int64(ev.Core), 10)
	b = append(b, `,"task":`...)
	b = strconv.AppendInt(b, int64(ev.Task), 10)
	if ev.Rate != 0 {
		b = append(b, `,"rate":`...)
		b = AppendJSONFloat(b, ev.Rate)
	}
	if ev.PrevRate != 0 {
		b = append(b, `,"prevRate":`...)
		b = AppendJSONFloat(b, ev.PrevRate)
	}
	if ev.Eff != 0 {
		b = append(b, `,"eff":`...)
		b = AppendJSONFloat(b, ev.Eff)
	}
	if ev.Cycles != 0 {
		b = append(b, `,"cycles":`...)
		b = AppendJSONFloat(b, ev.Cycles)
	}
	if ev.Remaining != 0 {
		b = append(b, `,"remaining":`...)
		b = AppendJSONFloat(b, ev.Remaining)
	}
	if ev.Energy != 0 {
		b = append(b, `,"energy":`...)
		b = AppendJSONFloat(b, ev.Energy)
	}
	if ev.Interactive {
		b = append(b, `,"interactive":true`...)
	}
	return append(b, '}')
}

// AppendJSONFloat appends f exactly as encoding/json encodes a
// float64: shortest round-tripping decimal, 'f' form except for very
// small or very large magnitudes, with the exponent's leading zero
// stripped ("e+09" -> "e+9"). Non-finite values become null.
func AppendJSONFloat(b []byte, f float64) []byte {
	if math.IsNaN(f) || math.IsInf(f, 0) {
		return append(b, "null"...)
	}
	abs := math.Abs(f)
	format := byte('f')
	if abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if format == 'e' {
		if n := len(b); n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
			b[n-2] = b[n-1]
			b = b[:n-1]
		}
	}
	return b
}

// jsonSafe marks the bytes that pass through encoding/json's string
// encoder unescaped (with HTML escaping on, its default): printable
// ASCII except ", \, <, >, &.
var jsonSafe = func() (t [256]bool) {
	for c := 0x20; c < 0x80; c++ {
		t[c] = true
	}
	t['"'], t['\\'], t['<'], t['>'], t['&'] = false, false, false, false, false
	return
}()

const hexDigits = "0123456789abcdef"

// AppendJSONString appends s as a JSON string literal, byte-identical
// to encoding/json (including its HTML-escaping of <, >, &). The fast
// path copies safe runs; escapes fall back per byte. Invalid UTF-8 is
// replaced with U+FFFD like the standard encoder.
func AppendJSONString(b []byte, s string) []byte {
	b = append(b, '"')
	start := 0
	for i := 0; i < len(s); {
		c := s[i]
		if c < utf8.RuneSelf {
			if jsonSafe[c] {
				i++
				continue
			}
			b = append(b, s[start:i]...)
			switch c {
			case '"', '\\':
				b = append(b, '\\', c)
			case '\n':
				b = append(b, '\\', 'n')
			case '\r':
				b = append(b, '\\', 'r')
			case '\t':
				b = append(b, '\\', 't')
			default:
				// Control characters and the HTML-sensitive <, >, &.
				b = append(b, '\\', 'u', '0', '0', hexDigits[c>>4], hexDigits[c&0xf])
			}
			i++
			start = i
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		if r == utf8.RuneError && size == 1 {
			b = append(b, s[start:i]...)
			b = append(b, '\\', 'u', 'f', 'f', 'f', 'd')
			i += size
			start = i
			continue
		}
		// encoding/json escapes U+2028/U+2029 for JS embedding.
		if r == '\u2028' || r == '\u2029' {
			b = append(b, s[start:i]...)
			b = append(b, '\\', 'u', '2', '0', '2', hexDigits[r&0xf])
			i += size
			start = i
			continue
		}
		i += size
	}
	b = append(b, s[start:]...)
	return append(b, '"')
}

// Sink consumes an event stream. Emit is called from the simulator's
// event loop at every instrumented transition; implementations must
// not call back into the engine.
type Sink interface {
	Emit(Event)
}

// Committer is a Sink that publishes what it received at operation
// boundaries: its readers see the stream as of its last Commit, never
// the head of an operation still emitting. The engine commits its sink
// at the end of every call that advances a session, so a reader never
// sees part of a submit or a drain.
type Committer interface {
	Sink
	Commit()
}

// Commit commits s if it is a Committer; other sinks publish as they
// receive.
func Commit(s Sink) {
	if c, ok := s.(Committer); ok {
		c.Commit()
	}
}

// multiSink fans one stream out to several sinks.
type multiSink []Sink

func (m multiSink) Emit(ev Event) {
	for _, s := range m {
		s.Emit(ev)
	}
}

// Commit forwards a commit to every sink that takes one.
func (m multiSink) Commit() {
	for _, s := range m {
		Commit(s)
	}
}

// Multi combines sinks into one; nil entries are dropped. It returns
// nil when no sink remains, and the sink itself when only one does.
func Multi(sinks ...Sink) Sink {
	var ms multiSink
	for _, s := range sinks {
		if s != nil {
			ms = append(ms, s)
		}
	}
	switch len(ms) {
	case 0:
		return nil
	case 1:
		return ms[0]
	default:
		return ms
	}
}

// JSONLWriter is a Sink that streams events as JSON Lines. Errors are
// sticky: the first write or marshal failure is retained and reported
// by Close (and Err), and later events are dropped.
type JSONLWriter struct {
	mu      sync.Mutex
	bw      *bufio.Writer
	scratch []byte
	err     error
}

// NewJSONLWriter wraps w in a buffered JSONL event sink. Call Close
// (or Flush) before reading the destination.
func NewJSONLWriter(w io.Writer) *JSONLWriter {
	return &JSONLWriter{bw: bufio.NewWriter(w)}
}

// Emit implements Sink.
func (j *JSONLWriter) Emit(ev Event) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.err != nil {
		return
	}
	j.scratch = ev.AppendJSON(j.scratch[:0])
	j.scratch = append(j.scratch, '\n')
	if _, err := j.bw.Write(j.scratch); err != nil {
		j.err = fmt.Errorf("obs: write event %d: %w", ev.Seq, err)
	}
}

// Flush drains the buffer to the underlying writer.
func (j *JSONLWriter) Flush() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.err != nil {
		return j.err
	}
	if err := j.bw.Flush(); err != nil {
		j.err = fmt.Errorf("obs: flush: %w", err)
	}
	return j.err
}

// Close flushes and returns the first error encountered, if any. It
// does not close the underlying writer.
func (j *JSONLWriter) Close() error { return j.Flush() }

// Err returns the sticky error, if any.
func (j *JSONLWriter) Err() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.err
}

// ReadJSONL parses an event stream previously produced by JSONLWriter.
// Blank lines are skipped; events are returned in file order.
func ReadJSONL(r io.Reader) ([]Event, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	var events []Event
	line := 0
	for sc.Scan() {
		line++
		b := sc.Bytes()
		if len(b) == 0 {
			continue
		}
		var ev Event
		if err := json.Unmarshal(b, &ev); err != nil {
			return nil, fmt.Errorf("obs: line %d: %w", line, err)
		}
		events = append(events, ev)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("obs: read: %w", err)
	}
	return events, nil
}
