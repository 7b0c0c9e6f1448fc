package server

import (
	"bytes"
	"net/http/httptest"
	"reflect"
	"strconv"
	"testing"

	"dvfsched/internal/obs"
)

// emitEvents records n synthetic events numbered from first, cycling
// through the kinds and the optional fields the codecs frame.
func emitEvents(rec *obs.Recorder, first, n int) {
	kinds := []obs.Kind{obs.KindArrival, obs.KindStart, obs.KindDVFS, obs.KindPreempt, obs.KindComplete, obs.KindCoreIdle}
	for i := first; i < first+n; i++ {
		rec.Emit(obs.Event{
			Seq:         uint64(i + 1),
			T:           float64(i) / 8,
			Kind:        kinds[i%len(kinds)],
			Core:        i%5 - 1,
			Task:        i / 3,
			Rate:        1.6 + float64(i%3),
			PrevRate:    float64(i % 2),
			Energy:      float64(i) * 0.37,
			Cycles:      float64(i%11) * 1.5,
			Interactive: i%7 == 0,
		})
	}
}

// wholeTrace encodes events the way the endpoint did before it
// streamed: the whole copied trace through one encoder.
func wholeTrace(events []obs.Event, format string) []byte {
	var out []byte
	if format == "binary" {
		var enc obs.BinaryEncoder
		for _, ev := range events {
			out = enc.AppendEvent(out, ev)
		}
		return enc.Flush(out)
	}
	for _, ev := range events {
		out = append(ev.AppendJSON(out), '\n')
	}
	return out
}

// TestWriteEventsMatchesWholeTrace streams a recorder of several
// chunks and requires the bytes and the count header of encoding a
// full Events copy, in both formats.
func TestWriteEventsMatchesWholeTrace(t *testing.T) {
	for _, n := range []int{0, 1, eventReadChunk, 3*eventReadChunk + 500} {
		rec := &obs.Recorder{}
		emitEvents(rec, 0, n)
		for _, format := range []string{"jsonl", "binary"} {
			w := httptest.NewRecorder()
			writeEvents(w, rec, n, format)
			if got, want := w.Body.Bytes(), wholeTrace(rec.Events(), format); !bytes.Equal(got, want) {
				t.Errorf("%d events, %s: %d bytes differ from the whole-trace encoding's %d", n, format, len(got), len(want))
			}
			if got := w.Header().Get("X-Event-Count"); got != strconv.Itoa(n) {
				t.Errorf("%d events, %s: X-Event-Count %s", n, format, got)
			}
		}
	}
}

// TestWriteEventsCountUnderConcurrentEmit streams while the session
// keeps emitting: the body must carry exactly the X-Event-Count
// events, the recorder's prefix at the time the caller fixed the
// count.
func TestWriteEventsCountUnderConcurrentEmit(t *testing.T) {
	const total = 16 * eventReadChunk
	rec := &obs.Recorder{}
	emitEvents(rec, 0, 2*eventReadChunk)
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 2 * eventReadChunk; i < total; i++ {
			emitEvents(rec, i, 1)
		}
	}()
	for emitting := true; emitting; {
		select {
		case <-done:
			emitting = false // one last round over the finished trace
		default:
		}
		for _, format := range []string{"jsonl", "binary"} {
			w := httptest.NewRecorder()
			writeEvents(w, rec, rec.Len(), format)
			n, err := strconv.Atoi(w.Header().Get("X-Event-Count"))
			if err != nil {
				t.Fatal(err)
			}
			read := obs.ReadJSONL
			if format == "binary" {
				read = obs.ReadBinary
			}
			got, err := read(bytes.NewReader(w.Body.Bytes()))
			if err != nil {
				t.Fatal(err)
			}
			if want := rec.AppendRange(nil, 0, n); len(got) != n || !reflect.DeepEqual(got, want) {
				t.Fatalf("%s: streamed %d events, X-Event-Count %d, or they are not the recorder's prefix", format, len(got), n)
			}
		}
	}
}
