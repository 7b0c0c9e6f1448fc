// Judge-trace codec battery. This file is in the external test package
// so it can drive the simulator over a real workload — internal/sim
// imports internal/obs, so these tests cannot live in package obs
// itself. Everything here runs the same scaled judge configuration as
// BenchmarkLMCJudgeTrace: it is the trace the acceptance criteria are
// stated against.
package obs_test

import (
	"bytes"
	"errors"
	"io"
	"math/rand"
	"sync"
	"testing"

	"dvfsched/internal/model"
	"dvfsched/internal/obs"
	"dvfsched/internal/online"
	"dvfsched/internal/platform"
	"dvfsched/internal/sim"
	"dvfsched/internal/workload"
)

var (
	judgeOnce   sync.Once
	judgeEvents []obs.Event
	judgeErr    error
)

// judgeTrace runs the scaled judge workload through the LMC policy on
// four cores once per test binary and returns the recorded event
// stream (~tens of thousands of events, enough for several frames).
func judgeTrace(tb testing.TB) []obs.Event {
	tb.Helper()
	judgeOnce.Do(func() {
		judge := workload.DefaultJudgeConfig()
		judge.Interactive, judge.NonInteractive, judge.Duration = 600, 90, 150
		tasks, err := judge.Generate(rand.New(rand.NewSource(1)))
		if err != nil {
			judgeErr = err
			return
		}
		params := model.CostParams{Re: 0.1, Rt: 0.4}
		lmc, err := online.NewLMC(params)
		if err != nil {
			judgeErr = err
			return
		}
		rec := &obs.Recorder{}
		plat := platform.Homogeneous(4, platform.TableII(), platform.Ideal{})
		if _, err := sim.Run(sim.Config{Platform: plat, Policy: lmc, Sink: rec}, tasks, params); err != nil {
			judgeErr = err
			return
		}
		judgeEvents = rec.Events()
	})
	if judgeErr != nil {
		tb.Fatal(judgeErr)
	}
	return judgeEvents
}

// appendJSONL renders events exactly as JSONLWriter streams them.
func appendJSONL(b []byte, events []obs.Event) []byte {
	for _, ev := range events {
		b = ev.AppendJSON(b)
		b = append(b, '\n')
	}
	return b
}

// TestBinaryJudgeParity is the acceptance-criteria parity check:
// encoding the Judge trace to binary, decoding it, and re-rendering
// JSONL must reproduce the direct JSONL stream byte for byte — the
// binary path loses nothing the JSON path would have kept.
func TestBinaryJudgeParity(t *testing.T) {
	events := judgeTrace(t)
	jsonl := appendJSONL(nil, events)
	bin := obs.AppendBinary(nil, events)

	decoded, err := obs.ReadBinary(bytes.NewReader(bin))
	if err != nil {
		t.Fatal(err)
	}
	if len(decoded) != len(events) {
		t.Fatalf("decoded %d events, want %d", len(decoded), len(events))
	}
	if !bytes.Equal(appendJSONL(nil, decoded), jsonl) {
		t.Fatal("binary -> decode -> AppendJSON differs from the direct JSONL stream")
	}
	// And the binary form itself is a fixed point.
	if !bytes.Equal(obs.AppendBinary(nil, decoded), bin) {
		t.Fatal("re-encode of decoded Judge trace is not byte-identical")
	}
}

// TestBinaryJudgeCompression pins the acceptance criterion that the
// binary encoding of the Judge trace is at least 3x smaller than
// JSONL.
func TestBinaryJudgeCompression(t *testing.T) {
	events := judgeTrace(t)
	jsonl := len(appendJSONL(nil, events))
	bin := len(obs.AppendBinary(nil, events))
	t.Logf("judge trace: %d events, jsonl %d B, binary %d B, ratio %.2fx",
		len(events), jsonl, bin, float64(jsonl)/float64(bin))
	if bin*3 > jsonl {
		t.Errorf("binary = %d B, jsonl = %d B: ratio %.2fx < required 3x",
			bin, jsonl, float64(jsonl)/float64(bin))
	}
}

// FuzzBinaryRoundTrip feeds arbitrary bytes to the tolerant reader
// (which must never panic, whatever the input), then pushes every
// event it salvages back through AppendBinary and requires the
// encode/decode/re-encode cycle to be a byte-identical fixed point.
// The seed corpus is the real Judge trace — intact, bit-flipped, and
// truncated — plus small hand-built streams.
func FuzzBinaryRoundTrip(f *testing.F) {
	events := judgeTrace(f)
	judgeBin := obs.AppendBinary(nil, events)
	f.Add(judgeBin[:min(len(judgeBin), 64<<10)]) // first frames of the Judge trace
	tail := judgeBin[max(0, len(judgeBin)-8<<10):]
	f.Add(append([]byte(nil), tail...)) // raw mid-stream suffix (no header)
	flipped := append([]byte(nil), judgeBin[:min(len(judgeBin), 16<<10)]...)
	flipped[len(flipped)/2] ^= 0xff
	f.Add(flipped)
	f.Add(judgeBin[:min(len(judgeBin), 16<<10)-7]) // truncated mid-frame
	f.Add(obs.AppendBinary(nil, []obs.Event{
		{Seq: 1, T: 1, Kind: obs.KindArrival, Core: -1, Task: 1, Cycles: 2, Interactive: true},
		{Seq: 2, T: 1.5, Kind: obs.KindStart, Core: 0, Task: 1, Rate: 2.4},
	}))
	f.Add([]byte{})
	f.Add([]byte("DVFB\x01"))
	f.Add([]byte("not a trace at all"))

	f.Fuzz(func(t *testing.T, data []byte) {
		// Tolerant pass: salvage whatever frames survive. Must not
		// panic and must terminate.
		r := obs.NewBinaryReader(bytes.NewReader(data))
		var salvaged []obs.Event
		for {
			ev, err := r.Next()
			if err == nil {
				salvaged = append(salvaged, ev)
				continue
			}
			var ferr *obs.FrameError
			if errors.As(err, &ferr) {
				continue // skip damaged frame, keep reading
			}
			break // EOF, bad magic/version, or unrecoverable
		}
		// Whatever was salvaged must encode to a stable fixed point.
		enc1 := obs.AppendBinary(nil, salvaged)
		dec, err := obs.ReadBinary(bytes.NewReader(enc1))
		if err != nil {
			t.Fatalf("decode of own encoding failed: %v", err)
		}
		if len(dec) != len(salvaged) {
			t.Fatalf("decoded %d events, encoded %d", len(dec), len(salvaged))
		}
		if enc2 := obs.AppendBinary(nil, dec); !bytes.Equal(enc1, enc2) {
			t.Fatal("re-encode is not byte-identical")
		}
	})
}

// BenchmarkBinaryEncodeJudge and BenchmarkJSONLEncodeJudge are the
// "measurably faster" acceptance pair: both render the full Judge
// trace into a pre-grown buffer.
func BenchmarkBinaryEncodeJudge(b *testing.B) {
	events := judgeTrace(b)
	buf := obs.AppendBinary(nil, events)
	b.SetBytes(int64(len(buf)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf = obs.AppendBinary(buf[:0], events)
	}
	_ = buf
}

func BenchmarkJSONLEncodeJudge(b *testing.B) {
	events := judgeTrace(b)
	buf := appendJSONL(nil, events)
	b.SetBytes(int64(len(buf)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf = appendJSONL(buf[:0], events)
	}
	_ = buf
}

// BenchmarkRecorderEmitJudge prices a session's log on its emit path:
// the judge trace emitted into a fresh Recorder, then committed once.
// log-B reports the bytes the recorder stores the log in: its binary
// export, frames and stream header.
func BenchmarkRecorderEmitJudge(b *testing.B) {
	events := judgeTrace(b)
	var rec *obs.Recorder
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rec = &obs.Recorder{}
		for _, ev := range events {
			rec.Emit(ev)
		}
		rec.Commit()
	}
	b.StopTimer()
	stored, _, _ := rec.AppendBinarySince(nil, 0)
	b.ReportMetric(float64(len(stored)), "log-B")
}

func BenchmarkBinaryDecodeJudge(b *testing.B) {
	events := judgeTrace(b)
	enc := obs.AppendBinary(nil, events)
	b.SetBytes(int64(len(enc)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := obs.NewBinaryReader(bytes.NewReader(enc))
		for {
			if _, err := r.Next(); err != nil {
				if err != io.EOF {
					b.Fatal(err)
				}
				break
			}
		}
	}
}
