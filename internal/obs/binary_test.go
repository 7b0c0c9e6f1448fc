package obs

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"io"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"
)

// binaryNormalize maps an event to the value a binary round trip
// produces: optional fields equal to zero lose their sign bit (the
// flag-clear path cannot distinguish -0 from +0), exactly as the JSONL
// omitempty path drops them. T and the required fields round-trip
// bit-exactly, including -0 and non-finite values.
func binaryNormalize(ev Event) Event {
	norm := func(v float64) float64 {
		if v == 0 {
			return 0
		}
		return v
	}
	ev.Rate = norm(ev.Rate)
	ev.PrevRate = norm(ev.PrevRate)
	ev.Eff = norm(ev.Eff)
	ev.Cycles = norm(ev.Cycles)
	ev.Remaining = norm(ev.Remaining)
	ev.Energy = norm(ev.Energy)
	return ev
}

// eventsBitEqual compares decoded streams by bit pattern so NaN
// payloads count as equal and -0 differs from +0.
func eventsBitEqual(a, b []Event) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		x, y := a[i], b[i]
		if x.Seq != y.Seq || x.Kind != y.Kind || x.Core != y.Core ||
			x.Task != y.Task || x.Interactive != y.Interactive {
			return false
		}
		for _, p := range [][2]float64{
			{x.T, y.T}, {x.Rate, y.Rate}, {x.PrevRate, y.PrevRate},
			{x.Eff, y.Eff}, {x.Cycles, y.Cycles},
			{x.Remaining, y.Remaining}, {x.Energy, y.Energy},
		} {
			if math.Float64bits(p[0]) != math.Float64bits(p[1]) {
				return false
			}
		}
	}
	return true
}

// binaryCorpus extends the JSON append corpus with cases the binary
// format alone must handle bit-exactly: non-finite floats, negative
// zero in T, large magnitudes, and adversarial kind strings.
func binaryCorpus() []Event {
	evs := append([]Event(nil), appendCorpus...)
	evs = append(evs,
		Event{Seq: 9, T: math.NaN(), Kind: KindDVFS, Core: 1, Task: -1, Rate: math.Inf(1), PrevRate: math.Inf(-1)},
		Event{Seq: 10, T: math.Copysign(0, -1), Kind: KindCoreIdle, Core: 2, Task: -1},
		Event{Seq: 10, T: 0, Kind: KindCoreIdle, Core: 2, Task: -1},   // zero Seq delta
		Event{Seq: 5, T: -1, Kind: KindCoreActive, Core: 0, Task: -1}, // Seq going backwards (wrapping delta)
		Event{Seq: 1 << 63, T: 1e308, Kind: Kind(strings.Repeat("k", 300)), Core: 1 << 30, Task: -(1 << 30)},
		Event{Kind: ""},
	)
	return evs
}

func TestBinaryRoundTripCorpus(t *testing.T) {
	events := binaryCorpus()
	enc := AppendBinary(nil, events)
	got, err := ReadBinary(bytes.NewReader(enc))
	if err != nil {
		t.Fatal(err)
	}
	want := make([]Event, len(events))
	for i, ev := range events {
		want[i] = binaryNormalize(ev)
	}
	if !eventsBitEqual(got, want) {
		t.Fatalf("round trip mismatch:\n got %+v\nwant %+v", got, want)
	}
	// Re-encoding the decoded stream must be byte-identical: the format
	// is a fixed point after one round trip.
	if again := AppendBinary(nil, got); !bytes.Equal(enc, again) {
		t.Fatal("re-encode of decoded stream differs from original encoding")
	}
}

func TestBinaryRoundTripRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(7)) // deterministic corpus, not randomness
	kinds := []Kind{KindArrival, KindStart, KindPreempt, KindComplete, KindDVFS, KindCoreActive, KindCoreIdle}
	randFloat := func() float64 {
		v := rng.NormFloat64() * math.Pow(10, float64(rng.Intn(60)-30))
		if rng.Intn(8) == 0 {
			v = 0
		}
		return v
	}
	seq := uint64(0)
	tm := 0.0
	events := make([]Event, 20000) // several frames' worth
	for i := range events {
		seq += uint64(rng.Intn(3))
		tm += rng.Float64()
		events[i] = Event{
			Seq:         seq,
			T:           tm,
			Kind:        kinds[rng.Intn(len(kinds))],
			Core:        rng.Intn(64) - 1,
			Task:        rng.Intn(1<<20) - 1,
			Rate:        randFloat(),
			PrevRate:    randFloat(),
			Eff:         randFloat(),
			Cycles:      randFloat(),
			Remaining:   randFloat(),
			Energy:      randFloat(),
			Interactive: rng.Intn(2) == 0,
		}
	}
	enc := AppendBinary(nil, events)
	if len(enc) < binaryFrameTarget {
		t.Fatalf("corpus too small to exercise frame sealing: %d bytes", len(enc))
	}
	got, err := ReadBinary(bytes.NewReader(enc))
	if err != nil {
		t.Fatal(err)
	}
	if !eventsBitEqual(got, events) {
		t.Fatal("random round trip mismatch")
	}
}

func TestBinaryEmptyTrace(t *testing.T) {
	var enc BinaryEncoder
	out := enc.Flush(nil)
	if len(out) != binaryHeaderLen {
		t.Fatalf("empty trace = %d bytes, want %d (header only)", len(out), binaryHeaderLen)
	}
	events, err := ReadBinary(bytes.NewReader(out))
	if err != nil || len(events) != 0 {
		t.Fatalf("decode empty trace: %v, %d events", err, len(events))
	}
}

func TestBinaryEncoderReset(t *testing.T) {
	events := binaryCorpus()
	var enc BinaryEncoder
	var first []byte
	for _, ev := range events {
		first = enc.AppendEvent(first, ev)
	}
	first = enc.Flush(first)
	enc.Reset()
	var second []byte
	for _, ev := range events {
		second = enc.AppendEvent(second, ev)
	}
	second = enc.Flush(second)
	if !bytes.Equal(first, second) {
		t.Fatal("Reset does not restore the empty-stream state")
	}
}

func TestBinaryReaderHeaderErrors(t *testing.T) {
	cases := []struct {
		name string
		in   []byte
		want error
	}{
		{"empty", nil, ErrBadMagic},
		{"short", []byte("DV"), ErrBadMagic},
		{"jsonl", []byte(`{"seq":1}` + "\n"), ErrBadMagic},
		{"future version", append(BinaryMagic(), binaryVersion+1), ErrBadVersion},
		{"version zero", append(BinaryMagic(), 0), ErrBadVersion},
	}
	for _, c := range cases {
		_, err := ReadBinary(bytes.NewReader(c.in))
		if !errors.Is(err, c.want) {
			t.Errorf("%s: err = %v, want %v", c.name, err, c.want)
		}
	}
}

// sealedFrames encodes events so that each call boundary is a frame
// boundary, returning the stream plus each frame's [start,end) offsets.
func sealedFrames(t *testing.T, groups [][]Event) ([]byte, [][2]int) {
	t.Helper()
	var enc BinaryEncoder
	var out []byte
	var bounds [][2]int
	for _, g := range groups {
		for _, ev := range g {
			out = enc.AppendEvent(out, ev)
		}
		start := len(out)
		if start == 0 {
			start = binaryHeaderLen // header not yet emitted for empty first group
		}
		out = enc.Flush(out)
		bounds = append(bounds, [2]int{start, len(out)})
	}
	return out, bounds
}

func TestBinaryReaderSkipsDamagedFrame(t *testing.T) {
	groups := [][]Event{
		{{Seq: 1, T: 1, Kind: KindArrival, Core: -1, Task: 1, Cycles: 2}},
		{{Seq: 2, T: 2, Kind: KindStart, Core: 0, Task: 1, Rate: 3}},
		{{Seq: 3, T: 3, Kind: KindComplete, Core: 0, Task: 1, Energy: 4}},
	}
	stream, bounds := sealedFrames(t, groups)

	// Flip one payload byte in the middle frame.
	corrupt := append([]byte(nil), stream...)
	corrupt[bounds[1][0]+8] ^= 0xff

	r := NewBinaryReader(bytes.NewReader(corrupt))
	ev, err := r.Next()
	if err != nil || ev.Seq != 1 {
		t.Fatalf("frame 0: %+v, %v", ev, err)
	}
	_, err = r.Next()
	var ferr *FrameError
	if !errors.As(err, &ferr) || !errors.Is(err, ErrFrameChecksum) {
		t.Fatalf("damaged frame: err = %v, want FrameError{ErrFrameChecksum}", err)
	}
	if ferr.Frame != 1 {
		t.Errorf("FrameError.Frame = %d, want 1", ferr.Frame)
	}
	if want := int64(bounds[1][0]); ferr.Offset != want {
		t.Errorf("FrameError.Offset = %d, want %d", ferr.Offset, want)
	}
	// The reader resumes with the frame after the damage.
	ev, err = r.Next()
	if err != nil || ev.Seq != 3 {
		t.Fatalf("frame after damage: %+v, %v", ev, err)
	}
	if _, err = r.Next(); !errors.Is(err, io.EOF) {
		t.Fatalf("end of stream: %v, want io.EOF", err)
	}

	// Strict decode refuses the damaged stream outright.
	if _, err := ReadBinary(bytes.NewReader(corrupt)); !errors.Is(err, ErrFrameChecksum) {
		t.Fatalf("strict decode: %v, want ErrFrameChecksum", err)
	}
}

func TestBinaryReaderTruncatedTail(t *testing.T) {
	groups := [][]Event{
		{{Seq: 1, T: 1, Kind: KindArrival, Core: -1, Task: 1}},
		{{Seq: 2, T: 2, Kind: KindStart, Core: 0, Task: 1}},
	}
	stream, bounds := sealedFrames(t, groups)
	for _, cut := range []int{
		bounds[1][0] + 3,  // mid-header
		bounds[1][0] + 10, // mid-payload
	} {
		r := NewBinaryReader(bytes.NewReader(stream[:cut]))
		if ev, err := r.Next(); err != nil || ev.Seq != 1 {
			t.Fatalf("cut %d, intact frame: %+v, %v", cut, ev, err)
		}
		_, err := r.Next()
		if !errors.Is(err, ErrFrameTruncated) {
			t.Fatalf("cut %d: err = %v, want ErrFrameTruncated", cut, err)
		}
		// Nothing can follow a truncated tail.
		if _, err = r.Next(); !errors.Is(err, io.EOF) {
			t.Fatalf("cut %d after truncation: %v, want io.EOF", cut, err)
		}
	}
}

func TestBinaryReaderCorruptFramePayload(t *testing.T) {
	// A frame whose CRC is valid but whose payload is garbage: rewrite
	// a sealed frame's payload and fix up the CRC, as a buggy encoder
	// would.
	stream, bounds := sealedFrames(t, [][]Event{
		{{Seq: 1, T: 1, Kind: KindArrival, Core: -1, Task: 1}},
		{{Seq: 2, T: 2, Kind: KindStart, Core: 0, Task: 1}},
	})
	corrupt := append([]byte(nil), stream...)
	payload := corrupt[bounds[0][0]+8 : bounds[0][1]]
	payload[0] = 0x85 // kind index far beyond the dictionary
	for i := 1; i < len(payload); i++ {
		payload[i] = 0x80 // unterminated varint
	}
	fixCRC(corrupt[bounds[0][0]:bounds[0][1]])

	r := NewBinaryReader(bytes.NewReader(corrupt))
	_, err := r.Next()
	if !errors.Is(err, ErrFrameCorrupt) {
		t.Fatalf("corrupt payload: err = %v, want ErrFrameCorrupt", err)
	}
	// The next frame still decodes.
	if ev, err := r.Next(); err != nil || ev.Seq != 2 {
		t.Fatalf("frame after corrupt payload: %+v, %v", ev, err)
	}
}

// fixCRC recomputes a sealed frame's checksum over its (possibly
// modified) payload. frame is [len crc payload...].
func fixCRC(frame []byte) {
	binary.LittleEndian.PutUint32(frame[4:8], crc32.ChecksumIEEE(frame[8:]))
}

func TestBinaryReaderFrameTooLarge(t *testing.T) {
	stream := append(BinaryMagic(), binaryVersion)
	var hdr [8]byte
	binary.LittleEndian.PutUint32(hdr[0:4], maxFramePayload+1)
	stream = append(stream, hdr[:]...)
	r := NewBinaryReader(bytes.NewReader(stream))
	_, err := r.Next()
	if !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("err = %v, want ErrFrameTooLarge", err)
	}
	// Unrecoverable: the error is sticky.
	if _, err2 := r.Next(); !errors.Is(err2, ErrFrameTooLarge) {
		t.Fatalf("second call: %v, want sticky ErrFrameTooLarge", err2)
	}
}

func TestBinaryWriterMatchesAppendBinary(t *testing.T) {
	events := binaryCorpus()
	var buf bytes.Buffer
	w := NewBinaryWriter(&buf)
	for _, ev := range events {
		w.Emit(ev)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if want := AppendBinary(nil, events); !bytes.Equal(buf.Bytes(), want) {
		t.Fatal("BinaryWriter output differs from AppendBinary")
	}
}

func TestBinaryWriterFlushKeepsStreamAppendable(t *testing.T) {
	// A mid-stream Flush seals a frame early; the reader must keep
	// decoding across the seam.
	var buf bytes.Buffer
	w := NewBinaryWriter(&buf)
	w.Emit(Event{Seq: 1, T: 1, Kind: KindArrival, Core: -1, Task: 1})
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	w.Emit(Event{Seq: 2, T: 2, Kind: KindStart, Core: 0, Task: 1})
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	events, err := ReadBinary(&buf)
	if err != nil || len(events) != 2 || events[1].Seq != 2 {
		t.Fatalf("decode across flush seam: %v, %+v", err, events)
	}
}

func TestBinaryWriterStickyError(t *testing.T) {
	w := NewBinaryWriter(&failWriter{}) // fails after 16 bytes, see obs_test.go
	// Enough events to overflow bufio and hit the writer.
	for i := 0; i < 4000; i++ {
		w.Emit(Event{Seq: uint64(i + 1), T: float64(i), Kind: KindStart, Core: 0, Task: i})
	}
	if w.Err() == nil && w.Close() == nil {
		t.Fatal("want sticky error from failing writer")
	}
	if err := w.Close(); err == nil {
		t.Fatal("Close must keep reporting the sticky error")
	}
}

func TestReadEventsAutoDetect(t *testing.T) {
	events := []Event{
		{Seq: 1, T: 1, Kind: KindArrival, Core: -1, Task: 3, Cycles: 5, Interactive: true},
		{Seq: 2, T: 1.5, Kind: KindStart, Core: 0, Task: 3, Rate: 2.4},
	}
	bin := AppendBinary(nil, events)
	var jsonl bytes.Buffer
	jw := NewJSONLWriter(&jsonl)
	for _, ev := range events {
		jw.Emit(ev)
	}
	if err := jw.Close(); err != nil {
		t.Fatal(err)
	}
	for name, in := range map[string][]byte{"binary": bin, "jsonl": jsonl.Bytes()} {
		got, err := ReadEvents(bytes.NewReader(in))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !reflect.DeepEqual(got, events) {
			t.Fatalf("%s: got %+v, want %+v", name, got, events)
		}
	}
	// Empty input is an empty (JSONL) trace, not an error.
	if got, err := ReadEvents(bytes.NewReader(nil)); err != nil || len(got) != 0 {
		t.Fatalf("empty input: %v, %d events", err, len(got))
	}
}

func TestDetectBinary(t *testing.T) {
	if !DetectBinary(AppendBinary(nil, nil)) {
		t.Error("encoded stream not detected")
	}
	for _, in := range [][]byte{nil, []byte("DVF"), []byte(`{"seq":1}`), []byte("DVFA....")} {
		if DetectBinary(in) {
			t.Errorf("false positive on %q", in)
		}
	}
}

func TestBinaryEncoderAppendZeroAlloc(t *testing.T) {
	var enc BinaryEncoder
	ev := Event{Seq: 1, T: 1.25, Kind: KindStart, Core: 3, Task: 9, Rate: 2.4, Eff: 1.251, Remaining: 7.5, Energy: 12.25}
	buf := make([]byte, 0, 4*binaryFrameTarget)
	// Warm up past the first frame seal so every buffer reaches its
	// steady-state capacity.
	for i := 0; i < 4096; i++ {
		ev.Seq++
		ev.T += 0.5
		buf = enc.AppendEvent(buf, ev)
	}
	buf = buf[:0]
	allocs := testing.AllocsPerRun(2000, func() {
		ev.Seq++
		ev.T += 0.5
		buf = enc.AppendEvent(buf[:0], ev)
	})
	// The steady state is the replication-log hot path: any per-event
	// allocation here lands on every emitted event of every session.
	if allocs != 0 {
		t.Errorf("AppendEvent allocates %v per event, want 0", allocs)
	}
}

func TestBinaryWriterEmitZeroAlloc(t *testing.T) {
	w := NewBinaryWriter(io.Discard)
	ev := Event{Seq: 1, T: 1.25, Kind: KindStart, Core: 3, Task: 9, Rate: 2.4, Eff: 1.251, Remaining: 7.5, Energy: 12.25}
	for i := 0; i < 4096; i++ {
		ev.Seq++
		ev.T += 0.5
		w.Emit(ev)
	}
	allocs := testing.AllocsPerRun(2000, func() {
		ev.Seq++
		ev.T += 0.5
		w.Emit(ev)
	})
	if allocs != 0 {
		t.Errorf("BinaryWriter.Emit allocates %v per event, want 0", allocs)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestBinaryReaderKnownKindsAllocFree: a reused reader decodes a
// multi-frame trace of the engine's kinds without allocating, since
// each frame's dictionary maps its kind bytes to the Kind constants; a
// kind of its own costs one string per frame that introduces it.
func TestBinaryReaderKnownKindsAllocFree(t *testing.T) {
	decodeAll := func(r *BinaryReader, src *bytes.Reader, trace []byte) int {
		src.Reset(trace)
		r.Reset(src)
		n := 0
		for {
			if _, err := r.Next(); err != nil {
				if err != io.EOF {
					t.Fatal(err)
				}
				return n
			}
			n++
		}
	}
	for _, unknown := range []bool{false, true} {
		evs := recEvents(6000, 7, unknown)
		trace := AppendBinary(nil, evs)
		frames := len(sealedFrameOffsets(trace))
		src := bytes.NewReader(nil)
		r := NewBinaryReader(src)
		if n := decodeAll(r, src, trace); n != len(evs) || frames < 3 {
			t.Fatalf("decoded %d of %d events over %d frames, want several frames", n, len(evs), frames)
		}
		want := 0.0
		if unknown {
			want = float64(frames)
		}
		if allocs := testing.AllocsPerRun(5, func() { decodeAll(r, src, trace) }); allocs != want {
			t.Errorf("unknown kind %v: %v allocations over %d frames, want %v", unknown, allocs, frames, want)
		}
	}
}

// sealedFrameOffsets returns the header offset of every frame of a
// binary trace.
func sealedFrameOffsets(trace []byte) []int {
	var offs []int
	for off := binaryHeaderLen; off+frameHeaderLen <= len(trace); {
		offs = append(offs, off)
		off += frameHeaderLen + int(binary.LittleEndian.Uint32(trace[off:]))
	}
	return offs
}

func BenchmarkBinaryAppendEvent(b *testing.B) {
	var enc BinaryEncoder
	ev := Event{Seq: 42, T: 1.25, Kind: KindStart, Core: 3, Task: 9, Rate: 2.4, Eff: 1.251, Remaining: 7.5, Energy: 12.25}
	buf := make([]byte, 0, 4*binaryFrameTarget)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		ev.Seq++
		ev.T += 0.5
		buf = enc.AppendEvent(buf[:0], ev)
	}
	_ = buf
}
