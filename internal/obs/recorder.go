package obs

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"sort"
	"sync"
)

const (
	// recorderFrameRoom is the room a frame needs: its header, a
	// payload just under binaryFrameTarget, and one more record of an
	// engine kind.
	recorderFrameRoom = frameHeaderLen + binaryFrameTarget + maxRecordLen + len(KindCoreActive)
	// recorderSlabCap is the capacity of the buffers a Recorder carves
	// its frames from once a log outgrows its first: two whole frames
	// fit in nine of the allocator's 8 KiB pages. A buffer per frame
	// would round each 32 KiB frame up to 40 KiB.
	recorderSlabCap = 72 << 10
	// recorderFirstCap is the first frame buffer's capacity; it grows
	// eightfold until a whole frame fits, so a short log stays small.
	recorderFirstCap = 512
)

// Recorder is a Sink that keeps the event stream in memory in the
// binary trace encoding. Emit encodes each event once, into frames
// sealed exactly where AppendBinary seals them, so the binary export
// of the first n events is a copy of stored bytes and equals
// AppendBinary of those events.
//
// Readers see the stream as of the last Commit: Log, Events,
// AppendBinarySince, LastSeq and Len all read the committed prefix, and a reader never sees the head of an
// operation that is still emitting. The engine commits its sink at the
// end of every call that advances a session; a caller that emits by
// hand calls Commit itself.
//
// A Recorder has one writer: Emit and Commit must not run
// concurrently with each other (an engine under its session's lock, a
// replica under its own). Emit takes no lock; readers take the lock
// only to copy the committed view, and read the immutable bytes
// after releasing it. Any number of readers may run concurrently with
// the writer and with each other.
type Recorder struct {
	// The writer's state, touched only by Emit and Commit.
	frames []recFrame // sealed frames
	buf    []byte     // the open frame: its reserved header, then its records
	slab   []byte     // the capacity past the last sealed frame
	st     frameState // the open frame's encoder state
	n      int
	last   uint64

	mu  sync.Mutex
	log Log // the stream at the last Commit
	// mark is where the last AppendBinarySince ended. A replication
	// tail starts at the Seq its stream last had acked, which is where
	// the stream's previous tail ended, and decodes from the state
	// saved there.
	mark tailMark
}

// recFrame is one frame of a recorded log, with running totals at its
// end. A frame's bytes below its length never change once committed:
// the writer only appends past them, and writes the header of a frame
// it seals, which no reader of the open frame reads.
type recFrame struct {
	b    []byte // the frame's header (once sealed), then its payload
	n    int    // events recorded through the frame's end
	last uint64 // the Seq of the last of them
}

// payload returns the frame's records.
func (f *recFrame) payload() []byte {
	if len(f.b) < frameHeaderLen {
		return nil
	}
	return f.b[frameHeaderLen:]
}

// tailMark is where a tail read ended: the end of the committed view
// it read, with the encoder state there.
type tailMark struct {
	seq   uint64 // the Seq of the view's last event
	n     int    // the view's events
	frame int    // its open frame's index
	pos   int    // the offset of that frame's next record
	st    frameState
}

// Emit implements Sink: it encodes ev into the open frame and seals
// the frame once its payload reaches the frame target. Readers see the
// event after the next Commit.
func (r *Recorder) Emit(ev Event) {
	if room := recordRoom(&ev); cap(r.buf)-len(r.buf) < room {
		r.grow(room)
	}
	r.buf = r.st.putRecord(r.buf, &ev)
	r.n++
	r.last = ev.Seq
	if len(r.buf)-frameHeaderLen >= binaryFrameTarget {
		sealFrame(r.buf)
		r.frames = append(r.frames, recFrame{b: r.buf, n: r.n, last: r.last})
		r.buf, r.slab = nil, r.buf[len(r.buf):]
		r.st.reset()
	}
}

// grow makes room for a record of room bytes in the open frame. A
// frame with no buffer yet is carved from the capacity past the last
// sealed frame when a whole frame fits there, or opens a new buffer,
// its header reserved either way. A buffer that fills moves to a new
// one: committed bytes are never written again, so a reader still
// holding the old buffer reads it unchanged.
func (r *Recorder) grow(room int) {
	if len(r.buf) == 0 && cap(r.slab) >= recorderFrameRoom+room {
		r.buf = r.slab[:frameHeaderLen]
		return
	}
	c := recorderFirstCap
	if len(r.buf) > 0 {
		c = 8 * cap(r.buf)
	}
	if c >= recorderFrameRoom || len(r.frames) > 0 {
		c = recorderSlabCap
	}
	b := make([]byte, max(len(r.buf), frameHeaderLen), max(c, len(r.buf)+room))
	copy(b, r.buf)
	r.buf = b
}

// Commit implements Committer: it publishes every event emitted so
// far to readers, with the encoder state they end in. It allocates
// nothing.
func (r *Recorder) Commit() {
	r.mu.Lock()
	r.log = Log{sealed: r.frames, open: recFrame{b: r.buf, n: r.n, last: r.last}, st: r.st}
	r.mu.Unlock()
}

// Log returns the stream as of the last Commit.
func (r *Recorder) Log() Log {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.log
}

// Events returns a copy of the committed stream in emission order.
func (r *Recorder) Events() []Event {
	l := r.Log()
	c := l.Reader()
	return c.appendRest(make([]Event, 0, l.Len()))
}

// AppendBinarySince appends the committed events with Seq > after to
// dst as one binary trace, byte for byte AppendBinary of those events,
// and returns the extended slice, the Seq of the last event it holds
// (after when it holds none) and their count. It is the replication
// stream's read. A tail that starts at a frame boundary (a stream's
// open from Seq 0, say) copies the stored frames; one that starts
// where the previous tail ended decodes and re-frames only the events
// past it; any other decodes from the start of its frame. A
// steady-state tail allocates nothing once dst has room.
func (r *Recorder) AppendBinarySince(dst []byte, after uint64) ([]byte, uint64, int) {
	c, i := r.since(after)
	n := c.log.Len() - i
	dst = appendStreamHeader(dst)
	if n == 0 {
		return dst, after, 0
	}
	last := c.log.LastSeq()
	if c.pos == frameHeaderLen {
		return c.log.appendFrames(dst, c.frame), last, n
	}
	var enc frameEncoder
	for {
		ev, ok := c.Next()
		if !ok {
			return enc.seal(dst), last, n
		}
		dst, _ = enc.appendEvent(roomFor(dst, &ev), &ev)
	}
}

// LastSeq returns the Seq of the last committed event, or 0 when none
// was committed. Engine sequence numbers increase in emission order,
// so this is the log tail a replication ack must cover for every
// committed event to be replicated.
func (r *Recorder) LastSeq() uint64 {
	l := r.Log()
	return l.LastSeq()
}

// Len returns the number of committed events.
func (r *Recorder) Len() int {
	l := r.Log()
	return l.Len()
}

// since returns a reader at the first committed event with Seq >
// after, and that event's position (the committed count when there is
// none). It starts from the encoder state saved where the previous
// tail ended, when that was at after, and otherwise from the start of
// the frame that holds the event. It saves where this read ends, since
// the stream's next tail starts there once it is acked.
func (r *Recorder) since(after uint64) (LogReader, int) {
	r.mu.Lock()
	l, m := r.log, r.mark
	r.mark = l.end()
	r.mu.Unlock()
	if l.Len() == 0 || after >= l.LastSeq() {
		return LogReader{log: l, frame: len(l.sealed), pos: len(l.open.b)}, l.Len()
	}
	if m.n > 0 && m.seq == after {
		return LogReader{log: l, frame: m.frame, pos: m.pos, st: m.st}, m.n
	}
	f := sort.Search(len(l.sealed), func(k int) bool { return l.sealed[k].last > after })
	c := LogReader{log: l, frame: f, pos: frameHeaderLen}
	i := 0
	if f > 0 {
		i = l.sealed[f-1].n
	}
	skip := c
	for {
		ev, ok := skip.Next()
		if !ok || ev.Seq > after {
			break
		}
		i++
	}
	for range i - l.frameStart(f) {
		c.Next()
	}
	return c, i
}

// Log is a committed prefix of a Recorder's stream, as one Commit (or
// Prefix) left it. It is immutable and read without the recorder's
// lock: its frames' bytes never change.
type Log struct {
	sealed []recFrame
	// open is the open frame's records so far; its header is not
	// written, and a read seals a copy.
	open recFrame
	// st is the encoder state after open's last record.
	st frameState
}

// Len returns the number of events in the log.
func (l Log) Len() int { return l.open.n }

// LastSeq returns the Seq of the log's last event, or 0 when it is
// empty.
func (l Log) LastSeq() uint64 { return l.open.last }

// end returns the mark of the log's end.
func (l *Log) end() tailMark {
	return tailMark{seq: l.open.last, n: l.open.n, frame: len(l.sealed), pos: max(len(l.open.b), frameHeaderLen), st: l.st}
}

// frame returns frame i: the sealed frames, then the open one.
func (l *Log) frame(i int) *recFrame {
	if i < len(l.sealed) {
		return &l.sealed[i]
	}
	return &l.open
}

// frameStart returns the position of frame i's first event.
func (l *Log) frameStart(i int) int {
	if i == 0 {
		return 0
	}
	return l.sealed[i-1].n
}

// Prefix returns the log's first n events as a Log of its own, or the
// whole log when n is negative or past its end.
func (l Log) Prefix(n int) Log {
	if n < 0 || n >= l.Len() {
		return l
	}
	c := l.readerAt(n)
	f := l.frame(c.frame)
	last := c.st.pred.seq
	if c.pos == frameHeaderLen {
		last = 0
		if c.frame > 0 {
			last = l.sealed[c.frame-1].last
		}
	}
	return Log{
		sealed: l.sealed[:c.frame],
		open:   recFrame{b: f.b[:c.pos], n: n, last: last},
		st:     c.st,
	}
}

// WriteBinary writes the log to w as one binary trace, byte for byte
// AppendBinary of its events, straight from the stored frames: the
// open frame's header is written on the way out.
func (l Log) WriteBinary(w io.Writer) error {
	var hdr [binaryHeaderLen + frameHeaderLen]byte
	if _, err := w.Write(appendStreamHeader(hdr[:0])); err != nil {
		return err
	}
	for i := range l.sealed {
		if _, err := w.Write(l.sealed[i].b); err != nil {
			return err
		}
	}
	p := l.open.payload()
	if len(p) == 0 {
		return nil
	}
	if _, err := w.Write(appendOpenHeader(hdr[:0], p)); err != nil {
		return err
	}
	_, err := w.Write(p)
	return err
}

// appendFrames appends the log's frames from frame i on to dst, the
// open one sealed.
func (l *Log) appendFrames(dst []byte, i int) []byte {
	for ; i < len(l.sealed); i++ {
		dst = append(dst, l.sealed[i].b...)
	}
	if p := l.open.payload(); len(p) > 0 {
		dst = append(appendOpenHeader(dst, p), p...)
	}
	return dst
}

// appendOpenHeader appends the header that seals payload p.
func appendOpenHeader(dst, p []byte) []byte {
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(p)))
	return binary.LittleEndian.AppendUint32(dst, crc32.ChecksumIEEE(p))
}

// Reader returns a reader at the log's first event.
func (l Log) Reader() LogReader { return LogReader{log: l, pos: frameHeaderLen} }

// readerAt returns a reader at event position i, which must be in the
// log.
func (l Log) readerAt(i int) LogReader {
	f := sort.Search(len(l.sealed), func(k int) bool { return l.sealed[k].n > i })
	c := LogReader{log: l, frame: f, pos: frameHeaderLen}
	for range i - l.frameStart(f) {
		c.Next()
	}
	return c
}

// LogReader decodes a Log's events in order, one record at a time and
// without allocating.
type LogReader struct {
	log   Log
	frame int // the frame being decoded
	pos   int // the offset of its next record
	st    frameState
}

// appendRest appends every event from c on to dst.
func (c *LogReader) appendRest(dst []Event) []Event {
	for {
		ev, ok := c.Next()
		if !ok {
			return dst
		}
		dst = append(dst, ev)
	}
}

// Next returns the next event, or false at the log's end.
func (c *LogReader) Next() (Event, bool) {
	f := c.log.frame(c.frame)
	for c.pos >= len(f.b) {
		if c.frame >= len(c.log.sealed) {
			return Event{}, false
		}
		c.frame++
		f = c.log.frame(c.frame)
		c.pos = frameHeaderLen
		c.st.reset()
	}
	var ev Event
	pos := c.st.getRecord(&ev, f.b, c.pos)
	if pos < 0 {
		// The recorder encoded these bytes itself.
		panic(fmt.Sprintf("obs: recorded frame %d does not decode at offset %d", c.frame, c.pos))
	}
	c.pos = pos
	return ev, true
}
