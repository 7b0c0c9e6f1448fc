package obs

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"math/bits"
	"slices"
	"sync"
)

// This file is the compact binary form of the event stream — the
// storage and replication format the JSONL encoding is too fat for at
// production event rates. The layout trades generality for exactness
// and speed:
//
//	stream  = magic version frame*
//	magic   = "DVFB" (4 bytes)
//	version = 1 byte (currently 1; readers accept any version <= theirs)
//	frame   = payloadLen:u32le crc:u32le payload
//	payload = record*                       (crc = CRC-32/IEEE of payload)
//
// Each frame is fully self-contained: the kind-interning dictionary,
// the delta baselines and the per-field XOR predictors all reset at
// frame boundaries, so a reader can skip a damaged frame and keep
// decoding, and frames can be decoded independently (the shape a
// replicated log needs). One record is:
//
//	kindIdx:uvarint [kindLen:uvarint kindBytes]   (bytes present iff
//	                                               kindIdx == dict size:
//	                                               inline interning)
//	flags:1 byte      bit0 Rate, bit1 PrevRate, bit2 Eff, bit3 Cycles,
//	                  bit4 Remaining, bit5 Energy, bit6 Interactive
//	seqDelta:uvarint  Seq minus the frame's previous Seq (wrapping)
//	tBits:uvarint     Float64bits(T) XOR the previous record's T bits
//	core:varint task:varint
//	field:uvarint     for each flag bit 0..5 set, in that order:
//	                  Float64bits(v) XOR that field's previous bits
//
// Every float travels as exact IEEE-754 bits (XOR prediction, never
// subtraction), so decode is the exact inverse of encode: NaN, ±Inf
// and subnormals round-trip, and re-encoding a decoded stream with the
// same frame boundaries reproduces the input byte for byte. A field
// equal to 0 is omitted (flag clear), mirroring AppendJSON's omitempty
// semantics — note -0 compares equal to 0 and is therefore normalized
// to +0 by a round trip, exactly as the JSONL path drops it.
const (
	// binaryVersion is the current wire version. Bump only for layout
	// changes; readers keep decoding every older version forever (the
	// golden-file tests pin version 1).
	binaryVersion = 1

	// binaryHeaderLen is the stream header: magic plus version byte.
	binaryHeaderLen = 5

	// binaryFrameTarget is the payload size at which the encoder seals
	// a frame. Small enough to bound the blast radius of a corrupt
	// frame, large enough that the 8-byte frame header is noise.
	binaryFrameTarget = 32 << 10

	// maxFramePayload bounds a frame a reader will buffer; beyond it
	// the length field itself is presumed corrupt and resynchronization
	// is impossible.
	maxFramePayload = 1 << 26
)

// binaryMagic starts every binary trace stream.
var binaryMagic = [4]byte{'D', 'V', 'F', 'B'}

// BinaryMagic returns the 4 magic bytes that start every binary trace
// stream, for format sniffing (cmd/traceinfo peeks at these).
func BinaryMagic() []byte { return append([]byte(nil), binaryMagic[:]...) }

// DetectBinary reports whether prefix begins a binary trace stream.
// Callers peek at least BinaryMagicLen bytes; shorter prefixes report
// false.
func DetectBinary(prefix []byte) bool {
	return len(prefix) >= len(binaryMagic) &&
		prefix[0] == binaryMagic[0] && prefix[1] == binaryMagic[1] &&
		prefix[2] == binaryMagic[2] && prefix[3] == binaryMagic[3]
}

// Typed binary-format errors, matchable via errors.Is.
var (
	// ErrBadMagic is returned when a stream does not start with the
	// binary trace magic.
	ErrBadMagic = errors.New("obs: not a binary trace (bad magic)")
	// ErrBadVersion is returned for stream versions newer than this
	// reader understands.
	ErrBadVersion = errors.New("obs: unsupported binary trace version")
	// ErrFrameChecksum marks a frame whose payload fails its CRC.
	ErrFrameChecksum = errors.New("obs: frame checksum mismatch")
	// ErrFrameTruncated marks a frame cut off mid-header or mid-payload.
	ErrFrameTruncated = errors.New("obs: truncated frame")
	// ErrFrameCorrupt marks a CRC-valid frame whose records do not
	// parse (an encoder bug or a deliberate corruption that kept the
	// CRC consistent).
	ErrFrameCorrupt = errors.New("obs: malformed frame payload")
	// ErrFrameTooLarge marks a frame whose declared payload length
	// exceeds the reader's bound; the stream cannot be resynchronized.
	ErrFrameTooLarge = errors.New("obs: frame length exceeds limit")
)

// FrameError reports one damaged frame. A *FrameError always means the
// reader has moved past the damage: the next call continues with the
// following frame (or io.EOF after a truncated tail), so a recovery
// loop can treat every FrameError as "count the loss and keep reading".
// Unrecoverable states (ErrFrameTooLarge, where the length field
// itself is untrusted) surface as plain sticky errors instead.
type FrameError struct {
	// Frame is the 0-based index of the damaged frame in the stream.
	Frame int
	// Offset is the byte offset of the frame's header.
	Offset int64
	// Err classifies the damage (ErrFrameChecksum, ErrFrameTruncated,
	// ErrFrameCorrupt, ErrFrameTooLarge).
	Err error
}

func (e *FrameError) Error() string {
	return fmt.Sprintf("obs: frame %d at offset %d: %v", e.Frame, e.Offset, e.Err)
}

// Unwrap exposes the classification sentinel.
func (e *FrameError) Unwrap() error { return e.Err }

// optional-field order shared by encoder and decoder: flag bit i
// corresponds to optFields index i.
const numOptFields = 6

const (
	// frameHeaderLen is a frame's header: payload length and CRC.
	frameHeaderLen = 8

	// maxRecordLen bounds one record's bytes besides its kind string:
	// the kind's index and length, the flags byte, Seq, T, Core, Task
	// and the six optional fields, each varint at its longest.
	maxRecordLen = 2*binary.MaxVarintLen64 + 1 + (4+numOptFields)*binary.MaxVarintLen64
)

// recordRoom is the spare capacity putRecord needs for ev.
func recordRoom(ev *Event) int { return maxRecordLen + len(ev.Kind) }

// predictors is the per-frame state every record is coded against:
// the previous record's Seq and T bits and each optional field's
// previous bits. Encoder and decoder both reset it at each frame.
type predictors struct {
	seq uint64
	t   uint64
	f   [numOptFields]uint64
}

// putRecord is the one record encoder: it writes ev's record at the
// end of b against the frame's state and returns b extended by it. A
// kind the frame has not seen yet is added to its dictionary, and the
// record carries the kind's bytes inline. b must have recordRoom(ev)
// bytes of spare capacity, so a record costs one capacity check, its
// caller's.
func (st *frameState) putRecord(b []byte, ev *Event) []byte {
	kind := st.kinds.index(ev.Kind)
	intro := kind < 0
	if intro {
		kind = st.kinds.n
		st.kinds.add(ev.Kind)
	}
	p := &st.pred
	n := len(b)
	b = b[:n+recordRoom(ev)]
	n = putUvarint(b, n, uint64(kind))
	if intro {
		n = putUvarint(b, n, uint64(len(ev.Kind)))
		n += copy(b[n:], ev.Kind)
	}
	// A field is set unless it is ±0: shifting the sign bit out makes
	// -0 compare equal to 0, as it does as a float.
	opt := [numOptFields]uint64{
		math.Float64bits(ev.Rate), math.Float64bits(ev.PrevRate), math.Float64bits(ev.Eff),
		math.Float64bits(ev.Cycles), math.Float64bits(ev.Remaining), math.Float64bits(ev.Energy),
	}
	flags := bit(opt[0]<<1 != 0) | bit(opt[1]<<1 != 0)<<1 | bit(opt[2]<<1 != 0)<<2 |
		bit(opt[3]<<1 != 0)<<3 | bit(opt[4]<<1 != 0)<<4 | bit(opt[5]<<1 != 0)<<5 | bit(ev.Interactive)<<6
	b[n] = flags
	n++
	n = putUvarint(b, n, ev.Seq-p.seq)
	p.seq = ev.Seq
	tb := math.Float64bits(ev.T)
	n = putUvarint(b, n, tb^p.t)
	p.t = tb
	n = putUvarint(b, n, zigzag(ev.Core))
	n = putUvarint(b, n, zigzag(ev.Task))
	for i := range opt {
		if flags&(1<<i) != 0 {
			n = putUvarint(b, n, opt[i]^p.f[i])
			p.f[i] = opt[i]
		}
	}
	return b[:n]
}

// bit is 1 for true and 0 for false.
func bit(b bool) byte {
	if b {
		return 1
	}
	return 0
}

// zigzag maps a signed value to the unsigned one binary.PutVarint
// encodes it as.
func zigzag(v int) uint64 { return uint64(v)<<1 ^ uint64(v>>63) }

// putUvarint writes v as binary.PutUvarint would at b[n:] and returns
// the position past it. b must have binary.MaxVarintLen64 bytes of
// room there.
func putUvarint(b []byte, n int, v uint64) int {
	if v < 0x80 {
		b[n] = byte(v)
		return n + 1
	}
	return putLongUvarint(b, n, v)
}

// putLongUvarint is putUvarint for a value of more than one byte: its
// low 56 bits are spread into 7-bit groups and stored as one 8-byte
// word, with no branch on the value's length below 2^56. A loop that
// stops where the value ends mispredicts at each length change, and
// the XOR-coded fields change length from record to record.
func putLongUvarint(b []byte, n int, v uint64) int {
	x := v&0x7f | v<<1&(0x7f<<8) | v<<2&(0x7f<<16) | v<<3&(0x7f<<24) |
		v<<4&(0x7f<<32) | v<<5&(0x7f<<40) | v<<6&(0x7f<<48) | v<<7&(0x7f<<56)
	if v < 1<<56 {
		l := (bits.Len64(v) + 6) / 7
		binary.LittleEndian.PutUint64(b[n:], x|0x8080808080808080&(1<<(8*(l-1))-1))
		return n + l
	}
	binary.LittleEndian.PutUint64(b[n:], x|0x8080808080808080)
	if v < 1<<63 {
		b[n+8] = byte(v >> 56)
		return n + 9
	}
	b[n+8] = byte(v>>56) | 0x80
	b[n+9] = 1
	return n + 10
}

// getRecord decodes the record at p[pos:] into ev against the frame's
// state, and returns the position past it, or -1 when the record does
// not parse.
func (st *frameState) getRecord(ev *Event, p []byte, pos int) int {
	kinds, pr := &st.kinds, &st.pred
	idx, pos := getUvarint(p, pos)
	switch {
	case pos < 0:
		return -1
	case idx < uint64(kinds.n):
		ev.Kind = kinds.at(int(idx))
	case idx == uint64(kinds.n):
		var n uint64
		if n, pos = getUvarint(p, pos); pos < 0 || n > uint64(len(p)-pos) {
			return -1
		}
		ev.Kind = kindOf(p[pos : pos+int(n)])
		kinds.add(ev.Kind)
		pos += int(n)
	default:
		return -1
	}
	if pos >= len(p) || p[pos]&(1<<7) != 0 {
		return -1
	}
	flags := p[pos]
	pos++
	d, pos := getUvarint(p, pos)
	tx, pos := getUvarint(p, pos)
	core, pos := getUvarint(p, pos)
	task, pos := getUvarint(p, pos)
	if pos < 0 {
		return -1
	}
	pr.seq += d
	pr.t ^= tx
	ev.Seq, ev.T = pr.seq, math.Float64frombits(pr.t)
	ev.Core, ev.Task = int(unzigzag(core)), int(unzigzag(task))
	var opt [numOptFields]float64
	for i := range opt {
		if flags&(1<<i) != 0 {
			var fx uint64
			if fx, pos = getUvarint(p, pos); pos < 0 {
				return -1
			}
			pr.f[i] ^= fx
			opt[i] = math.Float64frombits(pr.f[i])
		}
	}
	ev.Rate, ev.PrevRate, ev.Eff, ev.Cycles, ev.Remaining, ev.Energy =
		opt[0], opt[1], opt[2], opt[3], opt[4], opt[5]
	ev.Interactive = flags&(1<<6) != 0
	return pos
}

// getUvarint decodes the uvarint at p[pos:] and returns it with the
// position past it, or -1 when there is none (and for pos -1, so a
// run of reads checks once at its end).
func getUvarint(p []byte, pos int) (uint64, int) {
	if pos >= 0 && pos < len(p) && p[pos] < 0x80 {
		return uint64(p[pos]), pos + 1
	}
	return getLongUvarint(p, pos)
}

// getLongUvarint is getUvarint for a value of more than one byte. One
// of at most eight bytes is loaded as one word and its 7-bit groups
// gathered without a loop, the inverse of putLongUvarint.
func getLongUvarint(p []byte, pos int) (uint64, int) {
	if pos < 0 || pos >= len(p) {
		return 0, -1
	}
	if len(p)-pos >= 8 {
		x := binary.LittleEndian.Uint64(p[pos:])
		if stop := ^x & 0x8080808080808080; stop != 0 {
			l := bits.TrailingZeros64(stop)/8 + 1
			x &= 1<<(8*l) - 1
			v := x&0x7f | x>>1&(0x7f<<7) | x>>2&(0x7f<<14) | x>>3&(0x7f<<21) |
				x>>4&(0x7f<<28) | x>>5&(0x7f<<35) | x>>6&(0x7f<<42) | x>>7&(0x7f<<49)
			return v, pos + l
		}
	}
	v, n := binary.Uvarint(p[pos:])
	if n <= 0 {
		return 0, -1
	}
	return v, pos + n
}

// unzigzag inverts zigzag.
func unzigzag(u uint64) int64 { return int64(u>>1) ^ -int64(u&1) }

// kindOf returns the Kind a frame's dictionary entry spells: one of
// the Kind constants without allocating, a new string otherwise.
func kindOf(b []byte) Kind {
	switch string(b) {
	case string(KindArrival):
		return KindArrival
	case string(KindStart):
		return KindStart
	case string(KindPreempt):
		return KindPreempt
	case string(KindComplete):
		return KindComplete
	case string(KindDVFS):
		return KindDVFS
	case string(KindCoreActive):
		return KindCoreActive
	case string(KindCoreIdle):
		return KindCoreIdle
	}
	return Kind(b)
}

// frameState is what coding a frame's next record needs: the frame's
// kind dictionary and predictors. Encoder and decoder reset it at
// every frame boundary.
type frameState struct {
	kinds kindTable
	pred  predictors
}

func (st *frameState) reset() {
	st.kinds.reset()
	st.pred = predictors{}
}

// kindTable is a frame's kind dictionary in introduction order. The
// first kinds live inline, so coding a frame of the engine's seven
// kinds allocates nothing, and a copy of the table is a snapshot.
type kindTable struct {
	n     int
	first [8]Kind
	more  []Kind
	// known holds, for each engine kind (by knownKind), its index plus
	// one, or 0 before the frame introduces it: the encoder finds an
	// engine kind without comparing strings.
	known [8]int32
}

// reset empties the table. It drops more instead of reusing it: a
// Recorder's committed views may still read the old one.
func (t *kindTable) reset() {
	t.n, t.more, t.known = 0, nil, [8]int32{}
}

// knownKind numbers the engine's kinds from 1, and returns 0 for any
// other kind.
func knownKind(k Kind) int {
	switch k {
	case KindArrival:
		return 1
	case KindStart:
		return 2
	case KindPreempt:
		return 3
	case KindComplete:
		return 4
	case KindDVFS:
		return 5
	case KindCoreActive:
		return 6
	case KindCoreIdle:
		return 7
	}
	return 0
}

// index returns k's index, or -1 when the frame has not introduced it.
func (t *kindTable) index(k Kind) int {
	if c := knownKind(k); c > 0 {
		return int(t.known[c]) - 1
	}
	for i := 0; i < t.n; i++ {
		if t.at(i) == k {
			return i
		}
	}
	return -1
}

func (t *kindTable) at(i int) Kind {
	if i < len(t.first) {
		return t.first[i]
	}
	return t.more[i-len(t.first)]
}

func (t *kindTable) add(k Kind) {
	if c := knownKind(k); c > 0 {
		t.known[c] = int32(t.n + 1)
	}
	if t.n < len(t.first) {
		t.first[t.n] = k
	} else {
		t.more = append(t.more, k)
	}
	t.n++
}

// frameEncoder frames records in place in the slice it appends to: it
// reserves a frame's header before the frame's first record and
// writes it when the frame seals, so a record is copied nowhere after
// it is encoded. The zero value has no frame open.
type frameEncoder struct {
	frameState
	// open marks a frame in progress whose header was reserved at
	// offset start of the slice.
	open  bool
	start int
}

// appendEvent appends ev's record to b, opening a frame first when
// none is open, and seals the frame once its payload reaches the
// target. sealed reports that b now ends with a sealed frame. b must
// have eventRoom(ev) bytes of spare capacity: the one capacity check
// per record is the caller's.
func (e *frameEncoder) appendEvent(b []byte, ev *Event) (out []byte, sealed bool) {
	if !e.open {
		e.open, e.start = true, len(b)
		b = b[:len(b)+frameHeaderLen]
	}
	b = e.putRecord(b, ev)
	if len(b)-e.start-frameHeaderLen < binaryFrameTarget {
		return b, false
	}
	return e.seal(b), true
}

// eventRoom is the spare capacity appendEvent needs for ev: a record,
// and a frame header if it opens a frame.
func eventRoom(ev *Event) int { return frameHeaderLen + recordRoom(ev) }

// roomFor returns b with eventRoom(ev) bytes of spare capacity,
// growing it as append would.
func roomFor(b []byte, ev *Event) []byte {
	if need := eventRoom(ev); cap(b)-len(b) < need {
		return slices.Grow(b, need)
	}
	return b
}

// seal writes the open frame's header, if a frame is open, and resets
// the per-frame state.
func (e *frameEncoder) seal(b []byte) []byte {
	if e.open {
		sealFrame(b[e.start:])
		e.reset()
	}
	return b
}

func (e *frameEncoder) reset() {
	e.frameState.reset()
	e.open = false
}

// sealFrame writes the header of the frame f holds: its reserved
// header, then its payload.
func sealFrame(f []byte) {
	binary.LittleEndian.PutUint32(f[0:4], uint32(len(f)-frameHeaderLen))
	binary.LittleEndian.PutUint32(f[4:8], crc32.ChecksumIEEE(f[frameHeaderLen:]))
}

// appendStreamHeader appends the magic and version every binary trace
// starts with.
func appendStreamHeader(b []byte) []byte {
	b = append(b, binaryMagic[:]...)
	return append(b, binaryVersion)
}

// BinaryEncoder appends events in the binary trace format. It is the
// append-style twin of Event.AppendJSON: the caller owns the
// destination slice, the encoder owns only its frame scratch, and a
// steady-state append allocates nothing. Not safe for concurrent use;
// wrap it in BinaryWriter for a locked io.Writer sink.
//
// Call Flush after the last event to seal the trailing partial frame —
// an unflushed encoder has buffered, unframed bytes.
type BinaryEncoder struct {
	frame   []byte
	enc     frameEncoder
	started bool
}

// Reset returns the encoder to the empty-stream state, keeping its
// buffers for reuse.
func (e *BinaryEncoder) Reset() {
	e.frame = e.frame[:0]
	e.enc.reset()
	e.started = false
}

// header appends the stream header once per encoder lifetime.
func (e *BinaryEncoder) header(dst []byte) []byte {
	if e.started {
		return dst
	}
	e.started = true
	return appendStreamHeader(dst)
}

// AppendEvent encodes ev, appending any completed output (the stream
// header on first use, a sealed frame when the buffer reaches its
// target) to dst, and returns the extended slice. Bytes for the event
// itself may stay buffered until a later AppendEvent or Flush seals
// the frame.
func (e *BinaryEncoder) AppendEvent(dst []byte, ev Event) []byte {
	dst = e.header(dst)
	var sealed bool
	if e.frame, sealed = e.enc.appendEvent(roomFor(e.frame, &ev), &ev); sealed {
		dst = append(dst, e.frame...)
		e.frame = e.frame[:0]
	}
	return dst
}

// Flush seals the pending partial frame (and emits the stream header
// if no event was ever appended, so even an empty trace identifies its
// format) and returns the extended slice.
func (e *BinaryEncoder) Flush(dst []byte) []byte {
	dst = e.header(dst)
	if len(e.frame) > 0 {
		dst = append(dst, e.enc.seal(e.frame)...)
		e.frame = e.frame[:0]
	}
	return dst
}

// BinaryWriter is a Sink that streams events in the binary trace
// format. Like JSONLWriter, errors are sticky: the first write failure
// is retained and reported by Close (and Err), and later events are
// dropped. Close (or Flush) seals the trailing frame; an unclosed
// writer loses buffered events.
type BinaryWriter struct {
	mu      sync.Mutex
	bw      *bufio.Writer
	enc     BinaryEncoder
	scratch []byte
	err     error
}

// NewBinaryWriter wraps w in a buffered binary-trace event sink. Call
// Close (or Flush) before reading the destination.
func NewBinaryWriter(w io.Writer) *BinaryWriter {
	return &BinaryWriter{bw: bufio.NewWriter(w)}
}

// Emit implements Sink.
func (b *BinaryWriter) Emit(ev Event) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.err != nil {
		return
	}
	b.scratch = b.enc.AppendEvent(b.scratch[:0], ev)
	if len(b.scratch) == 0 {
		return
	}
	if _, err := b.bw.Write(b.scratch); err != nil {
		b.err = fmt.Errorf("obs: write event %d: %w", ev.Seq, err)
	}
}

// Flush seals the pending frame and drains the buffer to the
// underlying writer. The stream stays appendable: later events open a
// new frame.
func (b *BinaryWriter) Flush() error {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.err != nil {
		return b.err
	}
	b.scratch = b.enc.Flush(b.scratch[:0])
	if len(b.scratch) > 0 {
		if _, err := b.bw.Write(b.scratch); err != nil {
			b.err = fmt.Errorf("obs: flush: %w", err)
			return b.err
		}
	}
	if err := b.bw.Flush(); err != nil {
		b.err = fmt.Errorf("obs: flush: %w", err)
	}
	return b.err
}

// Close flushes and returns the first error encountered, if any. It
// does not close the underlying writer.
func (b *BinaryWriter) Close() error { return b.Flush() }

// Err returns the sticky error, if any.
func (b *BinaryWriter) Err() error {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.err
}

// BinaryReader decodes a binary trace stream one event at a time.
// Damaged frames surface as *FrameError and are skipped: the next call
// to Next continues with the following frame. Terminal conditions
// (clean end of stream, unrecoverable corruption) are sticky.
type BinaryReader struct {
	r        *bufio.Reader
	frame    []byte
	pos      int
	st       frameState
	hdr      [frameHeaderLen]byte // header scratch that does not escape per read
	started  bool
	frameIdx int
	off      int64
	sticky   error
}

// NewBinaryReader wraps r for streaming decode.
func NewBinaryReader(r io.Reader) *BinaryReader {
	if br, ok := r.(*bufio.Reader); ok {
		return &BinaryReader{r: br}
	}
	return &BinaryReader{r: bufio.NewReaderSize(r, 64<<10)}
}

// Reset rearms the reader to decode a fresh stream from src, reusing
// the frame buffer, dictionary capacity, and (when src is not itself
// a *bufio.Reader) the buffered layer of the previous stream. It lets
// hot decode paths keep one BinaryReader per worker instead of
// allocating reader + 64 KiB buffer per trace.
func (r *BinaryReader) Reset(src io.Reader) {
	if br, ok := src.(*bufio.Reader); ok {
		r.r = br
	} else if r.r != nil {
		r.r.Reset(src)
	} else {
		r.r = bufio.NewReaderSize(src, 64<<10)
	}
	r.frame = r.frame[:0]
	r.pos = 0
	r.st.reset()
	r.started = false
	r.frameIdx = 0
	r.off = 0
	r.sticky = nil
}

// Next returns the next decoded event. It returns io.EOF at a clean
// end of stream, a *FrameError for each damaged frame it skipped (call
// again to keep reading), and other errors for unrecoverable states.
func (r *BinaryReader) Next() (Event, error) {
	if r.sticky != nil {
		return Event{}, r.sticky
	}
	if !r.started {
		if err := r.readHeader(); err != nil {
			r.sticky = err
			return Event{}, err
		}
		r.started = true
	}
	for r.pos >= len(r.frame) {
		if err := r.loadFrame(); err != nil {
			return Event{}, err
		}
	}
	var ev Event
	r.pos = r.st.getRecord(&ev, r.frame, r.pos)
	if r.pos < 0 {
		// A CRC-valid frame that does not parse: drop its remainder.
		ferr := &FrameError{Frame: r.frameIdx - 1, Offset: r.off - int64(len(r.frame)) - 8, Err: ErrFrameCorrupt}
		r.frame = r.frame[:0]
		r.pos = 0
		return Event{}, ferr
	}
	return ev, nil
}

// readHeader consumes and validates the stream magic and version.
func (r *BinaryReader) readHeader() error {
	hdr := r.hdr[:binaryHeaderLen]
	if _, err := io.ReadFull(r.r, hdr); err != nil {
		if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) {
			return ErrBadMagic
		}
		return err
	}
	r.off += binaryHeaderLen
	if !DetectBinary(hdr[:4]) {
		return ErrBadMagic
	}
	if v := hdr[4]; v == 0 || v > binaryVersion {
		return fmt.Errorf("%w: %d (reader supports <= %d)", ErrBadVersion, hdr[4], binaryVersion)
	}
	return nil
}

// loadFrame reads and verifies the next frame into r.frame. On CRC
// mismatch the frame is skipped and a *FrameError returned; the caller
// may call Next again.
func (r *BinaryReader) loadFrame() error {
	frameOff := r.off
	hdr := r.hdr[:]
	n, err := io.ReadFull(r.r, hdr)
	if err != nil {
		if errors.Is(err, io.EOF) && n == 0 {
			r.sticky = io.EOF
			return io.EOF
		}
		// A partial header is a truncated tail; nothing follows it.
		r.sticky = io.EOF
		return &FrameError{Frame: r.frameIdx, Offset: frameOff, Err: ErrFrameTruncated}
	}
	r.off += 8
	length := binary.LittleEndian.Uint32(hdr[0:4])
	wantCRC := binary.LittleEndian.Uint32(hdr[4:8])
	if length > maxFramePayload {
		// Deliberately NOT a *FrameError: the length field itself is
		// untrustworthy, so the stream cannot be resynchronized and a
		// skip-and-continue loop must stop here, not spin on it.
		err := fmt.Errorf("obs: frame %d at offset %d (declared %d bytes): %w",
			r.frameIdx, frameOff, length, ErrFrameTooLarge)
		r.sticky = err
		return err
	}
	if cap(r.frame) < int(length) {
		r.frame = make([]byte, length)
	}
	r.frame = r.frame[:length]
	if _, err := io.ReadFull(r.r, r.frame); err != nil {
		r.frame = r.frame[:0]
		r.pos = 0
		r.sticky = io.EOF
		return &FrameError{Frame: r.frameIdx, Offset: frameOff, Err: ErrFrameTruncated}
	}
	r.off += int64(length)
	r.frameIdx++
	if crc32.ChecksumIEEE(r.frame) != wantCRC {
		r.frame = r.frame[:0]
		r.pos = 0
		return &FrameError{Frame: r.frameIdx - 1, Offset: frameOff, Err: ErrFrameChecksum}
	}
	// Fresh frame: reset the prediction state.
	r.pos = 0
	r.st.reset()
	return nil
}

// ReadBinary decodes a complete binary trace strictly: any damaged
// frame fails the read. Use BinaryReader directly to tolerate damage.
func ReadBinary(r io.Reader) ([]Event, error) {
	br := NewBinaryReader(r)
	var events []Event
	for {
		ev, err := br.Next()
		if errors.Is(err, io.EOF) {
			return events, nil
		}
		if err != nil {
			return nil, err
		}
		events = append(events, ev)
	}
}

// AppendBinary encodes events as one complete binary trace (header,
// frames, sealed tail) appended to b. It is the one-shot form of
// BinaryEncoder for whole in-memory traces, and frames in place in b.
func AppendBinary(b []byte, events []Event) []byte {
	b = appendStreamHeader(b)
	var enc frameEncoder
	for i := range events {
		b, _ = enc.appendEvent(roomFor(b, &events[i]), &events[i])
	}
	return enc.seal(b)
}

// ReadEvents reads an event trace in either format, sniffing the
// binary magic: binary streams decode strictly via ReadBinary,
// anything else parses as the JSONL event format.
func ReadEvents(r io.Reader) ([]Event, error) {
	br := bufio.NewReaderSize(r, 64<<10)
	prefix, err := br.Peek(len(binaryMagic))
	if err != nil && len(prefix) == 0 && !errors.Is(err, io.EOF) {
		return nil, fmt.Errorf("obs: read: %w", err)
	}
	if DetectBinary(prefix) {
		return ReadBinary(br)
	}
	return ReadJSONL(br)
}
