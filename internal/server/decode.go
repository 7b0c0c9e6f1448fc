package server

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync"
	"unicode/utf8"

	"dvfsched/internal/model"
	"dvfsched/internal/trace"
)

// This file is the request side of the serving fast path: a one-pass
// decoder that scans the two task-carrying bodies, SubmitRequest and
// PlanRequest, straight into a model.TaskSet — no reflection, no
// []trace.Record in between.
//
// The scanner accepts a strict subset of what encoding/json accepts:
// any whitespace and key order, exact-case keys, strings without
// escapes (valid UTF-8 passes through), numbers, true and false.
// Anything else — an escape, a key that only case-folds to a field,
// null, a repeated key, an unknown field, a type mismatch, malformed
// input — makes it decline, and the same bytes go to decodeJSON, the
// strict encoding/json decoder that stays the reference. A number is
// checked against the JSON number grammar in the same pass that
// collects its digits, then converted exactly (number.go), with the
// strconv call encoding/json makes as the fallback, so a value is
// bit-identical either way.
// The accept/reject decision, the decoded values and every error text
// are therefore the reference decoder's; FuzzDecodeRequest holds the
// two to that. Bytes after the top-level object are ignored, as
// json.Decoder.Decode ignores them.

// maxBodyBytes bounds request bodies; a 100k-task submission is a few
// MB of JSONL, so 64 MiB is generous without being unbounded.
const maxBodyBytes = 64 << 20

// maxPooledBody caps the body buffers taskDecoderPool keeps: a rare
// multi-megabyte body is decoded, then left to the garbage collector
// rather than pinned in the pool.
const maxPooledBody = 1 << 20

// taskDecoder is the pooled state of one task-body decode: the body,
// the scan cursor, and the scratch the scan fills. It is held between
// Get and Put inside decodeSubmit or decodePlan only (DESIGN §9.2);
// what they return is copied out first — the tasks into a fresh
// exact-length TaskSet, every name into one shared string.
type taskDecoder struct {
	buf   []byte
	i     int
	tasks model.TaskSet
	names []nameSpan // body offsets of each scanned task's name
}

// nameSpan locates a task name in the body: buf[lo:hi].
type nameSpan struct{ lo, hi int }

// taskDecoderPool's decoders start sized for a judge batch (64 tasks
// of ~130 bytes), so the common body never grows one.
var taskDecoderPool = sync.Pool{
	New: func() any {
		return &taskDecoder{buf: make([]byte, 0, 16<<10), tasks: make(model.TaskSet, 0, 64), names: make([]nameSpan, 0, 64)}
	},
}

// decodeJSON is the reference decoder: it parses a request body
// strictly (unknown fields rejected, size-capped) into dst.
func decodeJSON(body io.Reader, dst any) error {
	dec := json.NewDecoder(io.LimitReader(body, maxBodyBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(dst); err != nil {
		return fmt.Errorf("bad request body: %w", err)
	}
	return nil
}

// decodeSubmit reads r's body and decodes it as a SubmitRequest,
// returning its tasks (not yet validated; see checkTasks) and clamp
// flag.
func decodeSubmit(r *http.Request) (model.TaskSet, bool, error) {
	d := taskDecoderPool.Get().(*taskDecoder)
	tasks, clamp, err := d.submit(d.read(r.Body))
	if d.poolable() {
		taskDecoderPool.Put(d)
	}
	return tasks, clamp, err
}

// decodePlan reads r's body and decodes it as a PlanRequest, returning
// its platform spec (not yet normalized) and tasks (not yet
// validated).
func decodePlan(r *http.Request) (PlatformSpec, model.TaskSet, error) {
	d := taskDecoderPool.Get().(*taskDecoder)
	spec, tasks, err := d.plan(d.read(r.Body))
	if d.poolable() {
		taskDecoderPool.Put(d)
	}
	return spec, tasks, err
}

// checkTasks is the validation every decoded task list gets, from
// either decoder.
func checkTasks(tasks model.TaskSet) error {
	if len(tasks) == 0 {
		return fmt.Errorf("empty task list")
	}
	return tasks.Validate()
}

// read fills d.buf with body, capped at maxBodyBytes as the reference
// decoder's reader is, and returns the read error (nil at EOF).
func (d *taskDecoder) read(body io.Reader) error {
	d.buf = d.buf[:0]
	lr := io.LimitedReader{R: body, N: maxBodyBytes}
	for {
		if len(d.buf) == cap(d.buf) {
			d.buf = append(d.buf, 0)[:len(d.buf)]
		}
		n, err := lr.Read(d.buf[len(d.buf):cap(d.buf)])
		d.buf = d.buf[:len(d.buf)+n]
		if err == io.EOF {
			return nil
		}
		if err != nil {
			return err
		}
	}
}

// poolable empties the scratch and reports whether d is small enough
// to go back to the pool.
func (d *taskDecoder) poolable() bool {
	d.tasks, d.names = d.tasks[:0], d.names[:0]
	return cap(d.buf) <= maxPooledBody
}

// reference replays what read saw to the reference decoder: the same
// bytes, then the same read error.
func (d *taskDecoder) reference(readErr error) io.Reader {
	if readErr == nil {
		return bytes.NewReader(d.buf)
	}
	return io.MultiReader(bytes.NewReader(d.buf), errReader{readErr})
}

type errReader struct{ err error }

func (e errReader) Read([]byte) (int, error) { return 0, e.err }

// submit decodes d.buf as a SubmitRequest: in one pass when the scanner
// accepts it, else with the reference decoder.
func (d *taskDecoder) submit(readErr error) (model.TaskSet, bool, error) {
	if readErr == nil {
		if clamp, ok := d.scanSubmit(); ok {
			return d.result(), clamp, nil
		}
	}
	var req SubmitRequest
	if err := decodeJSON(d.reference(readErr), &req); err != nil {
		return nil, false, err
	}
	return recordTasks(req.Tasks), req.Clamp, nil
}

// plan decodes d.buf as a PlanRequest: in one pass when the scanner
// accepts it, else with the reference decoder.
func (d *taskDecoder) plan(readErr error) (PlatformSpec, model.TaskSet, error) {
	if readErr == nil {
		if spec, ok := d.scanPlan(); ok {
			return spec, d.result(), nil
		}
	}
	var req PlanRequest
	if err := decodeJSON(d.reference(readErr), &req); err != nil {
		return PlatformSpec{}, nil, err
	}
	return req.PlatformSpec, recordTasks(req.Tasks), nil
}

// recordTasks converts the reference decoder's wire records to tasks.
func recordTasks(recs []trace.Record) model.TaskSet {
	if len(recs) == 0 {
		return nil
	}
	tasks := make(model.TaskSet, len(recs))
	for i, rec := range recs {
		tasks[i] = rec.Task()
	}
	return tasks
}

// scanSubmit is the one-pass SubmitRequest scan; ok is false when the
// body needs the reference decoder.
func (d *taskDecoder) scanSubmit() (clamp, ok bool) {
	d.i, d.tasks, d.names = 0, d.tasks[:0], d.names[:0]
	var seen uint8
	ok = d.object(func(key []byte) bool {
		var ok bool
		switch string(key) {
		case "tasks":
			return once(&seen, 1) && d.taskList()
		case "clamp":
			clamp, ok = d.boolean()
			return once(&seen, 2) && ok
		}
		return false
	})
	return clamp, ok
}

// scanPlan is the one-pass PlanRequest scan; ok is false when the body
// needs the reference decoder.
func (d *taskDecoder) scanPlan() (spec PlatformSpec, ok bool) {
	d.i, d.tasks, d.names = 0, d.tasks[:0], d.names[:0]
	var seen uint8
	ok = d.object(func(key []byte) bool {
		var ok bool
		switch string(key) {
		case "tasks":
			return once(&seen, 1) && d.taskList()
		case "cores":
			spec.Cores, ok = d.int()
			return once(&seen, 2) && ok
		case "platform":
			var s []byte
			s, ok = d.str()
			spec.Platform = string(s)
			return once(&seen, 4) && ok
		case "re":
			spec.Re, ok = d.float()
			return once(&seen, 8) && ok
		case "rt":
			spec.Rt, ok = d.float()
			return once(&seen, 16) && ok
		}
		return false
	})
	return spec, ok
}

// taskList scans the "tasks" array into d.tasks and d.names.
func (d *taskDecoder) taskList() bool {
	if !d.next('[') {
		return false
	}
	if d.next(']') {
		return true
	}
	for d.task() {
		if !d.next(',') {
			return d.next(']')
		}
	}
	return false
}

// task scans one trace.Record object as a model.Task, the conversion
// Record.Task makes: no deadline unless one is given.
func (d *taskDecoder) task() bool {
	t := model.Task{Deadline: model.NoDeadline}
	var name nameSpan
	var seen uint8
	ok := d.object(func(key []byte) bool {
		var ok bool
		switch string(key) {
		case "id":
			t.ID, ok = d.int()
			return once(&seen, 1) && ok
		case "name":
			var s []byte
			s, ok = d.str()
			name = nameSpan{d.i - 1 - len(s), d.i - 1}
			return once(&seen, 2) && ok
		case "cycles":
			t.Cycles, ok = d.float()
			return once(&seen, 4) && ok
		case "arrival":
			t.Arrival, ok = d.float()
			return once(&seen, 8) && ok
		case "deadline":
			t.Deadline, ok = d.float()
			return once(&seen, 16) && ok
		case "interactive":
			t.Interactive, ok = d.boolean()
			return once(&seen, 32) && ok
		}
		return false
	})
	d.tasks = append(d.tasks, t)
	d.names = append(d.names, name)
	return ok
}

// result copies the scanned tasks out of the pooled scratch: a fresh
// exact-length TaskSet whose names are all sliced from one string, so
// a batch of named tasks costs one allocation for its names.
func (d *taskDecoder) result() model.TaskSet {
	if len(d.tasks) == 0 {
		return nil
	}
	tasks := make(model.TaskSet, len(d.tasks))
	copy(tasks, d.tasks)
	// Gather the names after the body, in the pooled buffer, and copy
	// them out in one conversion.
	end := len(d.buf)
	for _, s := range d.names {
		d.buf = append(d.buf, d.buf[s.lo:s.hi]...)
	}
	all := string(d.buf[end:])
	d.buf = d.buf[:end]
	for k, s := range d.names {
		tasks[k].Name, all = all[:s.hi-s.lo], all[s.hi-s.lo:]
	}
	return tasks
}

// once sets bit in *seen and reports whether it was clear. A repeated
// key declines the scan: the reference decoder merges a repeat into
// the value before it.
func once(seen *uint8, bit uint8) bool {
	if *seen&bit != 0 {
		return false
	}
	*seen |= bit
	return true
}

// object scans an object, calling member for each key with the cursor
// after the colon; member scans the value and reports whether it could.
func (d *taskDecoder) object(member func(key []byte) bool) bool {
	if !d.next('{') {
		return false
	}
	if d.next('}') {
		return true
	}
	for {
		key, ok := d.str()
		if !ok || !d.next(':') || !member(key) {
			return false
		}
		if !d.next(',') {
			return d.next('}')
		}
	}
}

// ws skips JSON whitespace.
func (d *taskDecoder) ws() {
	buf, i := d.buf, d.i
	for i < len(buf) && (buf[i] == ' ' || buf[i] == '\n' || buf[i] == '\t' || buf[i] == '\r') {
		i++
	}
	d.i = i
}

// next skips whitespace and consumes c if it comes next. c is never
// whitespace, so it is looked for first, and whitespace skipped only
// when it is not there.
func (d *taskDecoder) next(c byte) bool {
	buf, i := d.buf, d.i
	if i < len(buf) && buf[i] == c {
		d.i = i + 1
		return true
	}
	d.ws()
	if d.i < len(d.buf) && d.buf[d.i] == c {
		d.i++
		return true
	}
	return false
}

// literal consumes s if the body continues with it.
func (d *taskDecoder) literal(s string) bool {
	if len(d.buf)-d.i >= len(s) && string(d.buf[d.i:d.i+len(s)]) == s {
		d.i += len(s)
		return true
	}
	return false
}

// strPlain marks the bytes str passes over without a second look:
// printable ASCII other than the quote and the backslash.
var strPlain = func() (t [256]bool) {
	for c := ' '; c < utf8.RuneSelf; c++ {
		t[c] = c != '"' && c != '\\'
	}
	return t
}()

// str scans a string without escapes or control characters and returns
// its bytes, which alias the body. Invalid UTF-8 declines too: the
// reference decoder rewrites it to U+FFFD.
func (d *taskDecoder) str() ([]byte, bool) {
	if !d.next('"') {
		return nil, false
	}
	buf, i := d.buf, d.i
	start, ascii := i, true
	for {
		for i < len(buf) && strPlain[buf[i]] {
			i++
		}
		if i == len(buf) {
			return nil, false
		}
		switch c := buf[i]; {
		case c == '"':
			d.i = i + 1
			s := buf[start:i]
			return s, ascii || utf8.Valid(s)
		case c == '\\', c < ' ':
			return nil, false
		}
		ascii = false // c >= utf8.RuneSelf
		i++
	}
}

// boolean scans true or false.
func (d *taskDecoder) boolean() (v, ok bool) {
	d.ws()
	if d.literal("true") {
		return true, true
	}
	return false, d.literal("false")
}

// scanNumber scans a literal of the JSON number grammar,
// -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?, and collects its value
// as it checks it. It returns the literal's start (it ends at d.i), its
// value, and whether it is integral (no fraction, no exponent).
func (d *taskDecoder) scanNumber() (lo int, n decimal, integral, ok bool) {
	d.ws()
	buf, i := d.buf, d.i
	lo = i
	neg := i < len(buf) && buf[i] == '-'
	if neg {
		i++
	}
	if i == len(buf) || buf[i]-'0' > 9 {
		return lo, n, false, false
	}
	// nd counts the significant digits in man. Past maxDigits, an
	// integer digit only scales the value and a fraction digit is
	// dropped; either way a non-zero one makes the decimal lossy.
	var man uint64
	nd, exp10, lossy := 0, 0, false
	if buf[i] == '0' {
		if i++; i < len(buf) && buf[i]-'0' <= 9 {
			return lo, n, false, false // a leading zero
		}
	} else {
		for ; nd <= maxDigits-8; nd, i = nd+8, i+8 {
			v, ok := eightDigits(buf, i)
			if !ok {
				break
			}
			man = man*1e8 + v
		}
		for ; i < len(buf); i++ {
			c := buf[i] - '0'
			if c > 9 {
				break
			}
			if nd < maxDigits {
				man = man*10 + uint64(c)
				nd++
			} else {
				exp10++
				lossy = lossy || c != 0
			}
		}
	}
	integral = true
	if i < len(buf) && buf[i] == '.' {
		i++
		frac := i
		if nd == 0 { // leading zeros only scale
			for i < len(buf) && buf[i] == '0' {
				i++
			}
			exp10 -= i - frac
		}
		for ; nd <= maxDigits-8; nd, i, exp10 = nd+8, i+8, exp10-8 {
			v, ok := eightDigits(buf, i)
			if !ok {
				break
			}
			man = man*1e8 + v
		}
		for ; i < len(buf); i++ {
			c := buf[i] - '0'
			if c > 9 {
				break
			}
			if nd < maxDigits {
				man = man*10 + uint64(c)
				nd++
				exp10--
			} else {
				lossy = lossy || c != 0
			}
		}
		if i == frac {
			return lo, n, false, false
		}
		integral = false
	}
	if i < len(buf) && buf[i]|0x20 == 'e' {
		i++
		eneg := false
		if i < len(buf) && (buf[i] == '+' || buf[i] == '-') {
			eneg = buf[i] == '-'
			i++
		}
		exp, e := i, 0
		for ; i < len(buf); i++ {
			c := buf[i] - '0'
			if c > 9 {
				break
			}
			if e < maxExp10 {
				e = e*10 + int(c)
			} else {
				lossy = true
			}
		}
		if i == exp {
			return lo, n, false, false
		}
		if eneg {
			e = -e
		}
		exp10 += e
		integral = false
	}
	d.i = i
	return lo, decimal{man: man, exp10: exp10, neg: neg, lossy: lossy}, integral, true
}

// eightDigits returns the value of buf[i:i+8] if those bytes are eight
// decimal digits, tested and converted in one 64-bit word, as Lemire's
// parser does.
func eightDigits(buf []byte, i int) (uint64, bool) {
	if len(buf)-i < 8 {
		return 0, false
	}
	v := binary.LittleEndian.Uint64(buf[i:])
	// Every byte is 0x30-0x39 iff its high nibble is 3, and is still 3
	// after adding 6; no byte that passes the first test carries.
	if v&0xF0F0F0F0F0F0F0F0|(v+0x0606060606060606)&0xF0F0F0F0F0F0F0F0>>4 != 0x3333333333333333 {
		return 0, false
	}
	// Combine adjacent digits into pairs, then pairs into the value:
	// the first byte read is the most significant digit.
	v -= 0x3030303030303030
	v = v*10 + v>>8
	v = (v&0x000000FF000000FF*(100+1000000<<32) + v>>16&0x000000FF000000FF*(1+10000<<32)) >> 32
	return v & 0xFFFFFFFF, true
}

// float scans a number into the float64 encoding/json decodes: the
// correctly rounded value, converted exactly when the decimal allows
// (number.go) and by strconv.ParseFloat, the call encoding/json makes,
// when it does not. Out-of-range values decline.
func (d *taskDecoder) float() (float64, bool) {
	lo, n, _, ok := d.scanNumber()
	if !ok {
		return 0, false
	}
	if f, ok := n.float64(); ok {
		return f, true
	}
	f, err := strconv.ParseFloat(string(d.buf[lo:d.i]), 64)
	return f, err == nil
}

// maxIntLit is the longest integral literal, sign included, that int
// takes from the scanned mantissa: 18 bytes where int has 64 bits
// (10^18 < 2^63), 9 where it has 32.
const maxIntLit = 9 * strconv.IntSize / 32

// int scans an integral number into an int, as encoding/json decodes it
// with ParseInt; a fraction, an exponent or overflow declines.
func (d *taskDecoder) int() (int, bool) {
	lo, n, integral, ok := d.scanNumber()
	if !ok || !integral {
		return 0, false
	}
	if d.i-lo <= maxIntLit {
		v := int(n.man)
		if n.neg {
			v = -v
		}
		return v, true
	}
	v, err := strconv.ParseInt(string(d.buf[lo:d.i]), 10, strconv.IntSize)
	return int(v), err == nil
}
