package cluster

import (
	"bufio"
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"slices"
	"strconv"
	"sync"
	"time"
	"unsafe"

	"dvfsched/internal/obs"
	"dvfsched/internal/server"
)

// This file is the replication plane. A mutation ships its session's
// log tail to the replica on its own goroutine, and its response is
// released only when the frame ack covering its event sequence number
// returns, so an acked mutation is in the replica's log. A session has
// at most one frame on the wire: a caller that finds one in flight
// waits for it, and the next frame carries every event committed
// meanwhile, so concurrent mutations of one session share frames. The
// frame is also the wire format of migration handoffs and replica
// drops. DESIGN §14 documents the protocol and the ack state machine.

// maxShipHeals bounds consecutive heal rounds (replica reported a gap
// or vanished) before the callers a frame covered are failed instead
// of retried — a persistently gappy replica must not hold acks forever.
const maxShipHeals = 3

// shipCursor is one owned session's position in its replica stream.
// Every field is guarded by Node.shipsMu.
type shipCursor struct {
	id     string
	target string // replica node ID the position below refers to
	opened bool   // replica acked an open (has the spec)
	acked  uint64 // last event Seq the replica's log is known to cover
	heals  int    // consecutive heal rounds without a clean ack
	purged bool   // session purged; its frame's callers return nil
	// flight is the session's one frame on the wire, nil when none: a
	// session is never in two frames, which is what makes `from = acked`
	// the only send cursor needed.
	flight *shipFlight
}

// shipFlight is one frame on the wire. The caller that posts it
// records the outcome before closing done; every caller that waited on
// it reads the outcome then and applies the same rules to itself.
type shipFlight struct {
	target string
	done   chan struct{}

	toSeq uint64 // last event Seq the frame carries
	// final: the session was purged or vanished, nothing is left to
	// protect, and every caller returns nil.
	final bool
	// transport: the POST failed on the transport, and err is what a
	// caller returns at its second such failure.
	transport bool
	// err fails the callers the frame covered (seq <= toSeq).
	err error
}

// Replicate implements server.Cluster: bring the session's replica up
// to date with the local recorder before the mutation's response is
// released — for submits the router fails the request if this fails,
// which is what makes "acked implies replicated" (and therefore
// kill-tolerance) hold. The ship runs on the caller's goroutine;
// rehomeReplicas and the handoff path rely on it having completed when
// Replicate returns.
func (n *Node) Replicate(ctx context.Context, id string, m server.Mutation) error {
	if len(n.view().peers) == 1 {
		return nil // solo "cluster": nothing to replicate to
	}
	if m == server.MutationPurge {
		return n.purgeStream(ctx, id)
	}
	seq, err := n.srv.SessionLastSeq(id)
	if err != nil {
		return nil // session vanished locally: nothing left to protect
	}
	start := time.Now()
	waited, err := n.ship(id, seq)
	if waited {
		n.shipAckWait.Observe(time.Since(start).Seconds())
	}
	if err != nil {
		return fmt.Errorf("cluster: replicate session %s: %w", id, err)
	}
	return nil
}

// ship brings the session's replica to cover seq. It returns at once
// when the ack already covers seq; otherwise it posts the next frame
// itself, or waits for the one in flight, and looks again. waited
// reports that it did either.
//
// A caller finishes its ship even when its own context ends: its
// mutation is already committed here, readable and built on by later
// mutations, and shipping it keeps the window in which a failover
// could lose it to one frame round trip. Every wait is
// bounded by the frames a caller can see, each by shipTimeout; a
// caller fails at its second transport failure, so it pays at most two
// replica round trips.
func (n *Node) ship(id string, seq uint64) (waited bool, err error) {
	transportFails := 0
	for {
		target := n.replicaTarget(id)
		if target == "" {
			return waited, nil // degrade: no live replica candidate
		}
		n.shipsMu.Lock()
		cur := n.ships[id]
		if cur == nil {
			cur = &shipCursor{id: id}
			n.ships[id] = cur
		}
		f := cur.flight
		covered := cur.target == target && cur.opened && cur.acked >= seq
		closed := n.shipsClosed
		mine, open, from := false, false, uint64(0)
		if f == nil && !covered && !closed {
			if cur.target != target {
				cur.target, cur.opened, cur.acked = target, false, 0
			}
			f = &shipFlight{target: target, done: make(chan struct{})}
			cur.flight = f
			mine, open, from = true, !cur.opened, cur.acked
		}
		n.shipsMu.Unlock()

		switch {
		case covered:
			return waited, nil
		case f == nil:
			return waited, errors.New("cluster node closed")
		case mine:
			if !n.fly(cur, f, open, from) {
				return true, nil // nothing past the cursor: the session was replaced
			}
		default:
			<-f.done
		}
		waited = true

		switch {
		case f.final:
			return true, nil
		case f.transport:
			// The peer is marked down, so the next pass's target is the
			// next live ring candidate, re-opened from zero.
			transportFails++
			if transportFails > 1 {
				return true, f.err
			}
		case f.err != nil && seq <= f.toSeq:
			return true, f.err
		}
	}
}

// fly builds the session's next frame from the cursor position
// (open, from), posts it to f.target, applies the outcome to the
// cursor, and lands the flight: the cursor is free for the next frame
// and every caller waiting on f wakes. It reports false, posting
// nothing, when nothing lies past the cursor.
func (n *Node) fly(cur *shipCursor, f *shipFlight, open bool, from uint64) bool {
	buf := shipBufPool.Get().(*shipBuf)
	toSeq, events, err := n.build(buf, frameHeader{ID: cur.id}, open, from)
	posted := err == nil && (open || events > 0)
	var status string
	var postErr error
	if posted {
		n.shipFrames.Inc()
		n.frameEvents.Observe(float64(events))
		n.shipInflight.Add(1)
		// The frame's own budget, not a caller's context: other callers
		// may be waiting on this frame, and a client that went away must
		// not abort it under them.
		status, postErr = n.postFrame(context.Background(), buf, f.target)
		n.shipInflight.Add(-1)
	}
	shipBufPool.Put(buf)
	transport := postErr != nil && !isStatusError(postErr)
	if transport {
		n.Observe(f.target, postErr)
	}

	n.shipsMu.Lock()
	cur.flight = nil
	f.toSeq = toSeq
	switch {
	case cur.purged:
		f.final = true
	case errors.Is(err, server.ErrSessionGone):
		f.final = true
		if n.ships[cur.id] == cur {
			delete(n.ships, cur.id)
		}
	case err != nil:
		// A spec that does not marshal (no validated spec does).
		f.err = fmt.Errorf("build frame: %w", err)
	case !posted:
	case transport:
		cur.opened, cur.acked = false, 0
		f.transport = true
		f.err = fmt.Errorf("ship to %s failed after failover: %w", f.target, postErr)
	case postErr != nil:
		// Whole-frame refusal from a live peer (malformed frame, body
		// cap): fail the covered callers and reset the stream; the next
		// mutation re-ships from zero.
		cur.opened, cur.acked = false, 0
		n.shipHeals.Inc()
		f.err = fmt.Errorf("replica %s refused frame: %w", f.target, postErr)
	case status == frameStatusOK:
		cur.opened = true
		cur.heals = 0
		if toSeq > cur.acked {
			cur.acked = toSeq
		}
		n.shipsTotal.Inc()
	default:
		// Gap or vanished replica: the replica lost state we thought
		// it had. Heal by resetting to a full re-ship, which the
		// covered callers ride, bounded by maxShipHeals in a row.
		cur.opened, cur.acked = false, 0
		cur.heals++
		n.shipHeals.Inc()
		if cur.heals > maxShipHeals {
			cur.heals = 0
			f.err = fmt.Errorf("replica %s rejected %d consecutive re-ships (%s)", f.target, maxShipHeals, status)
		}
	}
	n.shipsMu.Unlock()
	close(f.done)
	return posted || err != nil
}

// shipBuf is the scratch of one request: the blob area and the wire
// body of a frame, and call's request body reader, reply buffer and
// decoded frame reply. Frames take it from shipBufPool; Get and Put
// happen in the function that sends the frame, so no ownership leaves
// it.
type shipBuf struct {
	blob []byte
	body []byte
	rd   bytes.Reader
	resp []byte
	res  frameResult
}

var shipBufPool = sync.Pool{New: func() any { return &shipBuf{} }}

// build writes a frame for the session h names into buf.body and
// returns the last event Seq it carries (from when none) and its event
// count: the spec when opening, then the log tail past from. Any
// handoff fields set in h ride along. The log is the replica's whole
// state. A session that vanished locally returns
// server.ErrSessionGone.
func (n *Node) build(buf *shipBuf, h frameHeader, open bool, from uint64) (toSeq uint64, events int, err error) {
	h.From = n.cfg.ID
	if open {
		spec, ok := n.srv.SessionSpec(h.ID)
		if !ok {
			return from, 0, fmt.Errorf("%w: %s", server.ErrSessionGone, h.ID)
		}
		h.Spec = &spec
	}
	buf.blob, toSeq, events, err = n.srv.AppendSessionLogSince(h.ID, from, buf.blob[:0])
	if err != nil {
		return from, 0, err
	}
	h.EventsLen = len(buf.blob)
	buf.body, err = appendFrame(buf.body[:0], h, buf.blob)
	return toSeq, events, err
}

// appendFrame appends one whole frame to dst: the 4-byte header
// length, the JSON header, then the event blob. Every frame — stream,
// handoff, drop — is written here, and decodeFrame is the only reader.
func appendFrame(dst []byte, h frameHeader, events []byte) ([]byte, error) {
	start := len(dst)
	body, ok := appendFrameHeader(append(dst, 0, 0, 0, 0), h)
	if !ok {
		// A spec, a handoff or drop field, or an ID outside the one
		// rule: let encoding/json write the header.
		hdrJSON, err := json.Marshal(h)
		if err != nil {
			return dst, err
		}
		body = append(body, hdrJSON...)
	}
	binary.BigEndian.PutUint32(body[start:], uint32(len(body)-start-4))
	return append(body, events...), nil
}

// appendFrameHeader writes the header JSON of a plain log frame — no
// spec, handoff or drop fields, and IDs that pass server.ValidID, so
// nothing needs escaping — directly into b. It reports false, leaving
// b untouched, when the header needs the real encoder.
func appendFrameHeader(b []byte, h frameHeader) ([]byte, bool) {
	if h.Spec != nil || h.Drop || h.Submitted != 0 || h.Pinned || !server.ValidID(h.From) || !server.ValidID(h.ID) {
		return b, false
	}
	b = append(b, `{"from":"`...)
	b = append(b, h.From...)
	b = append(b, `","id":"`...)
	b = append(b, h.ID...)
	b = append(b, `","events_len":`...)
	b = strconv.AppendInt(b, int64(h.EventsLen), 10)
	return append(b, '}'), true
}

// postFrame posts the frame in buf to peer under shipTimeout on ctx
// and returns the status of the replica's reply. Any reply marks the
// peer up; a failed send marks nothing, and the caller decides.
func (n *Node) postFrame(ctx context.Context, buf *shipBuf, peer string) (string, error) {
	addr := n.Addr(peer)
	if addr == "" {
		return "", &statusError{code: http.StatusGone, body: fmt.Sprintf("node %s is not in the current view", peer)}
	}
	// Reset the reused reply first: Error is omitempty, so a decode
	// that omits it must not inherit a previous frame's value.
	buf.res = frameResult{}
	_, err := n.call(ctx, shipTimeout, buf, addr, "/v1/cluster/replica/frame", buf.body, &buf.res)
	if err == nil || isStatusError(err) {
		n.Observe(peer, nil)
	}
	return buf.res.Status, err
}

// appendLimitedRead reads r to EOF into dst, reusing its capacity, and
// stops after max bytes.
func appendLimitedRead(dst []byte, r io.Reader, max int) ([]byte, error) {
	for len(dst) < max {
		if len(dst) == cap(dst) {
			dst = slices.Grow(dst, 512)
		}
		m, err := r.Read(dst[len(dst):min(cap(dst), max)])
		dst = dst[:len(dst)+m]
		if err == io.EOF {
			return dst, nil
		}
		if err != nil {
			return dst, err
		}
	}
	return dst, nil
}

// purgeStream retires a purged session's stream state and best-effort
// drops the remote replica with a drop frame, which the replica
// applies only if this node opened it last (dropFrom).
func (n *Node) purgeStream(ctx context.Context, id string) error {
	n.shipsMu.Lock()
	var target string
	if cur, ok := n.ships[id]; ok {
		cur.purged = true
		target = cur.target
		delete(n.ships, id)
	}
	n.shipsMu.Unlock()
	if target != "" {
		// Best effort: a leaked tombstone on the replica is dropped the
		// next time the session ID is reused or the node restarts.
		buf := shipBufPool.Get().(*shipBuf)
		var err error
		if buf.body, err = appendFrame(buf.body[:0], frameHeader{From: n.cfg.ID, ID: id, Drop: true}, nil); err == nil {
			_, _ = n.postFrame(ctx, buf, target)
		}
		shipBufPool.Put(buf)
	}
	return nil
}

// Close stops replication: it marks the node closed, after which a
// mutation that still needs a ship fails, and waits for the frames of
// the sessions it tracks to land. Idempotent. Call after the HTTP
// server stopped serving mutations.
func (n *Node) Close() {
	n.shipsMu.Lock()
	n.shipsClosed = true
	var flights []*shipFlight
	for _, cur := range n.ships {
		if cur.flight != nil {
			flights = append(flights, cur.flight)
		}
	}
	n.shipsMu.Unlock()
	for _, f := range flights {
		<-f.done
	}
	n.transport.closeIdle()
}

// --- wire format ------------------------------------------------------

// A frame is `uint32 big-endian header length | JSON frameHeader |
// DVFB event blob`, about one session. JSON keeps the header
// debuggable; the log stays in the binary codec. The same format
// carries the replica stream and replica drops (POST
// /v1/cluster/replica/frame) and migration handoffs (POST
// /v1/cluster/handoff/{id}): a handoff is the stream's open frame from
// seq 0 with the two handoff fields set.
type frameHeader struct {
	// From is the sending node's ID; a replica remembers the sender that
	// opened it, and only that sender's drop retires it.
	From string `json:"from"`
	ID   string `json:"id"`
	// Spec present means "open": create the replica (idempotently) with
	// this platform spec before applying the log. A handoff always
	// carries it.
	Spec      *server.PlatformSpec `json:"spec,omitempty"`
	EventsLen int                  `json:"events_len"`
	// Drop retires the replica (a purge); a drop carries no spec and
	// no log.
	Drop bool `json:"drop,omitempty"`
	// Submitted and Pinned ride only on a handoff: the sender's
	// admitted-task count, which the adopted shard must reproduce, and
	// whether the new placement is pinned.
	Submitted int  `json:"submitted,omitempty"`
	Pinned    bool `json:"pinned,omitempty"`
}

// frameResult is the replica endpoint's 200 reply: the frame's
// outcome. A malformed frame is refused with a 400 instead.
type frameResult struct {
	Status string `json:"status"`
	Error  string `json:"error,omitempty"`
}

const (
	frameStatusOK = "ok"
	// frameStatusGap: the log blob does not continue the replica's log,
	// or does not decode; the owner heals with a full re-ship.
	frameStatusGap = "gap"
	// frameStatusNoReplica: no replica and no spec in the frame; the
	// owner re-opens.
	frameStatusNoReplica = "no_replica"
)

// decodeFrame splits a frame into its header and event blob. On
// success the sender and session IDs pass server.ValidID and the blob
// is exactly the length the header declares.
func decodeFrame(body []byte) (frameHeader, []byte, error) {
	var hdr frameHeader
	if len(body) < 4 {
		return hdr, nil, errors.New("frame shorter than its length prefix")
	}
	hlen := int(binary.BigEndian.Uint32(body[:4]))
	if hlen < 0 || hlen > len(body)-4 {
		return hdr, nil, fmt.Errorf("frame header length %d exceeds body", hlen)
	}
	if err := json.Unmarshal(body[4:4+hlen], &hdr); err != nil {
		return hdr, nil, fmt.Errorf("decode frame header: %w", err)
	}
	if !server.ValidID(hdr.From) {
		return hdr, nil, fmt.Errorf("invalid sender %q: want 1-64 chars of [A-Za-z0-9._-]", hdr.From)
	}
	if !server.ValidID(hdr.ID) {
		return hdr, nil, fmt.Errorf("invalid session ID %q: want 1-64 chars of [A-Za-z0-9._-]", hdr.ID)
	}
	blob := body[4+hlen:]
	if hdr.EventsLen != len(blob) {
		return hdr, nil, fmt.Errorf("session %s: events_len %d, but the frame carries %d blob bytes", hdr.ID, hdr.EventsLen, len(blob))
	}
	if hdr.Drop && (hdr.Spec != nil || hdr.EventsLen > 0) {
		return hdr, nil, fmt.Errorf("session %s: a drop carries a spec or a log", hdr.ID)
	}
	return hdr, blob, nil
}

// frameIntake is the receive side's scratch for one frame: the body,
// read whole, and the decoder of its event blob with the event slice
// it fills. Both frame endpoints take it from frameIntakePool and give
// it back through trim, so the pool never pins an open frame's or a
// handoff's body or events. Nothing applied or adopted aliases it:
// appendLog copies events, a replay keeps none, and dictionary strings
// are allocated per trace.
type frameIntake struct {
	body []byte
	src  bytes.Reader
	buf  *bufio.Reader
	br   *obs.BinaryReader
	evs  []obs.Event
}

var frameIntakePool = sync.Pool{New: func() any {
	in := &frameIntake{}
	in.buf = bufio.NewReaderSize(&in.src, 32<<10)
	in.br = obs.NewBinaryReader(in.buf)
	return in
}}

// maxPooledIntake bounds what a pooled intake keeps of its body and,
// separately, of its events: the 1 MiB server.taskDecoderPool keeps
// its bodies under.
const maxPooledIntake = 1 << 20

// trim drops the body or the event slice when it holds more than
// maxPooledIntake bytes, before in goes back to frameIntakePool.
func (in *frameIntake) trim() {
	if cap(in.body) > maxPooledIntake {
		in.body = nil
	}
	if cap(in.evs)*int(unsafe.Sizeof(obs.Event{})) > maxPooledIntake {
		in.evs = nil
	}
}

// read reads r's body, at most maxReplicaBody bytes, and splits it
// into the frame's header and event blob (decodeFrame). The blob
// aliases in.
func (in *frameIntake) read(r *http.Request) (frameHeader, []byte, error) {
	if n := r.ContentLength; n > int64(cap(in.body)) && n <= maxReplicaBody {
		in.body = make([]byte, 0, n)
	}
	var err error
	if in.body, err = appendLimitedRead(in.body[:0], r.Body, maxReplicaBody); err != nil {
		return frameHeader{}, nil, fmt.Errorf("read body: %w", err)
	}
	return decodeFrame(in.body)
}

// decodeEvents strictly decodes a complete binary trace into in.evs,
// failing on any damaged frame like obs.ReadBinary.
func (in *frameIntake) decodeEvents(blob []byte) ([]obs.Event, error) {
	in.src.Reset(blob)
	in.buf.Reset(&in.src)
	in.br.Reset(in.buf)
	in.evs = in.evs[:0]
	for {
		ev, err := in.br.Next()
		if errors.Is(err, io.EOF) {
			return in.evs, nil
		}
		if err != nil {
			return nil, err
		}
		in.evs = append(in.evs, ev)
	}
}

// handleReplicaFrame is POST /v1/cluster/replica/frame: apply one
// stream or drop frame. Only a malformed frame is an HTTP error; a
// gap or a missing replica travels in the 200 reply's status, and the
// owner heals it by re-shipping.
func (n *Node) handleReplicaFrame(w http.ResponseWriter, r *http.Request) {
	in := frameIntakePool.Get().(*frameIntake)
	hdr, blob, err := in.read(r)
	var res frameResult
	if err == nil {
		res = n.applyFrame(in, hdr, blob)
	}
	in.trim()
	frameIntakePool.Put(in)
	if err != nil {
		httpError(w, http.StatusBadRequest, "%v", err)
		return
	}
	writeClusterJSON(w, res)
}

// applyFrame applies a decoded frame to the replica it names: a drop,
// or open (when the spec rides along), then append the log blob,
// decoded in in.
func (n *Node) applyFrame(in *frameIntake, h frameHeader, blob []byte) frameResult {
	res := frameResult{Status: frameStatusOK}
	if h.Drop {
		n.replicas.dropFrom(h.ID, h.From)
		return res
	}
	var rep *replica
	if h.Spec != nil {
		rep = n.replicas.open(h.ID, *h.Spec, h.From)
	} else {
		var ok bool
		if rep, ok = n.replicas.get(h.ID); !ok {
			res.Status = frameStatusNoReplica
			return res
		}
	}
	if len(blob) > 0 {
		if events, err := in.decodeEvents(blob); err != nil {
			res.Status, res.Error = frameStatusGap, "decode log: "+err.Error()
		} else if err := rep.appendLog(events); err != nil {
			res.Status, res.Error = frameStatusGap, err.Error()
		}
	}
	return res
}
