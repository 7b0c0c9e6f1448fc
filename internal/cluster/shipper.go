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
	"net/url"
	"strconv"
	"sync"
	"time"

	"dvfsched/internal/obs"
	"dvfsched/internal/server"
)

// This file is the replication plane: one long-lived shipper goroutine
// per peer multiplexes every owned session's log tail into coalesced
// frames (one request carries many sessions' event deltas and opens),
// pipelined up to a bounded in-flight window. A mutation's response is
// released only when the frame ack covering its event sequence number
// returns, so an acked mutation is in the replica's log; the ship cost
// amortizes across every mutation that committed while the previous
// frame was on the wire. The frame is also the wire format of
// migration handoffs and replica drops. DESIGN §14 documents the
// protocol and the window/ack state machine.

// DefaultShipWindow is the per-peer bound on in-flight replication
// frames when Config.ShipWindow is zero.
const DefaultShipWindow = 4

// maxShipHeals bounds consecutive heal rounds (replica reported a gap
// or vanished) before the waiting mutations are failed instead of
// retried — a persistently gappy replica must not hold acks forever.
const maxShipHeals = 3

// shipCursor is one owned session's position in its replica stream.
// Every field is guarded by Node.shipsMu; the cursor migrates between
// per-peer shippers when the session's replica target changes.
type shipCursor struct {
	id     string
	target string // replica node ID; "" when degraded (no live candidate)
	opened bool   // replica acked an open (has the spec)
	acked  uint64 // last event Seq the replica's log is known to cover
	// inflightOn names the peer whose in-flight frame carries this
	// cursor ("" = none): a session is never in two frames to the same
	// peer, which is what makes `from = acked` the only send cursor
	// needed.
	inflightOn string
	queued     bool // already in its shipper's queue
	purged     bool // session purged; drop silently wherever it surfaces
	heals      int  // consecutive heal rounds without a clean ack
	// wantSeq is the highest event Seq any waiter asked to be covered;
	// acked < wantSeq means the cursor still has unshipped tail.
	wantSeq uint64
	waiters []*shipWaiter
}

// shipWaiter is one mutation blocked on the ack covering seq.
type shipWaiter struct {
	seq      uint64
	retried  bool       // survived one target failover already
	deadline time.Time  // past it, the sweep fails the waiter: stuck stream
	ch       chan error // capacity 1; receives exactly one result
}

// shipRelease is a resolved waiter, completed outside shipsMu.
type shipRelease struct {
	ch  chan error
	err error
}

func sendReleases(rels []shipRelease) {
	for _, r := range rels {
		r.ch <- r.err
	}
}

// drainWaiters detaches every waiter with one shared result. Caller
// holds shipsMu; the sends happen later, unlocked.
func drainWaiters(cur *shipCursor, err error) []shipRelease {
	if len(cur.waiters) == 0 {
		return nil
	}
	rels := make([]shipRelease, 0, len(cur.waiters))
	for _, w := range cur.waiters {
		rels = append(rels, shipRelease{ch: w.ch, err: err})
	}
	cur.waiters = nil
	return rels
}

// ackWaitersLocked releases every waiter the current ack covers.
// Caller holds shipsMu.
func ackWaitersLocked(cur *shipCursor, rels []shipRelease) []shipRelease {
	keep := cur.waiters[:0]
	for _, w := range cur.waiters {
		if w.seq <= cur.acked {
			rels = append(rels, shipRelease{ch: w.ch})
		} else {
			keep = append(keep, w)
		}
	}
	cur.waiters = keep
	return rels
}

// shipper is one peer's replication stream: a dispatcher goroutine
// draining a queue of dirty cursors into coalesced frames, at most
// `window` frames in flight. queue and inflight are guarded by
// Node.shipsMu like the cursors they reference.
type shipper struct {
	n      *Node
	peer   string
	window int
	wake   chan struct{} // capacity 1: coalesces kicks
	stop   chan struct{}
	done   chan struct{}

	queue    []*shipCursor
	inflight int
}

// shipperForLocked returns the peer's shipper, starting one on first
// use. Caller holds shipsMu. Returns nil after Close.
func (n *Node) shipperForLocked(peer string) *shipper {
	if n.shipsClosed {
		return nil
	}
	s, ok := n.shippers[peer]
	if !ok {
		s = &shipper{
			n:      n,
			peer:   peer,
			window: n.cfg.ShipWindow,
			wake:   make(chan struct{}, 1),
			stop:   make(chan struct{}),
			done:   make(chan struct{}),
		}
		n.shippers[peer] = s
		go s.run()
	}
	return s
}

// enqueueCursorLocked queues the cursor on its shipper unless it is
// already queued or riding an in-flight frame (finish re-queues it
// then). Caller holds shipsMu; reports whether a kick is warranted.
func enqueueCursorLocked(s *shipper, cur *shipCursor) bool {
	if s == nil || cur.queued || cur.inflightOn != "" {
		return false
	}
	cur.queued = true
	s.queue = append(s.queue, cur)
	return true
}

// kick wakes the dispatcher; a pending wake already covers this one.
func (s *shipper) kick() {
	select {
	case s.wake <- struct{}{}:
	default:
	}
}

// run is the dispatcher loop: wait for work, then dispatch frames
// until the queue drains or the window fills. A coarse ticker sweeps
// expired waiters — one timer per peer instead of one per mutation on
// the ack hot path.
func (s *shipper) run() {
	defer close(s.done)
	sweep := time.NewTicker(shipTimeout)
	defer sweep.Stop()
	for {
		select {
		case <-s.stop:
			return
		case <-sweep.C:
			s.sweepStale()
			continue
		case <-s.wake:
		}
		for s.dispatchOne() {
		}
	}
}

// sweepStale fails waiters whose deadline passed on cursors this
// shipper owns. The deadline is the stuck-stream backstop (the honest
// paths — ack, heal failure, failover, degrade, close — all release
// waiters directly), so tick-granularity firing is plenty.
func (s *shipper) sweepStale() {
	now := time.Now()
	var rels []shipRelease
	s.n.shipsMu.Lock()
	for _, cur := range s.n.ships {
		if cur.target != s.peer {
			continue
		}
		kept := cur.waiters[:0]
		for _, w := range cur.waiters {
			if now.After(w.deadline) {
				rels = append(rels, shipRelease{ch: w.ch, err: errors.New("replication ack timed out")})
			} else {
				kept = append(kept, w)
			}
		}
		cur.waiters = kept
	}
	s.n.shipsMu.Unlock()
	sendReleases(rels)
}

// entryPlan is one session's slot in a frame under construction.
type entryPlan struct {
	cur  *shipCursor
	id   string
	from uint64 // ship events with Seq > from
	open bool   // include the spec (replica may not know the session)

	// Filled by the frame build:
	toSeq uint64 // last event Seq the frame carries (== from if none)
	entry int    // index of the plan's entry in the frame header
	gone  bool   // session vanished locally; forget the cursor
	skip  bool   // nothing to ship; acked state already covers waiters
}

// dispatchOne builds one frame from the queued cursors and hands it to
// a sender goroutine. Reports whether it dispatched (callers loop).
func (s *shipper) dispatchOne() bool {
	n := s.n
	n.shipsMu.Lock()
	if n.shipsClosed || s.inflight >= s.window || len(s.queue) == 0 {
		n.shipsMu.Unlock()
		return false
	}
	batch := s.queue
	s.queue = nil
	plans := make([]*entryPlan, 0, len(batch))
	for _, cur := range batch {
		cur.queued = false
		if cur.purged || cur.target != s.peer || cur.inflightOn != "" {
			continue
		}
		plans = append(plans, &entryPlan{
			cur:  cur,
			id:   cur.id,
			from: cur.acked,
			open: !cur.opened,
		})
		cur.inflightOn = s.peer
	}
	if len(plans) == 0 {
		n.shipsMu.Unlock()
		return false
	}
	s.inflight++
	n.shipsMu.Unlock()
	n.shipInflight.Add(1)
	n.shipWG.Add(1)
	go s.send(plans)
	return true
}

// shipBuf is the reusable scratch of one frame round trip: the event
// read buffer, the concatenated blob area, the final wire body, the
// request body reader, the reply read buffer and the decoded result
// (whose Sessions backing array json.Unmarshal reuses). Pooled; Get
// and Put happen in the same sender frame, so no ownership leaves the
// function — finish copies what it keeps before the Put.
type shipBuf struct {
	evs  []obs.Event
	blob []byte
	body []byte
	hdr  []frameEntry
	rd   bytes.Reader
	resp []byte
	res  frameResult
}

var shipBufPool = sync.Pool{New: func() any { return &shipBuf{} }}

// send builds, posts and resolves one frame. Runs in its own
// goroutine, tracked by Node.shipWG.
func (s *shipper) send(plans []*entryPlan) {
	defer s.n.shipWG.Done()
	buf := shipBufPool.Get().(*shipBuf)
	// Zero the whole reused result array, not just its length: Error is
	// omitempty, so a decode that omits it must not inherit a previous
	// frame's value.
	buf.res.Sessions = buf.res.Sessions[:cap(buf.res.Sessions)]
	clear(buf.res.Sessions)
	buf.res.Sessions = buf.res.Sessions[:0]
	sessions, events := s.build(buf, plans)
	var sendErr error
	if sessions > 0 {
		s.n.shipFrames.Inc()
		s.n.frameSessions.Observe(float64(sessions))
		s.n.frameEvents.Observe(float64(events))
		sendErr = s.postFrame(buf)
	}
	s.finish(plans, buf.res, sendErr)
	buf.evs = buf.evs[:0]
	buf.blob = buf.blob[:0]
	buf.body = buf.body[:0]
	buf.resp = buf.resp[:0]
	shipBufPool.Put(buf)
	s.n.shipInflight.Add(-1)
}

// build assembles the wire frame into buf and returns how many session
// entries and events it carries: per entry the spec when opening, then
// the event tail. The log is the replica's whole state, so a stream
// frame never carries a checkpoint.
func (s *shipper) build(buf *shipBuf, plans []*entryPlan) (sessions, events int) {
	n := s.n
	entries := buf.hdr[:0]
	buf.evs = buf.evs[:0]
	blob := buf.blob[:0]
	for _, p := range plans {
		e := frameEntry{ID: p.id}
		if p.open {
			spec, ok := n.srv.SessionSpec(p.id)
			if !ok {
				p.gone = true
				continue
			}
			e.Spec = &spec
		}
		start := len(buf.evs)
		evs, err := n.srv.AppendSessionEventsSince(p.id, p.from, buf.evs)
		if err != nil {
			p.gone = true
			continue
		}
		buf.evs = evs
		tail := evs[start:]
		p.toSeq = p.from
		if len(tail) > 0 {
			p.toSeq = tail[len(tail)-1].Seq
		} else if !p.open {
			p.skip = true // nothing new: the ack is already covered
			continue
		}
		before := len(blob)
		blob = obs.AppendBinary(blob, tail)
		e.EventsLen = len(blob) - before
		p.entry = len(entries)
		entries = append(entries, e)
		events += len(tail)
	}
	buf.blob = blob
	buf.hdr = entries
	if len(entries) == 0 {
		return 0, 0
	}
	body, err := appendFrame(buf.body[:0], n.cfg.ID, entries, blob)
	if err != nil {
		// A spec that does not marshal (no validated spec does): an empty
		// frame degrades safely, the next mutation retries.
		return 0, 0
	}
	buf.body = body
	return len(entries), events
}

// appendFrame appends one whole frame to dst: the 4-byte header
// length, the JSON header naming the sender, then the blobs in order.
// Every frame — stream, handoff, drop — is written here, and
// decodeFrame is the only reader.
func appendFrame(dst []byte, from string, entries []frameEntry, blobs ...[]byte) ([]byte, error) {
	start := len(dst)
	body, ok := appendFrameHeader(append(dst, 0, 0, 0, 0), from, entries)
	if !ok {
		// A spec, a handoff or drop field, or a string the fast encoder
		// won't vouch for: let encoding/json write the whole header.
		hdrJSON, err := json.Marshal(frameHeader{From: from, Sessions: entries})
		if err != nil {
			return dst, err
		}
		body = append(body, hdrJSON...)
	}
	binary.BigEndian.PutUint32(body[start:], uint32(len(body)-start-4))
	for _, b := range blobs {
		body = append(body, b...)
	}
	return body, nil
}

// appendFrameHeader writes the frame header JSON for the common case
// — log entries with no spec, checkpoint, handoff or drop fields, and
// strings that need no escaping — directly into b. It reports false,
// leaving b's length untouched, when the header needs the real
// encoder.
func appendFrameHeader(b []byte, from string, entries []frameEntry) ([]byte, bool) {
	start := len(b)
	if !plainJSONString(from) {
		return b, false
	}
	b = append(b, `{"from":"`...)
	b = append(b, from...)
	b = append(b, `","sessions":[`...)
	for i, e := range entries {
		if e.Spec != nil || e.CheckpointLen != 0 || e.Drop || e.Submitted != 0 || e.Pinned || !plainJSONString(e.ID) {
			return b[:start], false
		}
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, `{"id":"`...)
		b = append(b, e.ID...)
		b = append(b, `","events_len":`...)
		b = strconv.AppendInt(b, int64(e.EventsLen), 10)
		b = append(b, '}')
	}
	b = append(b, `]}`...)
	return b, true
}

// plainJSONString reports whether s encodes as itself inside JSON
// quotes: printable ASCII with no escapes. Session and node IDs are
// validated to [A-Za-z0-9._-], so this holds on every real path.
func plainJSONString(s string) bool {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 0x20 || c == '"' || c == '\\' || c >= 0x7f {
			return false
		}
	}
	return true
}

// frameReqHeader is the fixed header set of every frame POST. The
// transport only reads request headers, so one shared map serves all
// concurrent sends.
var frameReqHeader = http.Header{"Content-Type": {"application/json"}}

// postFrame posts the frame and decodes the per-session results into
// buf.res. It is a hand-built, scratch-reusing variant of doAddrJSON:
// frames are the replication hot path, so the request, its body
// reader and the reply buffer all come from the pooled shipBuf
// instead of being allocated per ship.
func (s *shipper) postFrame(buf *shipBuf) error {
	n := s.n
	addr := n.Addr(s.peer)
	if addr == "" {
		return &statusError{code: http.StatusGone, body: fmt.Sprintf("node %s is not in the current view", s.peer)}
	}
	u, err := url.Parse(addr + "/v1/cluster/replica/frame")
	if err != nil {
		return err
	}
	ctx, cancel := context.WithTimeout(context.Background(), shipTimeout)
	defer cancel()
	body := buf.body
	buf.rd.Reset(body)
	req := (&http.Request{
		Method:        http.MethodPost,
		URL:           u,
		Host:          u.Host,
		Header:        frameReqHeader,
		Body:          io.NopCloser(&buf.rd),
		ContentLength: int64(len(body)),
		// GetBody keeps the transport's stale-idle-connection retry,
		// which NewRequest would have derived from the bytes.Reader.
		GetBody: func() (io.ReadCloser, error) {
			return io.NopCloser(bytes.NewReader(body)), nil
		},
	}).WithContext(ctx)
	resp, err := n.client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	buf.resp, err = appendLimitedRead(buf.resp[:0], resp.Body, maxReplicaBody)
	if err != nil {
		return err
	}
	if resp.StatusCode < 200 || resp.StatusCode >= 300 {
		msg := buf.resp
		if len(msg) > 1024 {
			msg = msg[:1024]
		}
		n.Observe(s.peer, nil)
		return &statusError{code: resp.StatusCode, body: string(bytes.TrimSpace(msg))}
	}
	if err := json.Unmarshal(buf.resp, &buf.res); err != nil {
		return fmt.Errorf("decode reply from %s: %w", addr, err)
	}
	n.Observe(s.peer, nil)
	return nil
}

// appendLimitedRead reads r to EOF into dst (reusing its capacity),
// refusing to grow past max.
func appendLimitedRead(dst []byte, r io.Reader, max int64) ([]byte, error) {
	for {
		if len(dst) == cap(dst) {
			if int64(len(dst)) >= max {
				return dst, nil
			}
			grow := cap(dst)
			if grow < 512 {
				grow = 512
			}
			dst = append(dst, make([]byte, grow)...)[:len(dst)]
		}
		m, err := r.Read(dst[len(dst):cap(dst)])
		dst = dst[:len(dst)+m]
		if err == io.EOF {
			return dst, nil
		}
		if err != nil {
			return dst, err
		}
	}
}

// finish applies one frame's outcome to its cursors: advance ack
// cursors and release covered waiters on success, reset for a full
// re-ship on a reported gap, or fail the stream over to the next ring
// candidate on a transport error — carrying unacked waiters to the new
// target once.
func (s *shipper) finish(plans []*entryPlan, res frameResult, sendErr error) {
	n := s.n
	transportFail := sendErr != nil && !isStatusError(sendErr)
	if transportFail {
		n.Observe(s.peer, sendErr)
	}

	var rels []shipRelease
	var retarget []*entryPlan
	var kicks []*shipper

	n.shipsMu.Lock()
	s.inflight--
	for _, p := range plans {
		cur := p.cur
		if cur.inflightOn == s.peer {
			cur.inflightOn = ""
		}
		if cur.purged {
			rels = append(rels, drainWaiters(cur, nil)...)
			continue
		}
		if cur.target != s.peer {
			// Retargeted while this frame flew; the new stream owns the
			// cursor — just make sure it is queued there.
			if cur.target != "" {
				sh := n.shipperForLocked(cur.target)
				if enqueueCursorLocked(sh, cur) {
					kicks = append(kicks, sh)
				}
			}
			continue
		}
		switch {
		case p.gone:
			rels = append(rels, drainWaiters(cur, nil)...)
			delete(n.ships, cur.id)
			continue
		case p.skip:
			rels = ackWaitersLocked(cur, rels)
		case transportFail:
			retarget = append(retarget, p)
			continue
		case sendErr != nil:
			// Whole-frame refusal from a live peer (malformed frame, body
			// cap): fail the waiters and reset the stream; the next
			// mutation re-ships from zero.
			cur.opened, cur.acked = false, 0
			n.shipHeals.Inc()
			rels = append(rels, drainWaiters(cur, fmt.Errorf("replica %s refused frame: %w", s.peer, sendErr))...)
		default:
			// The replica answers one result per entry, in header order.
			var er frameEntryResult
			if p.entry < len(res.Sessions) && res.Sessions[p.entry].ID == p.id {
				er = res.Sessions[p.entry]
			}
			if er.Status == frameStatusOK {
				cur.opened = true
				cur.heals = 0
				if p.toSeq > cur.acked {
					cur.acked = p.toSeq
				}
				n.shipsTotal.Inc()
				rels = ackWaitersLocked(cur, rels)
			} else {
				// Gap, vanished replica, or no result for this session
				// at its entry's position: the replica lost state we
				// thought it had. Heal by resetting to a full re-ship;
				// waiters ride along, bounded by maxShipHeals.
				cur.opened, cur.acked = false, 0
				cur.heals++
				n.shipHeals.Inc()
				if cur.heals > maxShipHeals {
					cur.heals = 0
					rels = append(rels, drainWaiters(cur, fmt.Errorf("replica %s rejected %d consecutive re-ships (%s)", s.peer, maxShipHeals, er.Status))...)
				}
			}
		}
		// Re-queue when unshipped tail or blocked waiters remain; a
		// failed cursor with no waiters stays dormant until the next
		// mutation retries it, so a broken replica cannot hot-loop.
		if len(cur.waiters) > 0 || (cur.wantSeq > cur.acked && cur.heals == 0 && cur.opened) {
			if enqueueCursorLocked(s, cur) {
				kicks = append(kicks, s)
			}
		}
	}
	if len(s.queue) > 0 && s.inflight < s.window {
		kicks = append(kicks, s)
	}
	n.shipsMu.Unlock()
	sendReleases(rels)

	if len(retarget) > 0 {
		kicks = append(kicks, s.failover(retarget, sendErr)...)
	}
	for _, sh := range kicks {
		sh.kick()
	}
}

// failover reroutes cursors whose frame hit a transport error: the
// peer is marked down (Observe above), so the ring yields the next
// live candidate; the stream re-opens there from zero. Waiters are
// carried across exactly one failover — a second transport failure
// fails them, so a mutation pays at most two replica round trips. No
// remaining candidate degrades to unreplicated, releasing the waiters
// cleanly (the last other node just died; nothing to wait for).
func (s *shipper) failover(plans []*entryPlan, sendErr error) []*shipper {
	n := s.n
	nexts := make([]string, len(plans))
	for i, p := range plans {
		nexts[i] = n.replicaTarget(p.id)
	}
	var rels []shipRelease
	var kicks []*shipper
	n.shipsMu.Lock()
	for i, p := range plans {
		cur := p.cur
		if cur.purged || cur.target != s.peer || cur.inflightOn != "" {
			continue
		}
		next := nexts[i]
		if next == "" {
			cur.target, cur.opened, cur.acked = "", false, 0
			rels = append(rels, drainWaiters(cur, nil)...)
			continue
		}
		cur.target, cur.opened, cur.acked = next, false, 0
		keep := cur.waiters[:0]
		for _, w := range cur.waiters {
			if w.retried {
				rels = append(rels, shipRelease{ch: w.ch, err: fmt.Errorf("ship to %s failed after failover: %w", s.peer, sendErr)})
			} else {
				w.retried = true
				keep = append(keep, w)
			}
		}
		cur.waiters = keep
		sh := n.shipperForLocked(next)
		if enqueueCursorLocked(sh, cur) {
			kicks = append(kicks, sh)
		}
	}
	n.shipsMu.Unlock()
	sendReleases(rels)
	return kicks
}

// --- Replicate: the stream's front half -------------------------------

// Replicate implements server.Cluster: bring the session's replica up
// to date with the local recorder before the mutation's response is
// released — for submits the router fails the request if this fails,
// which is what makes "acked implies replicated" (and therefore
// kill-tolerance) hold. It registers a waiter for the session's
// current log tail with the target's shipper and blocks until the
// covering ack (or a failure) releases it; rehomeReplicas and the
// handoff path rely on that completion guarantee.
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
	target := n.replicaTarget(id)
	if target == "" {
		return nil // degrade: no live replica candidate
	}
	start := time.Now()
	ch, sh := n.enqueueWaiter(id, target, seq)
	if ch == nil {
		return nil // ack already covers seq (or the node is closing)
	}
	if sh != nil {
		sh.kick()
	}
	select {
	case werr := <-ch:
		n.shipAckWait.Observe(time.Since(start).Seconds())
		if werr != nil {
			return fmt.Errorf("cluster: replicate session %s: %w", id, werr)
		}
		return nil
	case <-ctx.Done():
		return fmt.Errorf("cluster: replicate session %s: %w", id, ctx.Err())
	}
}

// enqueueWaiter registers a waiter for seq on the session's stream,
// retargeting the cursor if the ring moved its replica. A nil channel
// means no wait is needed.
func (n *Node) enqueueWaiter(id, target string, seq uint64) (chan error, *shipper) {
	n.shipsMu.Lock()
	if n.shipsClosed {
		n.shipsMu.Unlock()
		return nil, nil
	}
	cur, ok := n.ships[id]
	if !ok {
		cur = &shipCursor{id: id}
		n.ships[id] = cur
	}
	if cur.target == target && cur.opened && cur.acked >= seq {
		n.shipsMu.Unlock()
		return nil, nil
	}
	if cur.target != target {
		cur.target, cur.opened, cur.acked = target, false, 0
	}
	if seq > cur.wantSeq {
		cur.wantSeq = seq
	}
	ch := make(chan error, 1)
	// Four frame budgets bound the honest path (a waiter survives at
	// most one failover re-ship); past that the stream is stuck and the
	// shipper's sweep fails the waiter.
	cur.waiters = append(cur.waiters, &shipWaiter{
		seq:      seq,
		deadline: time.Now().Add(4 * shipTimeout),
		ch:       ch,
	})
	sh := n.shipperForLocked(target)
	enqueueCursorLocked(sh, cur)
	n.shipsMu.Unlock()
	return ch, sh
}

// purgeStream retires a purged session's stream state and best-effort
// drops the remote replica with a one-entry drop frame, which the
// replica applies only if this node opened it last (dropFrom).
func (n *Node) purgeStream(ctx context.Context, id string) error {
	n.shipsMu.Lock()
	var rels []shipRelease
	var target string
	if cur, ok := n.ships[id]; ok {
		cur.purged = true
		target = cur.target
		rels = drainWaiters(cur, nil)
		delete(n.ships, id)
	}
	n.shipsMu.Unlock()
	sendReleases(rels)
	if target != "" {
		// Best effort: a leaked tombstone on the replica is dropped the
		// next time the session ID is reused or the node restarts.
		if body, err := appendFrame(nil, n.cfg.ID, []frameEntry{{ID: id, Drop: true}}); err == nil {
			_ = n.post(ctx, target, "/v1/cluster/replica/frame", "application/json", body)
		}
	}
	return nil
}

// Close stops the replication streams: blocked acks are failed, every
// shipper exits, and in-flight frame senders are awaited. Idempotent.
// Call after the HTTP server stopped serving mutations.
func (n *Node) Close() {
	n.shipsMu.Lock()
	if n.shipsClosed {
		n.shipsMu.Unlock()
		return
	}
	n.shipsClosed = true
	shippers := make([]*shipper, 0, len(n.shippers))
	for _, s := range n.shippers {
		shippers = append(shippers, s)
	}
	var rels []shipRelease
	for _, cur := range n.ships {
		rels = append(rels, drainWaiters(cur, errors.New("cluster node closed"))...)
	}
	n.shipsMu.Unlock()
	sendReleases(rels)
	for _, s := range shippers {
		close(s.stop)
	}
	for _, s := range shippers {
		<-s.done
	}
	n.shipWG.Wait()
}

// --- wire format ------------------------------------------------------

// A frame is `uint32 big-endian header length | JSON frameHeader |
// concatenated blobs`: per session entry, in header order, the DVFB
// event blob then the DVSC checkpoint blob, each of the length the
// header declares. JSON keeps the header debuggable; the payloads stay
// in the binary codecs. The same format carries the replica stream
// (POST /v1/cluster/replica/frame), replica drops on that endpoint,
// and migration handoffs (POST /v1/cluster/handoff/{id}, one entry).
// Only a handoff entry carries a checkpoint; the stream refuses one.
type frameHeader struct {
	// From is the sending node's ID; a replica remembers the sender that
	// opened it, and only that sender's drop retires it.
	From     string       `json:"from"`
	Sessions []frameEntry `json:"sessions"`
}

type frameEntry struct {
	ID string `json:"id"`
	// Spec present means "open": create the replica (idempotently) with
	// this platform spec before applying the blobs. A handoff entry
	// always carries it.
	Spec          *server.PlatformSpec `json:"spec,omitempty"`
	EventsLen     int                  `json:"events_len"`
	CheckpointLen int                  `json:"checkpoint_len,omitempty"`
	// Drop retires the replica (a purge); a drop entry carries no spec
	// and no blob bytes.
	Drop bool `json:"drop,omitempty"`
	// Submitted and Pinned ride only on a handoff: the sender's
	// admitted-task count, which the adopted shard must reproduce, and
	// whether the new placement is pinned.
	Submitted int  `json:"submitted,omitempty"`
	Pinned    bool `json:"pinned,omitempty"`
}

// frameResult is the 200 response: one outcome per session entry, so a
// gap in one session never fails the whole frame.
type frameResult struct {
	Sessions []frameEntryResult `json:"sessions"`
}

type frameEntryResult struct {
	ID     string `json:"id"`
	Status string `json:"status"`
	Error  string `json:"error,omitempty"`
}

const (
	frameStatusOK = "ok"
	// frameStatusGap: the log blob does not continue the replica's log,
	// or does not decode; the owner heals with a full re-ship.
	frameStatusGap = "gap"
	// frameStatusNoReplica: no replica and no spec in the entry; the
	// owner re-opens.
	frameStatusNoReplica = "no_replica"
)

// decodeFrame splits a frame into its header and blob area. On success
// the entries' declared lengths tile the blob area exactly, in order,
// so callers may slice it without further checks.
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
	if hdr.From == "" {
		return hdr, nil, errors.New("frame header names no sender")
	}
	blobs := body[4+hlen:]
	// Check each length against the bytes not yet claimed: a running
	// sum could overflow and wrap back onto the true total.
	rest := len(blobs)
	for _, e := range hdr.Sessions {
		if e.EventsLen < 0 || e.CheckpointLen < 0 || e.EventsLen > rest || e.CheckpointLen > rest-e.EventsLen {
			return hdr, nil, fmt.Errorf("session %s: blob lengths %d+%d do not fit the %d unclaimed bytes", e.ID, e.EventsLen, e.CheckpointLen, rest)
		}
		if e.Drop && (e.Spec != nil || e.EventsLen+e.CheckpointLen > 0) {
			return hdr, nil, fmt.Errorf("session %s: drop entry carries a spec or blobs", e.ID)
		}
		rest -= e.EventsLen + e.CheckpointLen
	}
	if rest != 0 {
		return hdr, nil, fmt.Errorf("frame carries %d blob bytes past its entries", rest)
	}
	return hdr, blobs, nil
}

// frameBodyBuf pools the replica-side raw frame buffer. Everything
// the frame applies is copied out (appendLog copies events) before the
// handler returns, so the buffer never outlives the request.
type frameBodyBuf struct{ b []byte }

var frameBodyPool = sync.Pool{New: func() any { return new(frameBodyBuf) }}

// readFrameBody reads the request body into the pooled buffer when
// the declared length allows it, falling back to a bounded ReadAll
// for chunked or oversized requests (the latter then fail frame
// validation exactly as before).
func readFrameBody(r *http.Request, fb *frameBodyBuf) ([]byte, error) {
	if n := r.ContentLength; n >= 0 && n <= maxReplicaBody {
		if cap(fb.b) < int(n) {
			fb.b = make([]byte, n)
		}
		fb.b = fb.b[:n]
		if _, err := io.ReadFull(r.Body, fb.b); err != nil {
			return nil, err
		}
		return fb.b, nil
	}
	return io.ReadAll(io.LimitReader(r.Body, maxReplicaBody))
}

// handleReplicaFrame is POST /v1/cluster/replica/frame: apply one
// coalesced stream frame. Only a malformed frame is an HTTP error —
// and an entry with a checkpoint is malformed here, refused before any
// entry applies, because the replica holds the log alone; per-session
// failures travel in the result body so one gappy session cannot veto
// its neighbors' acks.
func (n *Node) handleReplicaFrame(w http.ResponseWriter, r *http.Request) {
	fb := frameBodyPool.Get().(*frameBodyBuf)
	defer frameBodyPool.Put(fb)
	body, err := readFrameBody(r, fb)
	if err != nil {
		httpError(w, http.StatusBadRequest, "read body: %v", err)
		return
	}
	hdr, blobs, err := decodeFrame(body)
	if err != nil {
		httpError(w, http.StatusBadRequest, "%v", err)
		return
	}
	for _, e := range hdr.Sessions {
		if e.CheckpointLen > 0 {
			httpError(w, http.StatusBadRequest, "session %s: a stream entry carries no checkpoint", e.ID)
			return
		}
	}
	res := frameResult{Sessions: make([]frameEntryResult, 0, len(hdr.Sessions))}
	off := 0
	for _, e := range hdr.Sessions {
		evBlob := blobs[off : off+e.EventsLen]
		off += e.EventsLen
		res.Sessions = append(res.Sessions, n.applyFrameEntry(hdr.From, e, evBlob))
	}
	writeClusterJSON(w, res)
}

// frameDecode is the replica-side scratch for one frame entry's event
// blob: the buffered layer, the trace reader, and the intermediate
// event slice all die with the request, so they are pooled. appendLog
// copies events (and dictionary strings are freshly allocated per
// trace), so nothing applied to the replica aliases the scratch.
type frameDecode struct {
	src bytes.Reader
	buf *bufio.Reader
	br  *obs.BinaryReader
	evs []obs.Event
}

var frameDecodePool = sync.Pool{New: func() any {
	d := &frameDecode{}
	d.buf = bufio.NewReaderSize(&d.src, 32<<10)
	d.br = obs.NewBinaryReader(d.buf)
	return d
}}

// decodeEvents strictly decodes a complete binary trace into the
// scratch slice, failing on any damaged frame like obs.ReadBinary.
func (d *frameDecode) decodeEvents(blob []byte) ([]obs.Event, error) {
	d.src.Reset(blob)
	d.buf.Reset(&d.src)
	d.br.Reset(d.buf)
	d.evs = d.evs[:0]
	for {
		ev, err := d.br.Next()
		if errors.Is(err, io.EOF) {
			return d.evs, nil
		}
		if err != nil {
			return nil, err
		}
		d.evs = append(d.evs, ev)
	}
}

// applyFrameEntry is the per-session half of a frame from sender
// from: a drop, or open (when the spec rides along), then append the
// log blob.
func (n *Node) applyFrameEntry(from string, e frameEntry, evBlob []byte) frameEntryResult {
	er := frameEntryResult{ID: e.ID, Status: frameStatusOK}
	if e.Drop {
		n.replicas.dropFrom(e.ID, from)
		return er
	}
	var rep *replica
	if e.Spec != nil {
		rep = n.replicas.open(e.ID, *e.Spec, from)
	} else {
		var ok bool
		if rep, ok = n.replicas.get(e.ID); !ok {
			er.Status = frameStatusNoReplica
			return er
		}
	}
	if len(evBlob) > 0 {
		d := frameDecodePool.Get().(*frameDecode)
		// Only the plain-string gap message survives past the Put: the
		// error values (and the event slice) may alias pooled memory.
		var gapMsg string
		if events, err := d.decodeEvents(evBlob); err != nil {
			gapMsg = "decode log: " + err.Error()
		} else if err := rep.appendLog(events); err != nil {
			gapMsg = err.Error()
		}
		frameDecodePool.Put(d)
		if gapMsg != "" {
			er.Status, er.Error = frameStatusGap, gapMsg
		}
	}
	return er
}
