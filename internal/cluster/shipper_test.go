package cluster

import (
	"bytes"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dvfsched/internal/obs"
	"dvfsched/internal/server"
)

// TestClusterStreamFailoverReplicaDeath kills a session's replica
// holder while frames are in flight to it: the per-peer stream must
// fail over to the next ring candidate, carry the blocked waiters
// across, and keep acking — then the owner dies too and the session
// must still drain losslessly from the failover target's replica.
// This is the pipelined analogue of TestClusterFailover: the failure
// lands on the stream's far end instead of the submit's near end.
func TestClusterStreamFailoverReplicaDeath(t *testing.T) {
	tc := startCluster(t, 3, nil)
	front := tc.ids[0]
	info := tc.createSession(front, `{"cores":2}`)
	path := "/v1/sessions/" + info.ID
	cands := tc.byID[front].node.Route(info.ID)
	owner, repl, third := cands[0], cands[1], cands[2]
	fronts := []string{owner, third} // repl is the one that dies

	if code, b := tc.do(owner, http.MethodPost, path+"/tasks", taskBatch([]int{1, 2, 3, 4}, true)); code != http.StatusOK {
		t.Fatalf("warm-up submit: %d %s", code, b)
	}
	if _, ok := tc.byID[repl].node.replicas.get(info.ID); !ok {
		t.Fatalf("replica %s holds no state after an acked submit", repl)
	}

	const clients, batches, perBatch = 3, 8, 2
	var killOnce sync.Once
	kill := func() { killOnce.Do(func() { tc.kill(repl) }) }
	var mu sync.Mutex
	acked := map[int]bool{1: true, 2: true, 3: true, 4: true}
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			myFronts := append([]string{fronts[c%len(fronts)]}, fronts...)
			for b := 0; b < batches; b++ {
				if c == 0 && b == batches/2 {
					kill() // replica holder dies with frames in flight
				}
				base := 1000*(c+1) + perBatch*b
				ids := make([]int, perBatch)
				for i := range ids {
					ids[i] = base + i + 1
				}
				if tc.submitRetry(myFronts, path, taskBatch(ids, true)) {
					mu.Lock()
					for _, id := range ids {
						acked[id] = true
					}
					mu.Unlock()
				}
			}
		}(c)
	}
	wg.Wait()
	kill()
	if t.Failed() {
		t.FailNow()
	}

	// Acks issued after the kill imply the stream re-homed: the only
	// live candidate left is the third node, so it must hold replica
	// state before the owner is allowed to die.
	if _, ok := tc.byID[third].node.replicas.get(info.ID); !ok {
		t.Fatalf("stream never failed over: %s holds no replica of %s", third, info.ID)
	}
	tc.kill(owner)

	dr := tc.drainRetry([]string{third}, path)
	mu.Lock()
	wantTasks := len(acked)
	mu.Unlock()
	if dr.Tasks != wantTasks {
		t.Errorf("drained %d tasks, acked %d", dr.Tasks, wantTasks)
	}
	if v := tc.byID[third].srv.Registry().Counter(obs.ClusterPromotions).Value(); v < 1 {
		t.Errorf("failover target %s promotions counter %v, want >= 1", third, v)
	}
	events := tc.fetchEvents([]string{third}, path)
	auditTrace(t, info.PlatformSpec, events, acked, dr)
}

// TestClusterStreamHealsAckGap truncates the replica's log behind the
// owner's ack cursor — the stream analogue of the per-request 409 —
// and requires the very next submit to heal in-stream: the frame's
// gap result resets the cursor, the re-ship replays the full log, the
// waiter rides the heal to a normal ack, and the replica ends
// byte-identical to the owner's trace.
func TestClusterStreamHealsAckGap(t *testing.T) {
	tc := startCluster(t, 3, nil)
	front := tc.ids[0]
	info := tc.createSession(front, `{"cores":2}`)
	path := "/v1/sessions/" + info.ID
	owner := tc.byID[front].node.Route(info.ID)[0]

	if code, b := tc.do(owner, http.MethodPost, path+"/tasks", taskBatch([]int{1, 2, 3}, true)); code != http.StatusOK {
		t.Fatalf("seed submit: %d %s", code, b)
	}

	var rep *replica
	for _, id := range tc.ids {
		if r, ok := tc.byID[id].node.replicas.get(info.ID); ok {
			rep = r
		}
	}
	if rep == nil {
		t.Fatalf("no node holds a replica of %s after an acked submit", info.ID)
	}
	// Truncate to a NONZERO tail: a replica emptied to zero would accept
	// any re-ship as a fresh log, never reporting the gap this test is
	// about. Keeping event 1 forces the next frame (which starts past
	// the owner's ack cursor) to collide with a log tail at seq 1.
	rep.mu.Lock()
	if rep.log.Len() < 2 {
		rep.mu.Unlock()
		t.Fatalf("replica holds %d events, need >= 2 to truncate", rep.log.Len())
	}
	first := rep.log.Events()[0]
	rep.log = obs.Recorder{}
	rep.log.Emit(first)
	rep.log.Commit()
	rep.mu.Unlock()

	// One submit, one request: the gap must be detected and healed
	// before this ack is released.
	if code, b := tc.do(owner, http.MethodPost, path+"/tasks", taskBatch([]int{4, 5}, true)); code != http.StatusOK {
		t.Fatalf("submit after replica truncation: %d %s", code, b)
	}
	if v := tc.byID[owner].srv.Registry().Counter(obs.ClusterShipHeals).Value(); v < 1 {
		t.Errorf("owner heal counter %v after a forced gap, want >= 1", v)
	}

	ownerEvents := sessionLog(t, tc.byID[owner].srv, info.ID)
	rep.mu.Lock()
	repLog := rep.log.Events()
	rep.mu.Unlock()
	if !bytes.Equal(obs.AppendBinary(nil, repLog), obs.AppendBinary(nil, ownerEvents)) {
		t.Fatalf("healed replica log diverges from owner trace: %d vs %d events", len(repLog), len(ownerEvents))
	}

	dr := tc.drainRetry([]string{owner}, path)
	if dr.Tasks != 5 {
		t.Errorf("drained %d tasks, want 5", dr.Tasks)
	}
	events := tc.fetchEvents([]string{owner}, path)
	auditTrace(t, info.PlatformSpec, events, map[int]bool{1: true, 2: true, 3: true, 4: true, 5: true}, dr)
}

// TestClusterStreamMigrateRace races migrations and a drain against
// submits while every reply is held 2ms on the wire (slowListener, so
// frames are reliably in flight when the migration freezes the
// shard). Any individual migrate may win or lose; what must hold is
// the usual oracle — every acked task drains exactly once and the
// trace rebuilds byte-identically.
func TestClusterStreamMigrateRace(t *testing.T) {
	tc := startClusterWrapped(t, 3, nil, func(_ string, ln net.Listener) net.Listener {
		return slowListener{Listener: ln, delay: 2 * time.Millisecond}
	})
	front := tc.ids[0]
	info := tc.createSession(front, `{"cores":2}`)
	path := "/v1/sessions/" + info.ID
	owner := tc.byID[front].node.Route(info.ID)[0]
	targets := make([]string, 0, 2)
	for _, id := range tc.ids {
		if id != owner {
			targets = append(targets, id)
		}
	}
	fronts := []string{"n1", "n2", "n3"}

	if code, b := tc.do(front, http.MethodPost, path+"/tasks", taskBatch([]int{1, 2}, true)); code != http.StatusOK {
		t.Fatalf("seed submit: %d %s", code, b)
	}
	var mu sync.Mutex
	acked := map[int]bool{1: true, 2: true}

	migrate := func(via, target string) {
		body := []byte(fmt.Sprintf(`{"target":%q}`, target))
		code, b, err := tc.try(via, http.MethodPost, "/v1/cluster/sessions/"+info.ID+"/migrate", body)
		if err != nil {
			t.Errorf("migrate to %s transport: %v", target, err)
			return
		}
		// 200: won. 409: lost to the other migration's freeze or the
		// drain. 404: the session already moved on or drained away.
		// 503/502: fences and mid-handoff refusals, which unfreeze and
		// keep the shard serving. All fail cleanly; the audit below is
		// the real assertion.
		switch code {
		case http.StatusOK, http.StatusConflict, http.StatusNotFound,
			http.StatusServiceUnavailable, http.StatusBadGateway:
		default:
			t.Errorf("migrate to %s: unexpected status %d %s", target, code, b)
		}
	}

	const clients, batches, perBatch = 3, 6, 2
	var wg sync.WaitGroup
	defer wg.Wait() // a Fatal below must not leave goroutines failing a done test
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			myFronts := append([]string{fronts[c%len(fronts)]}, fronts...)
			for b := 0; b < batches; b++ {
				base := 1000*(c+1) + perBatch*b
				ids := make([]int, perBatch)
				for i := range ids {
					ids[i] = base + i + 1
				}
				if tc.submitRetry(myFronts, path, taskBatch(ids, true)) {
					mu.Lock()
					for _, id := range ids {
						acked[id] = true
					}
					mu.Unlock()
				}
			}
		}(c)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		time.Sleep(10 * time.Millisecond) // land inside the submit storm
		migrate(targets[0], targets[0])
		time.Sleep(15 * time.Millisecond)
		migrate(owner, targets[1])
	}()
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}

	dr := tc.drainRetry(fronts, path)
	mu.Lock()
	wantTasks := len(acked)
	mu.Unlock()
	if dr.Tasks != wantTasks {
		t.Errorf("drained %d tasks, acked %d", dr.Tasks, wantTasks)
	}
	events := tc.fetchEvents(fronts, path)
	auditTrace(t, info.PlatformSpec, events, acked, dr)
}

// countingListener counts raw TCP accepts, which is how many
// connections the peer actually opened to this node.
type countingListener struct {
	net.Listener
	accepted atomic.Int64
}

func (l *countingListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err == nil {
		l.accepted.Add(1)
	}
	return c, err
}

// TestClusterStreamReusesConnections pins the shared tuned transport:
// many sequential replicated submits (each forcing its own frame —
// sequential clients never overlap a window) must ride a handful of
// TCP connections to the replica, not one per frame.
func TestClusterStreamReusesConnections(t *testing.T) {
	counters := map[string]*countingListener{}
	tc := startClusterWrapped(t, 2, nil, func(id string, ln net.Listener) net.Listener {
		cl := &countingListener{Listener: ln}
		counters[id] = cl
		return cl
	})

	// Pin the session to n1 so every frame flows n1 -> n2 and n2's
	// accept count sees only the replication plane.
	id := sessionsOwnedBy(t, tc, "n1", 1)[0]
	req, err := http.NewRequest(http.MethodPost, tc.byID["n1"].addr+"/v1/sessions", strings.NewReader(`{"cores":2}`))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("X-Dvfs-Session-Id", id)
	resp, err := tc.client.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("create %s: %d %s", id, resp.StatusCode, body)
	}
	path := "/v1/sessions/" + id

	const ships = 50
	for i := 1; i <= ships; i++ {
		if code, b := tc.do("n1", http.MethodPost, path+"/tasks", taskBatch([]int{i}, true)); code != http.StatusOK {
			t.Fatalf("submit %d: %d %s", i, code, b)
		}
	}

	frames := tc.byID["n1"].srv.Registry().Counter(obs.ClusterShipFrames).Value()
	if frames < ships {
		t.Fatalf("owner sent %v frames over %d sequential submits, want >= %d", frames, ships, ships)
	}
	if got := counters["n2"].accepted.Load(); got > 6 {
		t.Errorf("replica accepted %d connections for %v frames; the transport is not reusing connections", got, frames)
	}
}

// slowListener delays every write on the connections it accepts, so
// each reply, a frame's ack included, spends delay on the wire.
type slowListener struct {
	net.Listener
	delay time.Duration
}

func (l slowListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return c, err
	}
	return slowConn{Conn: c, delay: l.delay}, nil
}

type slowConn struct {
	net.Conn
	delay time.Duration
}

func (c slowConn) Write(p []byte) (int, error) {
	time.Sleep(c.delay)
	return c.Conn.Write(p)
}

// TestClusterStreamCoalesces pins the stream's coalescing: while one
// frame is on the wire, the submits that commit meanwhile ride the
// next one. With every reply held 2ms on the wire, a storm of
// concurrent single-task submits to one session must collapse into
// far fewer frames than submits — each frame's ack releasing every
// waiter it covers — and still drain to a clean audited trace.
func TestClusterStreamCoalesces(t *testing.T) {
	tc := startClusterWrapped(t, 3, nil, func(_ string, ln net.Listener) net.Listener {
		return slowListener{Listener: ln, delay: 2 * time.Millisecond}
	})
	front := tc.ids[0]
	info := tc.createSession(front, `{"cores":2}`)
	path := "/v1/sessions/" + info.ID
	owner := tc.byID[front].node.Route(info.ID)[0]

	const clients, batches = 16, 4
	var mu sync.Mutex
	acked := map[int]bool{}
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for b := 0; b < batches; b++ {
				id := 100*(c+1) + b + 1
				if tc.submitRetry([]string{owner}, path, taskBatch([]int{id}, true)) {
					mu.Lock()
					acked[id] = true
					mu.Unlock()
				}
			}
		}(c)
	}
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}

	const submits = clients * batches
	frames := tc.byID[owner].srv.Registry().Counter(obs.ClusterShipFrames).Value()
	if frames > submits/2 {
		t.Errorf("%v frames for %d concurrent submits — the stream is not coalescing", frames, submits)
	}
	ships := tc.byID[owner].srv.Registry().Counter(obs.ClusterShips).Value()
	if ships < 1 {
		t.Errorf("ships counter %v, want >= 1", ships)
	}

	dr := tc.drainRetry([]string{owner}, path)
	mu.Lock()
	wantTasks := len(acked)
	mu.Unlock()
	if dr.Tasks != wantTasks {
		t.Errorf("drained %d tasks, acked %d", dr.Tasks, wantTasks)
	}
	events := tc.fetchEvents([]string{owner}, path)
	auditTrace(t, info.PlatformSpec, events, acked, dr)
}

// standIn is a stand-in replica for peer n2: it counts the frames it
// gets and those that open the session, and answers each as its mode
// says — "ok", "gap" (a 200 reporting a log gap) or "refuse" (a 400
// refusal of the whole frame).
type standIn struct {
	mu     sync.Mutex
	mode   string
	frames int
	opens  int
}

func (s *standIn) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	body, err := io.ReadAll(r.Body)
	if err != nil {
		httpError(w, http.StatusBadRequest, "read body: %v", err)
		return
	}
	hdr, _, err := decodeFrame(body)
	if err != nil {
		httpError(w, http.StatusBadRequest, "malformed frame: %v", err)
		return
	}
	s.mu.Lock()
	s.frames++
	if hdr.Spec != nil {
		s.opens++
	}
	mode := s.mode
	s.mu.Unlock()
	switch mode {
	case "refuse":
		httpError(w, http.StatusBadRequest, "refused")
	case "gap":
		writeClusterJSON(w, frameResult{Status: frameStatusGap, Error: "stand-in gap"})
	default:
		writeClusterJSON(w, frameResult{Status: frameStatusOK})
	}
}

// set switches the mode for the frames to come and returns the counts
// so far.
func (s *standIn) set(mode string) (frames, opens int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.mode = mode
	return s.frames, s.opens
}

// standInNode is node n1 replicating to a standIn registered as peer
// n2, with one session the ring places on n1, created and holding one
// acked task. submit serves one more task through n1's handler and
// returns the status and body.
type standInNode struct {
	t      *testing.T
	node   *Node
	rep    *standIn
	id     string
	nextID int
}

func startStandIn(t *testing.T) *standInNode {
	t.Helper()
	rep := &standIn{mode: "ok"}
	ts := httptest.NewServer(rep)
	t.Cleanup(ts.Close)
	srv := server.New(server.Config{})
	t.Cleanup(srv.Close)
	// n1's own address is never dialed: requests go to its handler.
	n, err := NewNode(Config{ID: "n1", Peers: map[string]string{"n1": "http://127.0.0.1:1", "n2": ts.URL}}, srv)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(n.Close)
	sn := &standInNode{t: t, node: n, rep: rep}
	for i := 0; sn.id == ""; i++ {
		if id := fmt.Sprintf("s-%d", i); n.Route(id)[0] == "n1" {
			sn.id = id
		}
	}
	req := httptest.NewRequest(http.MethodPost, "/v1/sessions", strings.NewReader(`{"cores":2}`))
	req.Header.Set(server.SessionIDHeader, sn.id)
	w := httptest.NewRecorder()
	n.Handler().ServeHTTP(w, req)
	if w.Code != http.StatusCreated {
		t.Fatalf("create %s: %d %s", sn.id, w.Code, w.Body)
	}
	if code, body := sn.submit(); code != http.StatusOK {
		t.Fatalf("first submit: %d %s", code, body)
	}
	return sn
}

func (sn *standInNode) submit() (int, string) {
	sn.nextID++
	req := httptest.NewRequest(http.MethodPost, "/v1/sessions/"+sn.id+"/tasks", bytes.NewReader(taskBatch([]int{sn.nextID}, true)))
	w := httptest.NewRecorder()
	sn.node.Handler().ServeHTTP(w, req)
	return w.Code, w.Body.String()
}

// cursor returns the session's stream position.
func (sn *standInNode) cursor() (opened bool, acked uint64, heals int) {
	sn.node.shipsMu.Lock()
	defer sn.node.shipsMu.Unlock()
	cur, ok := sn.node.ships[sn.id]
	if !ok {
		sn.t.Fatalf("no ship cursor for %s", sn.id)
	}
	return cur.opened, cur.acked, cur.heals
}

// TestShipGapReplyHeals: a 200 whose status is not ok (here a gap) is
// not an ack. Each such frame heals the cursor to a full re-ship, and
// the frame that would run the heals past maxShipHeals in a row fails
// the submit.
func TestShipGapReplyHeals(t *testing.T) {
	sn := startStandIn(t)
	heals := sn.node.srv.Registry().Counter(obs.ClusterShipHeals)
	healsBefore := heals.Value()
	framesBefore, _ := sn.rep.set("gap")
	code, body := sn.submit()
	if code != http.StatusBadGateway || !strings.Contains(body, "consecutive re-ships") {
		t.Fatalf("submit against a replica reporting gaps: %d %s, want 502 after the heals", code, body)
	}
	framesAfter, _ := sn.rep.set("ok")
	if got := framesAfter - framesBefore; got != maxShipHeals+1 {
		t.Errorf("the failed submit sent %d frames, want %d", got, maxShipHeals+1)
	}
	if got := heals.Value() - healsBefore; got != maxShipHeals+1 {
		t.Errorf("cluster.ship.heals rose by %v, want %d", got, maxShipHeals+1)
	}
	if opened, acked, h := sn.cursor(); opened || acked != 0 || h != 0 {
		t.Errorf("cursor opened %v acked %d heals %d after the failure, want a full re-ship with no heals", opened, acked, h)
	}
	if code, body := sn.submit(); code != http.StatusOK {
		t.Fatalf("submit after the replica recovered: %d %s", code, body)
	}
}

// TestShipRefusalResetsCursor: a whole-frame 400 from a live replica
// fails the submit it covered and resets the cursor, so the next frame
// re-opens the replica with the full log.
func TestShipRefusalResetsCursor(t *testing.T) {
	sn := startStandIn(t)
	if opened, acked, _ := sn.cursor(); !opened || acked == 0 {
		t.Fatalf("cursor opened %v acked %d after an acked submit", opened, acked)
	}
	sn.rep.set("refuse")
	code, body := sn.submit()
	if code != http.StatusBadGateway || !strings.Contains(body, "refused frame") {
		t.Fatalf("submit against a refusing replica: %d %s, want 502", code, body)
	}
	if opened, acked, _ := sn.cursor(); opened || acked != 0 {
		t.Errorf("cursor opened %v acked %d after a refusal, want reset", opened, acked)
	}
	_, opens := sn.rep.set("ok")
	if code, body := sn.submit(); code != http.StatusOK {
		t.Fatalf("submit after the refusal: %d %s", code, body)
	}
	if _, after := sn.rep.set("ok"); after != opens+1 {
		t.Errorf("the submit after a refusal opened the replica %d times, want once", after-opens)
	}
}

// TestShipAfterCloseFails: once Node.Close returned, a submit that
// needs a ship is not acked — the node sends nothing more, so a 200
// would promise a replica that never got the events.
func TestShipAfterCloseFails(t *testing.T) {
	sn := startStandIn(t)
	sn.node.Close()
	frames, _ := sn.rep.set("ok")
	if code, body := sn.submit(); code != http.StatusBadGateway {
		t.Fatalf("submit after Close: %d %s, want 502", code, body)
	}
	if after, _ := sn.rep.set("ok"); after != frames {
		t.Errorf("a closed node sent %d frames", after-frames)
	}
}
