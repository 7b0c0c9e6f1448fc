package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"dvfsched/internal/obs"
	"dvfsched/internal/server"
)

// testNode is one in-process cluster member listening on a real TCP
// socket — kills must look like a crashed process (refused
// connections), which httptest's in-memory transport cannot produce.
type testNode struct {
	id   string
	srv  *server.Server
	node *Node
	http *http.Server
	addr string
}

type testCluster struct {
	t      testing.TB
	ids    []string
	byID   map[string]*testNode
	client *http.Client
}

// startCluster boots n nodes named n1..nN on ephemeral ports. The
// listeners are bound before any node starts so every peer URL is
// known up front (static membership). testing.TB so benchmarks boot
// the same harness.
func startCluster(t testing.TB, n int, tweak func(*Config)) *testCluster {
	return startClusterWrapped(t, n, tweak, nil)
}

// startClusterWrapped is startCluster with a per-node listener wrap
// hook, so tests can observe raw connection traffic (wrap may return
// the listener unchanged; its Addr must stay that of the wrapped one).
func startClusterWrapped(t testing.TB, n int, tweak func(*Config), wrap func(id string, ln net.Listener) net.Listener) *testCluster {
	t.Helper()
	lns := make([]net.Listener, n)
	ids := make([]string, n)
	peers := make(map[string]string, n)
	for i := range lns {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		ids[i] = fmt.Sprintf("n%d", i+1)
		if wrap != nil {
			ln = wrap(ids[i], ln)
		}
		lns[i] = ln
		peers[ids[i]] = "http://" + ln.Addr().String()
	}
	tc := &testCluster{
		t:      t,
		ids:    ids,
		byID:   make(map[string]*testNode, n),
		client: &http.Client{Timeout: 30 * time.Second},
	}
	for i, id := range ids {
		srv := server.New(server.Config{})
		cfg := Config{ID: id, Peers: peers}
		if tweak != nil {
			tweak(&cfg)
		}
		node, err := NewNode(cfg, srv)
		if err != nil {
			t.Fatal(err)
		}
		hs := &http.Server{Handler: node.Handler()}
		tc.byID[id] = &testNode{id: id, srv: srv, node: node, http: hs, addr: peers[id]}
		go func(hs *http.Server, ln net.Listener) { _ = hs.Serve(ln) }(hs, lns[i])
	}
	t.Cleanup(func() {
		for _, tn := range tc.byID {
			_ = tn.http.Close()
			tn.node.Close()
			tn.srv.Close()
		}
	})
	return tc
}

// kill makes a node drop off the network mid-flight: listener and all
// live connections closed, in-flight requests severed.
func (tc *testCluster) kill(id string) { _ = tc.byID[id].http.Close() }

// try sends one request through the given front; transport errors are
// returned, not fatal — the failover tests drive retries off them.
func (tc *testCluster) try(front, method, path string, body []byte) (int, []byte, error) {
	req, err := http.NewRequest(method, tc.byID[front].addr+path, bytes.NewReader(body))
	if err != nil {
		tc.t.Fatal(err)
	}
	if len(body) > 0 {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := tc.client.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return resp.StatusCode, b, err
}

// do is try with transport errors fatal, for the no-failure tests.
func (tc *testCluster) do(front, method, path string, body []byte) (int, []byte) {
	tc.t.Helper()
	code, b, err := tc.try(front, method, path, body)
	if err != nil {
		tc.t.Fatalf("%s %s via %s: %v", method, path, front, err)
	}
	return code, b
}

func (tc *testCluster) createSession(front string, body string) server.SessionInfo {
	tc.t.Helper()
	code, b := tc.do(front, http.MethodPost, "/v1/sessions", []byte(body))
	if code != http.StatusCreated {
		tc.t.Fatalf("create via %s: %d %s", front, code, b)
	}
	var info server.SessionInfo
	if err := json.Unmarshal(b, &info); err != nil {
		tc.t.Fatal(err)
	}
	return info
}

// sessionLog reads a session's whole committed log from srv the way a
// frame does, through AppendSessionLogSince from Seq 0, decoded.
func sessionLog(t testing.TB, srv *server.Server, id string) []obs.Event {
	t.Helper()
	blob, _, _, err := srv.AppendSessionLogSince(id, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	events, err := obs.ReadBinary(bytes.NewReader(blob))
	if err != nil {
		t.Fatal(err)
	}
	return events
}

// taskBatch builds a submit body for sequential task IDs with strictly
// increasing arrivals derived from the IDs.
func taskBatch(ids []int, clamp bool) []byte {
	var sb strings.Builder
	sb.WriteString(`{"clamp":`)
	sb.WriteString(strconv.FormatBool(clamp))
	sb.WriteString(`,"tasks":[`)
	for i, id := range ids {
		if i > 0 {
			sb.WriteByte(',')
		}
		fmt.Fprintf(&sb, `{"id":%d,"cycles":0.3,"arrival":%g}`, id, float64(id)*0.05)
	}
	sb.WriteString(`]}`)
	return []byte(sb.String())
}

// TestClusterRoutedLifecycle drives a session's whole life through
// every front in turn: any node creates, submits, reads and drains a
// session regardless of where the ring placed it, IDs carry the
// minting node, the owner holds the live shard, the next ring
// candidate holds replica state, and the purge clears it everywhere.
func TestClusterRoutedLifecycle(t *testing.T) {
	tc := startCluster(t, 3, nil)
	for f, front := range tc.ids {
		info := tc.createSession(front, `{"cores":2}`)
		if !strings.HasPrefix(info.ID, "s-"+front+"-") {
			t.Fatalf("session ID %q not minted by front %s", info.ID, front)
		}
		cands := tc.byID[front].node.Route(info.ID)
		owner, replica := cands[0], cands[1]
		// Pick fronts that are NOT the owner so the ops must forward.
		others := make([]string, 0, 2)
		for _, id := range tc.ids {
			if id != owner {
				others = append(others, id)
			}
		}
		path := "/v1/sessions/" + info.ID

		ids := []int{f*10 + 1, f*10 + 2, f*10 + 3, f*10 + 4, f*10 + 5}
		code, b := tc.do(others[0], http.MethodPost, path+"/tasks", taskBatch(ids, false))
		if code != http.StatusOK {
			t.Fatalf("submit: %d %s", code, b)
		}

		code, b = tc.do(others[1], http.MethodGet, path, nil)
		if code != http.StatusOK {
			t.Fatalf("status: %d %s", code, b)
		}
		var st server.SessionInfo
		if err := json.Unmarshal(b, &st); err != nil {
			t.Fatal(err)
		}
		if st.Submitted != len(ids) {
			t.Fatalf("status via %s: submitted %d, want %d", others[1], st.Submitted, len(ids))
		}

		if !tc.byID[owner].srv.HasSession(info.ID) {
			t.Fatalf("ring owner %s does not hold session %s", owner, info.ID)
		}
		for _, id := range others {
			if tc.byID[id].srv.HasSession(info.ID) {
				t.Fatalf("non-owner %s holds a live shard for %s", id, info.ID)
			}
		}
		if _, ok := tc.byID[replica].node.replicas.get(info.ID); !ok {
			t.Fatalf("ring replica %s holds no replica state for %s", replica, info.ID)
		}

		code, b = tc.do(others[0], http.MethodDelete, path, nil)
		if code != http.StatusOK {
			t.Fatalf("drain: %d %s", code, b)
		}
		var dr server.DrainResponse
		if err := json.Unmarshal(b, &dr); err != nil {
			t.Fatal(err)
		}
		if dr.Tasks != len(ids) {
			t.Fatalf("drain: %d tasks, want %d", dr.Tasks, len(ids))
		}
		if code, b = tc.do(others[1], http.MethodDelete, path, nil); code != http.StatusNoContent {
			t.Fatalf("purge: %d %s", code, b)
		}
		if _, ok := tc.byID[replica].node.replicas.get(info.ID); ok {
			t.Fatalf("purge left replica state for %s on %s", info.ID, replica)
		}
	}
	var forwards float64
	for _, id := range tc.ids {
		forwards += tc.byID[id].srv.Registry().Counter(obs.ClusterForwards).Value()
	}
	if forwards == 0 {
		t.Error("lifecycle through non-owner fronts forwarded nothing")
	}
}

// TestClusterReplicationParity pins the tentpole guarantee down at the
// byte level: after a session drains, the replica's shipped log equals
// the owner's trace exactly, and a session rebuilt from that log alone
// (the promotion path) regenerates a byte-identical trace and the same
// final cost.
func TestClusterReplicationParity(t *testing.T) {
	tc := startCluster(t, 3, nil)
	front := tc.ids[0]
	info := tc.createSession(front, `{"cores":2}`)
	path := "/v1/sessions/" + info.ID
	cands := tc.byID[front].node.Route(info.ID)
	owner, replicaID := cands[0], cands[1]

	next := 1
	for batch := 0; batch < 8; batch++ {
		ids := []int{next, next + 1, next + 2, next + 3}
		next += 4
		if code, b := tc.do(front, http.MethodPost, path+"/tasks", taskBatch(ids, false)); code != http.StatusOK {
			t.Fatalf("submit batch %d: %d %s", batch, code, b)
		}
	}
	code, b := tc.do(front, http.MethodDelete, path, nil)
	if code != http.StatusOK {
		t.Fatalf("drain: %d %s", code, b)
	}
	var dr server.DrainResponse
	if err := json.Unmarshal(b, &dr); err != nil {
		t.Fatal(err)
	}
	if dr.Tasks != next-1 {
		t.Fatalf("drain: %d tasks, want %d", dr.Tasks, next-1)
	}

	ownerEvents := sessionLog(t, tc.byID[owner].srv, info.ID)
	rep, ok := tc.byID[replicaID].node.replicas.get(info.ID)
	if !ok {
		t.Fatalf("no replica state on %s", replicaID)
	}
	rep.mu.Lock()
	spec := rep.spec
	log := rep.log.Events()
	rep.mu.Unlock()

	if !bytes.Equal(obs.AppendBinary(nil, log), obs.AppendBinary(nil, ownerEvents)) {
		t.Fatalf("replica log diverges from owner trace: %d vs %d events", len(log), len(ownerEvents))
	}

	rb, err := server.ReplaySession(context.Background(), spec, log)
	if err != nil {
		t.Fatal(err)
	}
	res, err := rb.Sess.Drain(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if rb.Submitted != dr.Tasks {
		t.Errorf("rebuilt session carries %d submitted, want %d", rb.Submitted, dr.Tasks)
	}
	got, want := obs.AppendBinary(nil, rb.Rec.Events()), obs.AppendBinary(nil, ownerEvents)
	if !bytes.Equal(got, want) {
		t.Fatalf("rebuilt trace not byte-identical: %d vs %d encoded bytes (%d vs %d events)",
			len(got), len(want), len(rb.Rec.Events()), len(ownerEvents))
	}
	gotCost := strconv.FormatFloat(res.TotalCost, 'g', -1, 64)
	wantCost := strconv.FormatFloat(dr.TotalCost, 'g', -1, 64)
	if gotCost != wantCost {
		t.Fatalf("rebuilt cost %s != acked drain cost %s", gotCost, wantCost)
	}
}

// submitRetry drives one batch through the cluster with the client
// protocol the cluster is designed for: transport errors, 5xx and 429
// rotate to another front and retry; a duplicate-task 400 on a retry
// means an earlier attempt was accepted but its ack was lost. Returns
// whether the batch is known accepted.
func (tc *testCluster) submitRetry(fronts []string, path string, body []byte) bool {
	tc.t.Helper()
	for attempt := 0; attempt < 40; attempt++ {
		front := fronts[attempt%len(fronts)]
		code, b, err := tc.try(front, http.MethodPost, path+"/tasks", body)
		switch {
		case err != nil, code >= 500, code == http.StatusTooManyRequests:
			time.Sleep(25 * time.Millisecond)
		case code == http.StatusOK:
			return true
		case code == http.StatusBadRequest && attempt > 0 && strings.Contains(string(b), "duplicate"):
			return true
		default:
			tc.t.Errorf("submit: unexpected status %d: %s", code, b)
			return false
		}
	}
	tc.t.Error("submit: retries exhausted")
	return false
}

// TestClusterFailover is the kill test: concurrent clients submit
// through non-owner fronts while the session's owner is killed
// mid-run. The replica must promote, no acknowledged batch may be
// lost, the surviving trace must be a gapless event sequence, and a
// serial rebuild of that trace must reproduce it byte-identically.
// Meaningful under -race (the checker runs it so).
func TestClusterFailover(t *testing.T) {
	tc := startCluster(t, 3, nil)
	front := tc.ids[0]
	info := tc.createSession(front, `{"cores":2}`)
	path := "/v1/sessions/" + info.ID
	cands := tc.byID[front].node.Route(info.ID)
	owner, replicaID := cands[0], cands[1]
	fronts := make([]string, 0, 2)
	for _, id := range tc.ids {
		if id != owner {
			fronts = append(fronts, id)
		}
	}

	// Warm up through the owner so there is replicated state to lose.
	if code, b := tc.do(fronts[0], http.MethodPost, path+"/tasks", taskBatch([]int{1, 2, 3, 4}, true)); code != http.StatusOK {
		t.Fatalf("warm-up submit: %d %s", code, b)
	}

	const clients, batches, perBatch = 3, 8, 2
	var killOnce sync.Once
	kill := func() { killOnce.Do(func() { tc.kill(owner) }) }
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
					kill() // owner dies with clients mid-flight
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

	dr := tc.drainRetry(fronts, path)
	if !tc.byID[replicaID].srv.HasSession(info.ID) {
		t.Errorf("replica %s never promoted session %s", replicaID, info.ID)
	}
	if v := tc.byID[replicaID].srv.Registry().Counter(obs.ClusterPromotions).Value(); v < 1 {
		t.Errorf("replica %s promotions counter %v, want >= 1", replicaID, v)
	}
	auditTrace(t, info.PlatformSpec, tc.fetchEvents(fronts, path), acked, dr)
}

// TestNodeConfigValidation pins the NewNode error paths the daemon's
// flag validation relies on.
func TestNodeConfigValidation(t *testing.T) {
	srv := server.New(server.Config{})
	defer srv.Close()
	if _, err := NewNode(Config{ID: "a"}, srv); err == nil {
		t.Error("empty peer set accepted")
	}
	if _, err := NewNode(Config{ID: "c", Peers: map[string]string{"a": "http://x", "b": "http://y"}}, srv); err == nil {
		t.Error("node ID outside the peer set accepted")
	}
	if _, err := NewNode(Config{ID: "a", Peers: map[string]string{"a": ""}}, srv); err == nil {
		t.Error("peer without address accepted")
	}
}

// TestProbeMarksPeers drives one probe round by hand: a peer whose
// listener is closed is marked down, a stand-in that answers /healthz
// with 503 stays up (any reply is a live peer), and a live peer that
// had been marked down is marked up again.
func TestProbeMarksPeers(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	closed := "http://" + ln.Addr().String()
	ln.Close()
	unhealthy := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "draining", http.StatusServiceUnavailable)
	}))
	t.Cleanup(unhealthy.Close)
	live := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		_, _ = io.WriteString(w, "ok\n")
	}))
	t.Cleanup(live.Close)

	srv := server.New(server.Config{})
	t.Cleanup(srv.Close)
	// n1's own address is never dialed: the prober skips itself.
	n, err := NewNode(Config{ID: "n1", Peers: map[string]string{
		"n1": "http://127.0.0.1:1", "closed": closed, "unhealthy": unhealthy.URL, "live": live.URL,
	}}, srv)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(n.Close)
	n.Observe("live", errors.New("an earlier exchange failed"))
	if n.alive("live") {
		t.Fatal("Observe with an error left the peer up")
	}

	n.probeOnce(5 * time.Second)
	if n.alive("closed") {
		t.Error("a peer whose listener is closed stayed up")
	}
	if !n.alive("unhealthy") {
		t.Error("a peer that answered /healthz with 503 was marked down")
	}
	if !n.alive("live") {
		t.Error("a live peer marked down was not marked up by the probe")
	}
	if got := srv.Registry().Gauge(obs.ClusterPeersDown).Value(); got != 1 {
		t.Errorf("cluster.peers_down %v after the probe, want 1", got)
	}
}
