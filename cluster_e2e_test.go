package dvfsched_test

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os/exec"
	"strings"
	"syscall"
	"testing"
	"time"

	"dvfsched/internal/audit"
	"dvfsched/internal/obs"
	"dvfsched/internal/server"
)

// reservePorts grabs n distinct loopback ports by binding and
// releasing them; static cluster membership needs every peer address
// before any daemon starts.
func reservePorts(t *testing.T, n int) []string {
	t.Helper()
	addrs := make([]string, n)
	lns := make([]net.Listener, n)
	for i := range addrs {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		lns[i] = ln
		addrs[i] = ln.Addr().String()
	}
	for _, ln := range lns {
		ln.Close()
	}
	return addrs
}

// clusterDo sends one request, rotating fronts and retrying on
// transport errors and 5xx until the deadline — the client protocol a
// cluster deployment requires during a failover window.
func clusterDo(t *testing.T, fronts []string, method, path string, body []byte) (int, []byte) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for attempt := 0; ; attempt++ {
		if time.Now().After(deadline) {
			t.Fatalf("%s %s: retries exhausted", method, path)
		}
		front := fronts[attempt%len(fronts)]
		req, err := http.NewRequest(method, front+path, bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		if len(body) > 0 {
			req.Header.Set("Content-Type", "application/json")
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			time.Sleep(50 * time.Millisecond)
			continue
		}
		data, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode >= 500 {
			time.Sleep(50 * time.Millisecond)
			continue
		}
		return resp.StatusCode, data
	}
}

// TestClusterProcessKillFailover is the whole-system drill: three real
// dvfschedd processes form a cluster via -node-id/-peers, a session's
// owner process is killed with SIGKILL mid-stream, and the survivors
// must keep serving it — accepting the remaining submissions, draining
// it, and returning a trace that audit.CheckTrace accepts with every
// acknowledged task. Skipped with -short (compiles the daemon binary).
func TestClusterProcessKillFailover(t *testing.T) {
	if testing.Short() {
		t.Skip("cluster e2e skipped in short mode")
	}
	daemon, _ := buildServiceBinaries(t)
	addrs := reservePorts(t, 3)
	ids := []string{"n1", "n2", "n3"}
	var peerParts []string
	for i, id := range ids {
		peerParts = append(peerParts, fmt.Sprintf("%s=http://%s", id, addrs[i]))
	}
	peers := strings.Join(peerParts, ",")

	cmds := make(map[string]*daemonProc, len(ids))
	for i, id := range ids {
		cmds[id] = startClusterDaemon(t, daemon, addrs[i], id, peers)
	}

	allFronts := make(map[string]string, len(ids))
	for i, id := range ids {
		allFronts[id] = "http://" + addrs[i]
	}

	// Create one session; learn its owner from the route endpoint.
	code, body := clusterDo(t, []string{allFronts["n1"]}, http.MethodPost, "/v1/sessions", []byte(`{"cores":2}`))
	if code != http.StatusCreated {
		t.Fatalf("create: %d %s", code, body)
	}
	var info server.SessionInfo
	if err := json.Unmarshal(body, &info); err != nil {
		t.Fatal(err)
	}
	code, body = clusterDo(t, []string{allFronts["n1"]}, http.MethodGet, "/v1/cluster/route?session="+info.ID, nil)
	if code != http.StatusOK {
		t.Fatalf("route: %d %s", code, body)
	}
	var route struct {
		Owner string `json:"owner"`
	}
	if err := json.Unmarshal(body, &route); err != nil {
		t.Fatal(err)
	}
	if _, ok := cmds[route.Owner]; !ok {
		t.Fatalf("route owner %q is not a cluster member", route.Owner)
	}
	var fronts []string
	for _, id := range ids {
		if id != route.Owner {
			fronts = append(fronts, allFronts[id])
		}
	}
	path := "/v1/sessions/" + info.ID

	submit := func(lo, hi int) {
		t.Helper()
		var recs []string
		for id := lo; id <= hi; id++ {
			recs = append(recs, fmt.Sprintf(`{"id":%d,"cycles":1.5,"arrival":%g}`, id, float64(id)*0.1))
		}
		batch := []byte(`{"clamp":true,"tasks":[` + strings.Join(recs, ",") + `]}`)
		code, body := clusterDo(t, fronts, http.MethodPost, path+"/tasks", batch)
		// A duplicate-ID 400 means a pre-kill attempt was accepted but
		// its ack was lost in the crash; both outcomes are "accepted".
		if code != http.StatusOK && !(code == http.StatusBadRequest && bytes.Contains(body, []byte("duplicate"))) {
			t.Fatalf("submit %d-%d: %d %s", lo, hi, code, body)
		}
	}
	submit(1, 10)

	// Kill the owner process outright: no drain, no goodbye.
	if err := cmds[route.Owner].cmd.Process.Kill(); err != nil {
		t.Fatal(err)
	}
	_ = cmds[route.Owner].cmd.Wait()

	submit(11, 20)

	code, body = clusterDo(t, fronts, http.MethodDelete, path, nil)
	if code != http.StatusOK && code != http.StatusNoContent {
		t.Fatalf("drain after kill: %d %s", code, body)
	}
	var drain *server.DrainResponse
	if code == http.StatusOK {
		drain = new(server.DrainResponse)
		if err := json.Unmarshal(body, drain); err != nil {
			t.Fatal(err)
		}
		if drain.Tasks != 20 {
			t.Fatalf("drained %d tasks, accepted 20", drain.Tasks)
		}
	}

	code, body = clusterDo(t, fronts, http.MethodGet, path+"/events", nil)
	if code != http.StatusOK {
		t.Fatalf("events after kill: %d %s", code, body)
	}
	events, err := obs.ReadJSONL(bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	acked := map[int]bool{}
	for id := 1; id <= 20; id++ {
		acked[id] = true
	}
	if err := audit.CheckTrace(info.PlatformSpec, events, acked, drain); err != nil {
		t.Fatalf("surviving trace: %v", err)
	}

	// Survivors shut down clean.
	for _, id := range ids {
		if id == route.Owner {
			continue
		}
		if err := cmds[id].cmd.Process.Signal(syscall.SIGTERM); err != nil {
			t.Fatal(err)
		}
	}
	for _, id := range ids {
		if id == route.Owner {
			continue
		}
		if err := cmds[id].cmd.Wait(); err != nil {
			t.Errorf("node %s shutdown: %v\n%s", id, err, cmds[id].stderr.String())
		}
	}
}

// daemonProc is one cluster daemon child process.
type daemonProc struct {
	cmd    *exec.Cmd
	stderr *bytes.Buffer
}

// startClusterDaemon launches one cluster member on a fixed address.
func startClusterDaemon(t *testing.T, daemon, addr, id, peers string) *daemonProc {
	t.Helper()
	cmd := exec.Command(daemon,
		"-addr", addr, "-node-id", id, "-peers", peers, "-probe-interval", "250ms")
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if cmd.ProcessState == nil {
			_ = cmd.Process.Kill()
			_, _ = cmd.Process.Wait()
		}
	})
	ready := make(chan struct{})
	go func() {
		sc := bufio.NewScanner(stdout)
		for sc.Scan() {
			if strings.HasPrefix(sc.Text(), "listening on ") {
				close(ready)
				break
			}
		}
		// Drain the rest so the child never blocks on a full pipe.
		for sc.Scan() {
		}
	}()
	select {
	case <-ready:
	case <-time.After(10 * time.Second):
		t.Fatalf("cluster node %s never reported its address\n%s", id, stderr.String())
	}
	return &daemonProc{cmd: cmd, stderr: &stderr}
}
