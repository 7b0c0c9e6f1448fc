package main

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"os"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"dvfsched/internal/obs"
)

// lineWriter captures the daemon's stdout and hands the "listening on"
// (and, when watched, "pprof listening on") lines to the test as soon
// as they appear.
type lineWriter struct {
	mu    sync.Mutex
	buf   bytes.Buffer
	ready chan string
	pprof chan string
}

func (lw *lineWriter) Write(p []byte) (int, error) {
	lw.mu.Lock()
	defer lw.mu.Unlock()
	lw.buf.Write(p)
	for {
		line, err := lw.buf.ReadString('\n')
		if err != nil {
			lw.buf.WriteString(line) // partial line: put it back
			break
		}
		if url, ok := strings.CutPrefix(line, "pprof listening on "); ok {
			if lw.pprof != nil {
				select {
				case lw.pprof <- strings.TrimSpace(url):
				default:
				}
			}
			continue
		}
		if addr, ok := strings.CutPrefix(line, "listening on "); ok {
			select {
			case lw.ready <- strings.TrimSpace(addr):
			default:
			}
		}
	}
	return len(p), nil
}

// TestRunRejectsBadClusterFlags: every malformed cluster flag combo
// must fail at startup with a usage error naming the flag — a daemon
// that binds its socket first would look healthy to an operator while
// misrouting every session.
func TestRunRejectsBadClusterFlags(t *testing.T) {
	cases := []struct {
		name string
		args []string
		want string
	}{
		{"node-id without peers", []string{"-node-id", "a"}, "-node-id and -peers"},
		{"peers without node-id", []string{"-peers", "a=http://h:1"}, "-node-id and -peers"},
		{"node-id not a peer", []string{"-node-id", "c", "-peers", "a=http://h:1,b=http://h:2"}, "not in -peers"},
		{"malformed entry", []string{"-node-id", "a", "-peers", "a:http://h:1"}, "-peers entry"},
		{"missing address", []string{"-node-id", "a", "-peers", "a="}, "-peers entry"},
		{"duplicate peer ID", []string{"-node-id", "a", "-peers", "a=http://h:1,a=http://h:2"}, "duplicate node ID"},
		{"relative address", []string{"-node-id", "a", "-peers", "a=h:1"}, "http(s) URL"},
		{"empty peer list", []string{"-node-id", "a", "-peers", ","}, "no entries"},
		{"bad probe interval", []string{"-probe-interval", "-1s"}, "-probe-interval"},
		{"join with peers", []string{"-node-id", "a", "-peers", "a=http://h:1", "-join", "http://h:2"}, "mutually exclusive"},
		{"join without node-id", []string{"-join", "http://h:2", "-advertise", "http://h:1"}, "-join requires"},
		{"join without advertise", []string{"-node-id", "a", "-join", "http://h:2"}, "-join requires"},
		{"advertise without join", []string{"-node-id", "a", "-peers", "a=http://h:1", "-advertise", "http://h:1"}, "-advertise requires -join"},
		{"relative join URL", []string{"-node-id", "a", "-join", "h:2", "-advertise", "http://h:1"}, "http(s) URL"},
		{"relative advertise URL", []string{"-node-id", "a", "-join", "http://h:2", "-advertise", "h:1"}, "http(s) URL"},
	}
	sigs := make(chan os.Signal)
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := run(tc.args, io.Discard, sigs)
			if err == nil {
				t.Fatalf("args %v accepted", tc.args)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("args %v: error %q does not name the problem (want %q)", tc.args, err, tc.want)
			}
		})
	}
}

func TestParsePeers(t *testing.T) {
	peers, err := parsePeers("a=http://h:1, b=https://h:2/")
	if err != nil {
		t.Fatal(err)
	}
	if peers["a"] != "http://h:1" || peers["b"] != "https://h:2" {
		t.Fatalf("parsed peers %v", peers)
	}
	if p, err := parsePeers(""); p != nil || err != nil {
		t.Fatalf("empty -peers: %v, %v", p, err)
	}
}

// TestDaemonBinaryTraceDefault boots the daemon with no trace option
// and checks the events endpoint: JSON Lines by default, the binary
// encoding with ?format=binary.
func TestDaemonBinaryTraceDefault(t *testing.T) {
	lw := &lineWriter{ready: make(chan string, 1)}
	sigs := make(chan os.Signal, 1)
	done := make(chan error, 1)
	go func() {
		done <- run([]string{"-addr", "127.0.0.1:0"}, lw, sigs)
	}()
	var base string
	select {
	case base = <-lw.ready:
	case err := <-done:
		t.Fatalf("daemon exited early: %v", err)
	case <-time.After(10 * time.Second):
		t.Fatal("daemon never reported its address")
	}

	var info struct {
		ID string `json:"id"`
	}
	resp, err := http.Post(base+"/v1/sessions", "application/json", strings.NewReader("{}"))
	if err != nil {
		t.Fatal(err)
	}
	if err := json.NewDecoder(resp.Body).Decode(&info); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	body := `{"tasks":[{"id":1,"cycles":5},{"id":2,"cycles":3,"arrival":0.5}]}`
	resp, err = http.Post(base+"/v1/sessions/"+info.ID+"/tasks", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("submit: status %d", resp.StatusCode)
	}

	get := func(url string) []byte {
		t.Helper()
		resp, err := http.Get(url)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		b, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: status %d", url, resp.StatusCode)
		}
		return b
	}
	plain := get(base + "/v1/sessions/" + info.ID + "/events")
	if obs.DetectBinary(plain) || len(plain) == 0 || plain[0] != '{' {
		t.Errorf("default events encoding is not JSON Lines: %.40q", plain)
	}
	bin := get(base + "/v1/sessions/" + info.ID + "/events?format=binary")
	if !obs.DetectBinary(bin) {
		t.Errorf("?format=binary did not serve the binary encoding: %.40q", bin)
	}

	sigs <- syscall.SIGTERM
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("daemon shutdown: %v", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("daemon never shut down")
	}
}

// TestDaemonPprofSideListener boots the daemon with -pprof-addr and
// checks the profiling surface comes up on its own socket — reachable
// there, absent from the API listener (operators point tooling at a
// loopback side port without exposing pprof to API clients).
func TestDaemonPprofSideListener(t *testing.T) {
	lw := &lineWriter{ready: make(chan string, 1), pprof: make(chan string, 1)}
	sigs := make(chan os.Signal, 1)
	done := make(chan error, 1)
	go func() {
		done <- run([]string{"-addr", "127.0.0.1:0", "-pprof-addr", "127.0.0.1:0"}, lw, sigs)
	}()
	var base, pprofURL string
	for base == "" || pprofURL == "" {
		select {
		case base = <-lw.ready:
		case pprofURL = <-lw.pprof:
		case err := <-done:
			t.Fatalf("daemon exited early: %v", err)
		case <-time.After(10 * time.Second):
			t.Fatalf("daemon never reported its addresses (api %q, pprof %q)", base, pprofURL)
		}
	}

	resp, err := http.Get(pprofURL)
	if err != nil {
		t.Fatal(err)
	}
	b, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || !bytes.Contains(b, []byte("goroutine")) {
		t.Fatalf("pprof index at %s: status %d, body %.80q", pprofURL, resp.StatusCode, b)
	}

	resp, err = http.Get(base + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode == http.StatusOK {
		t.Fatal("API listener serves /debug/pprof/ — the profiling surface must stay on the side listener")
	}

	sigs <- syscall.SIGTERM
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("daemon shutdown: %v", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("daemon never shut down")
	}
}
