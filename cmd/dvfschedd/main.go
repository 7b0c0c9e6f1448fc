// Command dvfschedd serves the scheduler over HTTP: a stateless
// planning plane (POST /v1/plan, Workload Based Greedy behind an LRU
// cache, at most GOMAXPROCS plans at once) and a stateful session plane
// (online-mode Least Marginal Cost shards that accept task arrivals and
// stream their event trace). See internal/server for the API contract.
//
// Usage:
//
//	dvfschedd [-addr :8080] [-cache N] [-max-sessions N]
//	          [-request-timeout 30s] [-drain-timeout 30s]
//	          [-trace-format jsonl|binary] [-pprof-addr 127.0.0.1:6060]
//	          [-node-id ID -peers "id1=http://h1:p1,id2=http://h2:p2,..."]
//	          [-node-id ID -advertise http://h:p -join http://seed:p]
//	          [-probe-interval 2s]
//
// With -node-id and -peers the daemon seeds a cluster
// (internal/cluster): a consistent-hash ring places each session on an
// owner node, any node fronts any session by forwarding, and owners
// replicate their sessions by log shipping so a killed node's sessions
// fail over to the next ring candidate without losing accepted tasks.
// The node's own ID must appear in the peer list, pointing at the
// address other nodes reach this daemon on. The -peers list only seeds
// epoch 1 — membership is dynamic afterwards, via the cluster admin API
// (POST/DELETE /v1/cluster/nodes/{id}).
//
// With -node-id, -advertise and -join instead, the daemon boots as a
// solo node reachable at the -advertise URL and, once listening, asks
// the member at the -join URL to admit it: the seed pushes the grown
// view, rebalances the bounded set of sessions the new ring assigns to
// this node, and flips the epoch cluster-wide. A failed join is fatal
// at startup. -join and -peers are mutually exclusive.
//
// The daemon prints "listening on http://HOST:PORT" once the socket is
// bound (use -addr 127.0.0.1:0 for an ephemeral port and parse that
// line). On SIGINT or SIGTERM it stops accepting requests, finishes
// in-flight handlers, drains every live session to completion in
// virtual time — no accepted task is ever dropped — and prints one
// summary line per drained session before exiting.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"net/http/pprof"
	"net/url"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"dvfsched/internal/cluster"
	"dvfsched/internal/server"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("dvfschedd: ")
	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, syscall.SIGINT, syscall.SIGTERM)
	if err := run(os.Args[1:], os.Stdout, sigs); err != nil {
		log.Fatal(err)
	}
}

// run binds the listener, serves until a signal arrives, then drains.
// It is main minus process concerns, so tests can drive it.
func run(args []string, w io.Writer, sigs <-chan os.Signal) error {
	fs := flag.NewFlagSet("dvfschedd", flag.ContinueOnError)
	var (
		addr         = fs.String("addr", ":8080", "listen address (host:0 picks an ephemeral port)")
		cache        = fs.Int("cache", 0, "plan LRU cache entries (0 = 256, negative disables)")
		maxSessions  = fs.Int("max-sessions", 0, "concurrent session cap (0 = 1024)")
		reqTimeout   = fs.Duration("request-timeout", 0, "per-request deadline (0 = 30s)")
		drainTimeout = fs.Duration("drain-timeout", 30*time.Second, "graceful shutdown budget")
		traceFormat  = fs.String("trace-format", "jsonl", "default session events encoding: jsonl or binary (?format= overrides)")
		nodeID       = fs.String("node-id", "", "this node's cluster ID (requires -peers or -join)")
		peersFlag    = fs.String("peers", "", `seed cluster membership as "id=http://host:port,..." including this node`)
		joinURL      = fs.String("join", "", "base URL of an existing member to join at startup (requires -node-id and -advertise)")
		advertise    = fs.String("advertise", "", "base URL other nodes reach this daemon on (required with -join)")
		probeEvery   = fs.Duration("probe-interval", 2*time.Second, "cluster peer health-probe interval")
		pprofAddr    = fs.String("pprof-addr", "", "expose net/http/pprof on this side listener (empty = off; keep it loopback-only)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	// Enum and cluster flags are validated before any socket binds: a
	// misconfigured daemon must die at startup with a usage error, not
	// serve with a silently wrong setting.
	if *traceFormat != "jsonl" && *traceFormat != "binary" {
		return fmt.Errorf("unknown -trace-format %q (want jsonl or binary)", *traceFormat)
	}
	peers, err := parsePeers(*peersFlag)
	if err != nil {
		return err
	}
	if *joinURL != "" {
		if peers != nil {
			return fmt.Errorf("-join and -peers are mutually exclusive")
		}
		if *nodeID == "" || *advertise == "" {
			return fmt.Errorf("-join requires -node-id and -advertise")
		}
		for flagName, v := range map[string]*string{"-join": joinURL, "-advertise": advertise} {
			u, err := url.Parse(*v)
			if err != nil || (u.Scheme != "http" && u.Scheme != "https") || u.Host == "" {
				return fmt.Errorf("%s %q: want an absolute http(s) URL", flagName, *v)
			}
			*v = strings.TrimRight(*v, "/")
		}
		// Boot solo; the join below grows the seed's view to include us.
		peers = map[string]string{*nodeID: *advertise}
	} else {
		if *advertise != "" {
			return fmt.Errorf("-advertise requires -join")
		}
		if (*nodeID == "") != (peers == nil) {
			return fmt.Errorf("-node-id and -peers must be set together")
		}
		if peers != nil {
			if _, ok := peers[*nodeID]; !ok {
				return fmt.Errorf("-node-id %q is not in -peers", *nodeID)
			}
		}
	}
	if *probeEvery <= 0 {
		return fmt.Errorf("-probe-interval must be positive, got %v", *probeEvery)
	}

	s := server.New(server.Config{
		CacheSize:      *cache,
		MaxSessions:    *maxSessions,
		RequestTimeout: *reqTimeout,
		TraceFormat:    *traceFormat,
	})

	handler := http.Handler(s)
	if peers != nil {
		node, err := cluster.NewNode(cluster.Config{
			ID:    *nodeID,
			Peers: peers,
		}, s)
		if err != nil {
			return err
		}
		handler = node.Handler()
		stopProber := node.StartProber(*probeEvery)
		defer stopProber()
		// Close replication only after the HTTP server below has stopped
		// serving mutations (defers run LIFO).
		defer node.Close()
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	// The listening line stays first on stdout — harnesses parse it.
	fmt.Fprintf(w, "listening on http://%s\n", ln.Addr())
	if peers != nil {
		fmt.Fprintf(w, "cluster node %s, %d peers\n", *nodeID, len(peers))
	}

	if *pprofAddr != "" {
		pln, err := net.Listen("tcp", *pprofAddr)
		if err != nil {
			return fmt.Errorf("-pprof-addr %q: %w", *pprofAddr, err)
		}
		defer pln.Close()
		fmt.Fprintf(w, "pprof listening on http://%s/debug/pprof/\n", pln.Addr())
		//dvfslint:allow goroleak Serve returns when the deferred listener close runs at shutdown
		go func() { _ = http.Serve(pln, pprofMux()) }()
	}

	httpSrv := &http.Server{Handler: handler}
	serveErr := make(chan error, 1)
	//dvfslint:allow goroleak Serve returns when the listener closes (shutdown path below), unblocking this send
	go func() { serveErr <- httpSrv.Serve(ln) }()

	if *joinURL != "" {
		// The daemon must be serving before it joins: the seed pushes the
		// grown membership view (and possibly rebalanced sessions) back at
		// this node as part of admitting it.
		if err := joinCluster(*joinURL, *nodeID, *advertise); err != nil {
			ln.Close()
			<-serveErr
			return fmt.Errorf("join %s: %w", *joinURL, err)
		}
		fmt.Fprintf(w, "joined cluster via %s\n", *joinURL)
	}

	select {
	case err := <-serveErr:
		return err
	case sig := <-sigs:
		fmt.Fprintf(w, "caught %v; draining\n", sig)
	}

	// Refuse new work with 503 before the listener closes, so a load
	// balancer probing this replica fails over instead of retrying 429s.
	s.BeginDrain()

	ctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	if err := httpSrv.Shutdown(ctx); err != nil {
		// In-flight handlers overran the budget; sessions still drain
		// below so no accepted work is lost.
		fmt.Fprintf(w, "http shutdown: %v\n", err)
	}
	if err := <-serveErr; err != nil && !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	for _, sum := range s.DrainAll(ctx) {
		if sum.Err != nil {
			fmt.Fprintf(w, "drained session %s: error: %v\n", sum.ID, sum.Err)
			continue
		}
		fmt.Fprintf(w, "drained session %s: %d tasks, cost %.4f cents\n", sum.ID, sum.Tasks, sum.Cost)
	}
	fmt.Fprintln(w, "shutdown complete")
	return nil
}

// pprofMux exposes net/http/pprof on its own mux, so the profiling
// surface lives only on the -pprof-addr side listener — importing the
// package for side effects would bolt it onto http.DefaultServeMux,
// which the main listener must never serve.
func pprofMux() *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

// joinCluster asks the member at joinURL to admit this node (POST
// /v1/cluster/nodes/{id} with this node's advertise address). The call
// returns once the seed has pushed the grown view, rebalanced, and
// flipped the epoch — or with the admission error.
func joinCluster(joinURL, nodeID, advertise string) error {
	body, err := json.Marshal(struct {
		Addr string `json:"addr"`
	}{Addr: advertise})
	if err != nil {
		return err
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost,
		joinURL+"/v1/cluster/nodes/"+nodeID, bytes.NewReader(body))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	reply, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
	if resp.StatusCode < 200 || resp.StatusCode >= 300 {
		return fmt.Errorf("status %d: %s", resp.StatusCode, strings.TrimSpace(string(reply)))
	}
	return nil
}

// parsePeers decodes the -peers flag: comma-separated id=URL pairs.
// Empty input means no cluster (nil map). Every ID must be unique and
// every address an absolute http(s) URL — catching a typo here beats
// debugging a node that silently ships its replicas nowhere.
func parsePeers(s string) (map[string]string, error) {
	if s == "" {
		return nil, nil
	}
	peers := map[string]string{}
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		id, addr, ok := strings.Cut(part, "=")
		if !ok || id == "" || addr == "" {
			return nil, fmt.Errorf(`-peers entry %q: want "id=http://host:port"`, part)
		}
		if _, dup := peers[id]; dup {
			return nil, fmt.Errorf("-peers: duplicate node ID %q", id)
		}
		u, err := url.Parse(addr)
		if err != nil || (u.Scheme != "http" && u.Scheme != "https") || u.Host == "" {
			return nil, fmt.Errorf("-peers entry %q: address must be an absolute http(s) URL", part)
		}
		peers[id] = strings.TrimRight(addr, "/")
	}
	if len(peers) == 0 {
		return nil, fmt.Errorf("-peers: no entries in %q", s)
	}
	return peers, nil
}
