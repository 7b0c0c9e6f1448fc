package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// reqParam is the query parameter carrying the benchmark's request ID
// in a traced run. The cluster router forwards the request URI but no
// unknown header, so the owner's span joins its front span by this ID.
const reqParam = "bench_req"

// span is one timed interval, as written to the span file. The
// unexported fields are the join keys.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`

	node  string // "client", "core", or the node that served it
	kind  string // client operation kind
	req   uint64 // benchmark request ID; 0 when none reached this span
	path  string
	bytes int64
	self  int64 // duration minus the part its children cover
}

func (s span) dur() int64 { return s.End - s.Start }

// spanChunk is how many spans a spanLog chunk holds. Growing one slice
// would copy every span recorded so far while holding the lock that
// every request's handler takes.
const spanChunk = 4096

// spanLog keeps a traced run's spans in memory until the run ends.
type spanLog struct {
	mu     sync.Mutex
	chunks [][]span
}

func (l *spanLog) add(s span) {
	l.mu.Lock()
	if n := len(l.chunks); n == 0 || len(l.chunks[n-1]) == spanChunk {
		l.chunks = append(l.chunks, make([]span, 0, spanChunk))
	}
	last := len(l.chunks) - 1
	l.chunks[last] = append(l.chunks[last], s)
	l.mu.Unlock()
}

func (l *spanLog) take() []span {
	l.mu.Lock()
	defer l.mu.Unlock()
	var out []span
	for _, c := range l.chunks {
		out = append(out, c...)
	}
	l.chunks = nil
	return out
}

// wrap times every request a node serves. Untraced runs serve the node
// handler directly.
func (b *bench) wrap(nodeID string, h http.Handler) http.Handler {
	if b.spans == nil {
		return h
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		h.ServeHTTP(w, r)
		end := time.Now()
		b.spans.add(span{
			Name:  nodeID + " " + r.Method + " " + r.URL.Path,
			Start: b.ns(start),
			End:   b.ns(end),
			node:  nodeID,
			req:   reqID(r.URL.RawQuery),
			path:  r.URL.Path,
			bytes: r.ContentLength,
		})
	})
}

// timeCore records a direct call into internal/core as a span.
func (b *bench) timeCore(name string, start, end time.Time) {
	if b.spans != nil {
		b.spans.add(span{Name: name, Start: b.ns(start), End: b.ns(end), node: "core"})
	}
}

func reqID(rawQuery string) uint64 {
	for _, kv := range strings.Split(rawQuery, "&") {
		if v, ok := strings.CutPrefix(kv, reqParam+"="); ok {
			id, _ := strconv.ParseUint(v, 10, 64) // a malformed ID leaves the span unjoined
			return id
		}
	}
	return 0
}

// joinSpans assigns IDs and parents, then self times. A request's
// client span parents the front node's span, which parents any other
// node's span of the same request (the owner, after a forward). Spans
// of cluster-internal calls that carry no request ID (the owner side of
// a proxied migration, the handoff, placement broadcasts) join the
// tightest span of another node that names the same session and
// contains them in time.
func joinSpans(spans []span, front string) {
	for i := range spans {
		spans[i].ID = i + 1
	}
	byReq := map[uint64][]int{}
	bySession := map[string][]int{}
	for i, s := range spans {
		if s.req != 0 {
			byReq[s.req] = append(byReq[s.req], i)
		}
		if id := clusterSessionID(s.path); id != "" {
			bySession[id] = append(bySession[id], i)
		}
	}
	for _, idx := range byReq {
		client, frontSpan := -1, -1
		for _, i := range idx {
			switch spans[i].node {
			case "client":
				client = i
			case front:
				frontSpan = i
			}
		}
		for _, i := range idx {
			switch {
			case i == client:
			case i == frontSpan:
				if client >= 0 {
					spans[i].Parent = spans[client].ID
				}
			case frontSpan >= 0:
				spans[i].Parent = spans[frontSpan].ID
			}
		}
	}
	for _, idx := range bySession {
		for _, i := range idx {
			s := spans[i]
			if s.req != 0 || s.node == "client" {
				continue
			}
			best := -1
			for _, j := range idx {
				c := spans[j]
				if c.node == s.node || c.node == "client" || c.Start > s.Start || c.End < s.End {
					continue
				}
				if best < 0 || c.Start > spans[best].Start {
					best = j
				}
			}
			if best >= 0 {
				spans[i].Parent = spans[best].ID
			}
		}
	}
	kids := map[int][]int{}
	for i, s := range spans {
		if s.Parent > 0 {
			kids[s.Parent-1] = append(kids[s.Parent-1], i)
		}
	}
	for i := range spans {
		spans[i].self = spans[i].dur() - covered(spans, i, kids[i])
	}
}

// clusterSessionID extracts the session of a cluster-internal call
// (/v1/cluster/sessions/{id}/..., /v1/cluster/handoff/{id},
// /v1/cluster/placement/{id}); "" for any other path.
func clusterSessionID(path string) string {
	for _, prefix := range []string{"/v1/cluster/sessions/", "/v1/cluster/handoff/", "/v1/cluster/placement/"} {
		if rest, ok := strings.CutPrefix(path, prefix); ok {
			id, _, _ := strings.Cut(rest, "/")
			return id
		}
	}
	return ""
}

// covered is the length of span p's interval covered by its children.
func covered(spans []span, p int, kids []int) int64 {
	type iv struct{ a, b int64 }
	ivs := make([]iv, 0, len(kids))
	for _, k := range kids {
		a, b := max(spans[k].Start, spans[p].Start), min(spans[k].End, spans[p].End)
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var total, end int64
	for _, v := range ivs {
		if v.a < end {
			v.a = end
		}
		if v.b > v.a {
			total += v.b - v.a
			end = v.b
		}
	}
	return total
}

// writeSpans writes the span file: one JSON array, one span per line.
func writeSpans(path string, spans []span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	if _, err := w.WriteString("[\n"); err != nil {
		f.Close()
		return err
	}
	for i, s := range spans {
		line, err := json.Marshal(s)
		if err != nil {
			f.Close()
			return err
		}
		if i > 0 {
			line = append([]byte(",\n"), line...)
		}
		if _, err := w.Write(line); err != nil {
			f.Close()
			return err
		}
	}
	if _, err := w.WriteString("\n]\n"); err != nil {
		f.Close()
		return err
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// spanIndex answers the per-layer questions over joined spans.
type spanIndex struct {
	spans []span
	from  int64 // spans starting earlier belong to the warm-up
}

// root returns the client span a span descends from, or -1.
func (x spanIndex) root(i int) int {
	for hops := 0; hops < 8; hops++ {
		s := x.spans[i]
		if s.node == "client" {
			return i
		}
		if s.Parent == 0 {
			return -1
		}
		i = s.Parent - 1
	}
	return -1
}

// pick returns f(span) over the measured spans served by node (any node
// when ""), whose client operation kind starts with kind (no client
// needed when kind is "") and whose path passes pathOK (any when nil).
func (x spanIndex) pick(node, kind string, pathOK func(string) bool, f func(span) float64) []float64 {
	var out []float64
	for i, s := range x.spans {
		if s.Start < x.from || (node != "" && s.node != node) || (pathOK != nil && !pathOK(s.path)) {
			continue
		}
		if kind != "" {
			r := x.root(i)
			if r < 0 || !strings.HasPrefix(x.spans[r].kind, kind) {
				continue
			}
		}
		out = append(out, f(s))
	}
	return out
}

func usOf(s span) float64    { return float64(s.dur()) / 1e3 }
func msOf(s span) float64    { return float64(s.dur()) / 1e6 }
func selfUs(s span) float64  { return float64(s.self) / 1e3 }
func selfMs(s span) float64  { return float64(s.self) / 1e6 }
func bytesOf(s span) float64 { return float64(s.bytes) }
func isPath(p string) func(string) bool {
	return func(got string) bool { return got == p }
}

func hasPrefix(p string) func(string) bool {
	return func(got string) bool { return strings.HasPrefix(got, p) }
}

func hasSuffix(p string) func(string) bool {
	return func(got string) bool { return strings.HasSuffix(got, p) }
}

// spanPath is where a traced run writes its spans.
func (b *bench) spanPath() string {
	return filepath.Join(b.cfg.outDir, fmt.Sprintf("spans-%s-%d.json", b.cfg.workload, b.cfg.seed))
}
