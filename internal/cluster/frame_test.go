package cluster

import (
	"bytes"
	"context"
	"encoding/binary"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"reflect"
	"regexp"
	"strings"
	"testing"

	"dvfsched/internal/obs"
	"dvfsched/internal/server"
)

// rawFrame assembles a frame from a literal header and blob bytes, so
// tests can write headers the encoder never would.
func rawFrame(hdr, blobs string) []byte {
	b := binary.BigEndian.AppendUint32(nil, uint32(len(hdr)))
	b = append(b, hdr...)
	return append(b, blobs...)
}

// overflowFrame declares two entries whose lengths sum past MaxInt and
// wrap back onto the 4 blob bytes it carries.
var overflowFrame = rawFrame(`{"from":"n1","sessions":[`+
	`{"id":"a","events_len":9223372036854775807,"checkpoint_len":2},`+
	`{"id":"b","events_len":9223372036854775807,"checkpoint_len":4}]}`, "abcd")

// frameSeeds returns one frame of each shape the nodes write — a
// stream frame from Node.build (spec and events), a handoff (spec,
// events and a checkpoint) and a drop — plus the overflow frame and a
// stream frame carrying a checkpoint, which the replica endpoint
// refuses, then truncations of all five.
func frameSeeds(tb testing.TB) [][]byte {
	tb.Helper()
	srv := server.New(server.Config{})
	tb.Cleanup(srv.Close)
	// The peers are never dialed: build only reads the local server.
	n, err := NewNode(Config{ID: "n1", Peers: map[string]string{"n1": "http://127.0.0.1:1", "n2": "http://127.0.0.1:2"}}, srv)
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(n.Close)

	// Drive the bare server, not the node's router, so nothing tries to
	// replicate.
	const id = "s-n1-000001"
	serve := func(path string, body []byte, want int) {
		req := httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body))
		req.Header.Set(server.SessionIDHeader, id)
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, req)
		if rec.Code != want {
			tb.Fatalf("POST %s: %d %s", path, rec.Code, rec.Body)
		}
	}
	serve("/v1/sessions", []byte(`{"cores":2}`), http.StatusCreated)
	serve("/v1/sessions/"+id+"/tasks", taskBatch([]int{1, 2, 3, 4}, true), http.StatusOK)

	buf := &shipBuf{}
	if _, events, err := n.build(buf, id, true, 0); err != nil || events == 0 {
		tb.Fatalf("build: %d events, err %v", events, err)
	}
	stream := append([]byte(nil), buf.body...)

	hs, err := srv.HandoffSession(context.Background(), id)
	if err != nil {
		tb.Fatal(err)
	}
	handoff, err := handoffFrame("n1", id, hs, true)
	if err != nil {
		tb.Fatal(err)
	}
	drop, err := appendFrame(nil, "n1", []frameEntry{{ID: id, Drop: true}})
	if err != nil {
		tb.Fatal(err)
	}
	events := obs.AppendBinary(nil, hs.Events)
	refused, err := appendFrame(nil, "n1", []frameEntry{{ID: id, Spec: &hs.Spec, EventsLen: len(events), CheckpointLen: len(hs.Checkpoint)}}, events, hs.Checkpoint)
	if err != nil {
		tb.Fatal(err)
	}
	seeds := [][]byte{stream, handoff, drop, overflowFrame, refused}
	for _, f := range seeds[:5] {
		seeds = append(seeds, f[:3], f[:len(f)/2], f[:len(f)-1])
	}
	return seeds
}

// checkDecodeFrame is the decoder's contract on any input: no panic,
// and on success a named sender and entry lengths that tile the blob
// area exactly, in order — what the handlers rely on to slice it.
func checkDecodeFrame(t *testing.T, body []byte) {
	hdr, blobs, err := decodeFrame(body)
	if err != nil {
		return
	}
	if hdr.From == "" {
		t.Fatalf("accepted a frame with no sender: %q", body)
	}
	rest := blobs
	for _, e := range hdr.Sessions {
		if e.EventsLen < 0 || e.EventsLen > len(rest) {
			t.Fatalf("entry %q: events_len %d with %d bytes left", e.ID, e.EventsLen, len(rest))
		}
		rest = rest[e.EventsLen:]
		if e.CheckpointLen < 0 || e.CheckpointLen > len(rest) {
			t.Fatalf("entry %q: checkpoint_len %d with %d bytes left", e.ID, e.CheckpointLen, len(rest))
		}
		rest = rest[e.CheckpointLen:]
	}
	if len(rest) != 0 {
		t.Fatalf("entries leave %d of %d blob bytes unclaimed", len(rest), len(blobs))
	}
}

func FuzzDecodeFrame(f *testing.F) {
	for _, s := range frameSeeds(f) {
		f.Add(s)
	}
	f.Fuzz(checkDecodeFrame)
}

// digitRun finds the numbers in a frame header: the length fields.
var digitRun = regexp.MustCompile(`-?[0-9]+`)

// TestDecodeFrameMutations runs the decoder contract over seeded edits
// of the well-formed seeds under plain `go test`: extreme values in
// the header's numbers, byte flips and deletions in the header, blob
// areas cut or grown, and now and then a damaged length prefix.
func TestDecodeFrameMutations(t *testing.T) {
	seeds := frameSeeds(t)
	for _, s := range seeds {
		checkDecodeFrame(t, s)
	}
	extremes := []string{"0", "1", "-1", "4294967295", "4294967296", "9223372036854775807", "-9223372036854775808", "18446744073709551615"}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 5000; i++ {
		f := seeds[rng.Intn(4)]
		hl := int(binary.BigEndian.Uint32(f))
		hdr := append([]byte(nil), f[4:4+hl]...)
		blobs := append([]byte(nil), f[4+hl:]...)
		for k := rng.Intn(3); k >= 0; k-- {
			switch rng.Intn(4) {
			case 0:
				if locs := digitRun.FindAllIndex(hdr, -1); len(locs) > 0 {
					l := locs[rng.Intn(len(locs))]
					v := extremes[rng.Intn(len(extremes))]
					hdr = append(hdr[:l[0]], append([]byte(v), hdr[l[1]:]...)...)
				}
			case 1:
				if len(hdr) > 0 {
					hdr[rng.Intn(len(hdr))] = byte(rng.Intn(256))
				}
			case 2:
				if len(hdr) > 0 {
					j := rng.Intn(len(hdr))
					hdr = append(hdr[:j], hdr[j+1:]...)
				}
			default:
				if rng.Intn(2) == 0 {
					blobs = blobs[:rng.Intn(len(blobs)+1)]
				} else {
					blobs = append(blobs, make([]byte, 1+rng.Intn(8))...)
				}
			}
		}
		b := rawFrame(string(hdr), string(blobs))
		if rng.Intn(8) == 0 {
			b[rng.Intn(4)] = byte(rng.Intn(256))
		}
		checkDecodeFrame(t, b)
	}
}

// TestFrameRoundTrip pins appendFrame against decodeFrame on both
// header encoders: plain log entries take the hand-written fast path,
// a spec, handoff fields or a drop take encoding/json.
func TestFrameRoundTrip(t *testing.T) {
	spec := &server.PlatformSpec{Cores: 2}
	for _, tc := range []struct {
		name    string
		entries []frameEntry
		blobs   []string
	}{
		{"log entries", []frameEntry{{ID: "a", EventsLen: 3}, {ID: "b", EventsLen: 1, CheckpointLen: 2}}, []string{"xyz", "pqr"}},
		{"open", []frameEntry{{ID: "a", Spec: spec, EventsLen: 2}}, []string{"xy"}},
		{"handoff", []frameEntry{{ID: "a", Spec: spec, EventsLen: 2, CheckpointLen: 1, Submitted: 7, Pinned: true}}, []string{"xy", "z"}},
		{"drop", []frameEntry{{ID: "a", Drop: true}}, nil},
		{"escaped ID", []frameEntry{{ID: "a\"b", EventsLen: 1}}, []string{"x"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			blobs := make([][]byte, len(tc.blobs))
			for i, b := range tc.blobs {
				blobs[i] = []byte(b)
			}
			body, err := appendFrame([]byte("prefix"), "n1", tc.entries, blobs...)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.HasPrefix(body, []byte("prefix")) {
				t.Fatalf("appendFrame clobbered dst: %q", body)
			}
			hdr, got, err := decodeFrame(body[len("prefix"):])
			if err != nil {
				t.Fatal(err)
			}
			if hdr.From != "n1" || !reflect.DeepEqual(hdr.Sessions, tc.entries) {
				t.Fatalf("decoded %+v, want from n1 and %+v", hdr, tc.entries)
			}
			if want := strings.Join(tc.blobs, ""); string(got) != want {
				t.Fatalf("blobs %q, want %q", got, want)
			}
		})
	}
}

// TestFrameEndpointsRejectMalformed: both frame endpoints answer 400,
// not a panic or a partial apply, for frames the decoder or the
// endpoint's shape rules refuse.
func TestFrameEndpointsRejectMalformed(t *testing.T) {
	tc := startCluster(t, 1, nil)
	const replica, handoff = "/v1/cluster/replica/frame", "/v1/cluster/handoff/s-x"
	spec := `"spec":{"cores":2},`
	for _, c := range []struct {
		name, path string
		body       []byte
	}{
		{"replica: overflowing lengths", replica, overflowFrame},
		{"replica: no sender", replica, rawFrame(`{"sessions":[{"id":"s-x",`+spec+`"events_len":0}]}`, "")},
		{"replica: drop with spec", replica, rawFrame(`{"from":"n1","sessions":[{"id":"s-x","drop":true,`+spec+`"events_len":0}]}`, "")},
		{"replica: drop with blobs", replica, rawFrame(`{"from":"n1","sessions":[{"id":"s-x","drop":true,"events_len":1,"checkpoint_len":1}]}`, "xy")},
		{"replica: an entry with a checkpoint", replica, rawFrame(`{"from":"n1","sessions":[{"id":"s-x",`+spec+`"events_len":0},{"id":"s-y",`+spec+`"events_len":0,"checkpoint_len":1}]}`, "x")},
		{"handoff: overflowing lengths", handoff, overflowFrame},
		{"handoff: no entries", handoff, rawFrame(`{"from":"n1","sessions":[]}`, "")},
		{"handoff: two entries", handoff, rawFrame(`{"from":"n1","sessions":[{"id":"s-x",`+spec+`"events_len":0},{"id":"s-y",`+spec+`"events_len":0}]}`, "")},
		{"handoff: entry for another session", handoff, rawFrame(`{"from":"n1","sessions":[{"id":"s-y",`+spec+`"events_len":0}]}`, "")},
		{"handoff: no spec", handoff, rawFrame(`{"from":"n1","sessions":[{"id":"s-x","events_len":0}]}`, "")},
		{"handoff: drop entry", handoff, rawFrame(`{"from":"n1","sessions":[{"id":"s-x","drop":true}]}`, "")},
	} {
		code, b, err := tc.try("n1", http.MethodPost, c.path, c.body)
		if err != nil {
			t.Errorf("%s: %v", c.name, err)
			continue
		}
		if code != http.StatusBadRequest {
			t.Errorf("%s: %d %s, want 400", c.name, code, b)
		}
	}
	if info := tc.nodeInfo("n1"); len(info.Replicas) != 0 {
		t.Errorf("rejected frames left replicas %v", info.Replicas)
	}
	if tc.byID["n1"].srv.HasSession("s-x") {
		t.Error("a rejected handoff adopted s-x")
	}
}
