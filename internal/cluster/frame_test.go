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

	"dvfsched/internal/server"
)

// rawFrame assembles a frame from a literal header and blob bytes, so
// tests can write headers the encoder never would.
func rawFrame(hdr, blobs string) []byte {
	b := binary.BigEndian.AppendUint32(nil, uint32(len(hdr)))
	b = append(b, hdr...)
	return append(b, blobs...)
}

// overlongFrame declares an event blob far longer than the 4 bytes it
// carries.
var overlongFrame = rawFrame(`{"from":"n1","id":"a","events_len":9223372036854775807}`, "abcd")

// frameSeeds returns one frame of each shape the nodes write — a
// stream frame from Node.build (spec and events), a handoff (the same
// plus the handoff fields) and a drop — plus frames whose sender and
// session ID break the ID rule, which decodeFrame refuses, then
// truncations of all five.
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
	if _, events, err := n.build(buf, frameHeader{ID: id}, true, 0); err != nil || events == 0 {
		tb.Fatalf("build: %d events, err %v", events, err)
	}
	stream := append([]byte(nil), buf.body...)

	submitted, err := srv.HandoffSession(context.Background(), id)
	if err != nil {
		tb.Fatal(err)
	}
	if _, _, err := n.build(buf, frameHeader{ID: id, Submitted: submitted, Pinned: true}, true, 0); err != nil {
		tb.Fatal(err)
	}
	handoff := append([]byte(nil), buf.body...)
	drop, err := appendFrame(nil, frameHeader{From: "n1", ID: id, Drop: true}, nil)
	if err != nil {
		tb.Fatal(err)
	}
	badSender := rawFrame(`{"from":"bad sender!","id":"s-x","events_len":0}`, "")
	badID := rawFrame(`{"from":"n1","id":"../x y","spec":{"cores":2},"events_len":0}`, "")
	seeds := [][]byte{stream, handoff, drop, badSender, badID}
	for _, f := range seeds[:5] {
		seeds = append(seeds, f[:3], f[:len(f)/2], f[:len(f)-1])
	}
	return seeds
}

// checkDecodeFrame is the decoder's contract on any input: no panic,
// and on success a sender and session ID that pass the ID rule, a blob
// of exactly the declared length, and a drop with no spec or log —
// what the handlers rely on.
func checkDecodeFrame(t *testing.T, body []byte) {
	hdr, blob, err := decodeFrame(body)
	if err != nil {
		return
	}
	if !server.ValidID(hdr.From) || !server.ValidID(hdr.ID) {
		t.Fatalf("accepted sender %q, session %q: %q", hdr.From, hdr.ID, body)
	}
	if hdr.EventsLen != len(blob) {
		t.Fatalf("session %q: events_len %d with %d blob bytes", hdr.ID, hdr.EventsLen, len(blob))
	}
	if hdr.Drop && (hdr.Spec != nil || len(blob) > 0) {
		t.Fatalf("accepted a drop carrying a spec or a log: %q", body)
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
		f := seeds[rng.Intn(5)]
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
// header encoders: a plain log frame takes the hand-written fast path,
// a spec, handoff fields or a drop take encoding/json. An ID that needs
// escaping takes encoding/json too, and the ID rule refuses it.
func TestFrameRoundTrip(t *testing.T) {
	spec := &server.PlatformSpec{Cores: 2}
	for _, tc := range []struct {
		name    string
		hdr     frameHeader
		blob    string
		refused bool
	}{
		{"log entries", frameHeader{From: "n1", ID: "a", EventsLen: 3}, "xyz", false},
		{"open", frameHeader{From: "n1", ID: "a", Spec: spec, EventsLen: 2}, "xy", false},
		{"handoff", frameHeader{From: "n1", ID: "a", Spec: spec, EventsLen: 2, Submitted: 7, Pinned: true}, "xy", false},
		{"drop", frameHeader{From: "n1", ID: "a", Drop: true}, "", false},
		{"escaped ID", frameHeader{From: "n1", ID: "a\"b", EventsLen: 1}, "x", true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			body, err := appendFrame([]byte("prefix"), tc.hdr, []byte(tc.blob))
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.HasPrefix(body, []byte("prefix")) {
				t.Fatalf("appendFrame clobbered dst: %q", body)
			}
			hdr, got, err := decodeFrame(body[len("prefix"):])
			if tc.refused {
				if err == nil || !strings.Contains(err.Error(), "invalid session ID") {
					t.Fatalf("decodeFrame = %v, want the ID rule's refusal", err)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(hdr, tc.hdr) {
				t.Fatalf("decoded %+v, want %+v", hdr, tc.hdr)
			}
			if string(got) != tc.blob {
				t.Fatalf("blob %q, want %q", got, tc.blob)
			}
		})
	}
}

// TestFrameEndpointsRejectMalformed: both frame endpoints answer 400,
// not a panic or a partial apply, for frames the decoder or the
// endpoint's shape rules refuse, among them every sender and session
// ID outside the one ID rule.
func TestFrameEndpointsRejectMalformed(t *testing.T) {
	tc := startCluster(t, 1, nil)
	const replica, handoff = "/v1/cluster/replica/frame", "/v1/cluster/handoff/s-x"
	spec := `"spec":{"cores":2},`
	for _, c := range []struct {
		name, path string
		body       []byte
	}{
		{"replica: overlong log", replica, overlongFrame},
		{"replica: no sender", replica, rawFrame(`{"id":"s-x",`+spec+`"events_len":0}`, "")},
		{"replica: sender outside the ID rule", replica, rawFrame(`{"from":"bad sender!","id":"s-x",`+spec+`"events_len":0}`, "")},
		{"replica: empty session ID", replica, rawFrame(`{"from":"n1","id":"",`+spec+`"events_len":0}`, "")},
		{"replica: session ID outside the ID rule", replica, rawFrame(`{"from":"n1","id":"../x y",`+spec+`"events_len":0}`, "")},
		{"replica: drop with spec", replica, rawFrame(`{"from":"n1","id":"s-x","drop":true,`+spec+`"events_len":0}`, "")},
		{"replica: drop with a log", replica, rawFrame(`{"from":"n1","id":"s-x","drop":true,"events_len":2}`, "xy")},
		{"replica: blob past the declared log", replica, rawFrame(`{"from":"n1","id":"s-x",`+spec+`"events_len":1}`, "xy")},
		{"handoff: overlong log", handoff, overlongFrame},
		{"handoff: frame for another session", handoff, rawFrame(`{"from":"n1","id":"s-y",`+spec+`"events_len":0}`, "")},
		{"handoff: no spec", handoff, rawFrame(`{"from":"n1","id":"s-x","events_len":0}`, "")},
		{"handoff: drop", handoff, rawFrame(`{"from":"n1","id":"s-x","drop":true,"events_len":0}`, "")},
		{"handoff: sender outside the ID rule", handoff, rawFrame(`{"from":"bad sender!","id":"s-x",`+spec+`"events_len":0}`, "")},
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
		t.Errorf("rejected frames left replicas %q", info.Replicas)
	}
	if tc.byID["n1"].srv.HasSession("s-x") {
		t.Error("a rejected handoff adopted s-x")
	}
}
