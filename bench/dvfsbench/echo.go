package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"sync"
	"time"
)

// The echo is the benchmark's yardstick. The machine the benchmark runs
// on is shared, and other tenants change how fast it runs by tens of
// percent from one run to the next, in spells of seconds to minutes; a
// client-observed time in milliseconds moves with them. Every measured
// phase therefore alternates between slots of the workload and slots in
// which the same senders, in the same loop, send the workload's own
// request body to a net/http server that shares no code with dvfsched:
// it reads the body, checks that it is JSON and answers {"ok":true}.
// The gated timings are read relative to the echo of the same phase,
// which has lived through the same machine.

// echoSlot is the length of the slots a measured phase alternates
// between: even slots carry the workload, odd ones the echo.
const echoSlot = 200 * time.Millisecond

// inEcho reports whether an operation sent or due at offset d into a
// phase belongs to the echo.
func inEcho(d time.Duration) bool { return d >= 0 && d/echoSlot%2 == 1 }

// slotTime splits a phase into the time its work slots and its echo
// slots cover.
func slotTime(win window) (work, echo time.Duration) {
	for d := time.Duration(0); d < win.to.Sub(win.from); d += echoSlot {
		n := min(echoSlot, win.to.Sub(win.from)-d)
		if inEcho(d) {
			echo += n
		} else {
			work += n
		}
	}
	return work, echo
}

// echoServer is the reference server on its own loopback listener.
type echoServer struct {
	url string
	hs  *http.Server
	wg  sync.WaitGroup
}

// echoBufs holds the echo handler's request buffers.
var echoBufs = sync.Pool{New: func() any { return new(bytes.Buffer) }}

func startEcho() (*echoServer, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	e := &echoServer{url: "http://" + ln.Addr().String() + "/echo"}
	e.hs = &http.Server{Handler: http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		buf := echoBufs.Get().(*bytes.Buffer)
		buf.Reset()
		_, err := buf.ReadFrom(r.Body)
		ok := err == nil && json.Valid(buf.Bytes())
		echoBufs.Put(buf)
		if !ok {
			http.Error(w, "not JSON", http.StatusBadRequest)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		_, _ = w.Write([]byte(`{"ok":true}`)) // a failed write shows as the client's error
	})}
	e.wg.Add(1)
	go func() {
		defer e.wg.Done()
		_ = e.hs.Serve(ln) // returns ErrServerClosed once close runs; the client sees any other failure
	}()
	return e, nil
}

func (e *echoServer) close() {
	_ = e.hs.Close() // Close only reports listener errors; the server is stopped regardless
	e.wg.Wait()
}

// echo sends body to the echo server and returns when its reply was
// sent and done. Echoes are not requests to the system under test, so
// they count neither as attempted nor in spans; a failed echo fails
// the run.
func (b *bench) echo(body []byte) (reply, error) {
	r := reply{sent: time.Now()}
	resp, err := b.client.Post(b.echoSrv.url, "application/json", bytes.NewReader(body))
	if err != nil {
		return r, fmt.Errorf("echo: %w", err)
	}
	_, err = io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	r.done, r.status = time.Now(), resp.StatusCode
	if err == nil && r.status != http.StatusOK {
		err = errors.New(resp.Status)
	}
	if err != nil {
		return r, fmt.Errorf("echo: %w", err)
	}
	return r, nil
}

// echoUntilWork runs echoes in a closed loop while now lies in an echo
// slot of win, recording their latencies under "echo".
func (b *bench) echoUntilWork(win window, body []byte, res *outcome) error {
	for now := time.Now(); inEcho(now.Sub(win.from)) && now.Before(win.to); now = time.Now() {
		r, err := b.echo(body)
		if err != nil {
			return err
		}
		res.rec.add("echo", r.sent, r.ms())
	}
	return nil
}
