package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"dvfsched/bench/loadgen"
	"dvfsched/internal/cluster"
	"dvfsched/internal/server"
)

// submitSpec is the submit workloads' session: 4 Table II cores with
// the server's default cost constants.
var submitSpec = []byte(`{"cores":4,"platform":"table2"}`)

// appendTask appends task idx of a submit session: 2 Gcycles arriving
// at idx/2 s of virtual time, so a session's state after task idx does
// not depend on how fast earlier requests ran.
func appendTask(b []byte, idx int) []byte {
	b = append(b, `{"id":`...)
	b = strconv.AppendInt(b, int64(idx), 10)
	b = append(b, `,"cycles":2,"arrival":`...)
	b = strconv.AppendFloat(b, float64(idx)/2, 'g', -1, 64)
	return append(b, '}')
}

// submitBody is one single-task clamped submit.
func submitBody(idx int) []byte {
	b := appendTask([]byte(`{"clamp":true,"tasks":[`), idx)
	return append(b, "]}"...)
}

// submitPool spreads single-task submits round-robin over two shared
// sessions and replaces each after rotate tasks: operation k goes to
// slot k mod 2, as task (k/2) mod rotate of generation (k/2)/rotate.
// The sender that settles a session's last task drains it, checks the
// drained count against the acked submits, and purges it.
type submitPool struct {
	b      *bench
	rotate int
	// place returns the ID a session is created under; nil lets the
	// server mint it.
	place func(slot, gen int) string
	// hold leaves settled sessions for retireAll: an open loop must not
	// stall a sender on a drain. It is set only while no sender runs.
	hold bool

	next atomic.Int64
	mu   sync.Mutex
	live map[[2]int]*poolSession
}

type poolSession struct {
	ready   chan struct{} // closed once created
	id      string
	err     error
	acked   atomic.Int64
	settled atomic.Int64
}

func newSubmitPool(b *bench, place func(slot, gen int) string) *submitPool {
	return &submitPool{b: b, rotate: b.cfg.rotate, place: place, live: map[[2]int]*poolSession{}}
}

// open returns session (slot, gen), creating it on first use; a
// concurrent caller waits for the creation.
func (p *submitPool) open(slot, gen int) *poolSession {
	key := [2]int{slot, gen}
	p.mu.Lock()
	s, ok := p.live[key]
	if !ok {
		s = &poolSession{ready: make(chan struct{})}
		p.live[key] = s
	}
	p.mu.Unlock()
	if ok {
		<-s.ready
		return s
	}
	defer close(s.ready)
	id := ""
	if p.place != nil {
		id = p.place(slot, gen)
	}
	r, err := p.b.do("create", "POST", "/v1/sessions", submitSpec, id, new(bytes.Buffer))
	if err == nil {
		err = expect(r, 201, "create session")
	}
	var info server.SessionInfo
	if err == nil {
		err = json.Unmarshal(r.body, &info)
	}
	s.id, s.err = info.ID, err
	return s
}

// submit sends the pool's next operation and reports the reply and
// whether it was acked. A 429 is a counted failure; any other non-200
// is an error.
func (p *submitPool) submit(res *outcome) (reply, bool, error) {
	k := int(p.next.Add(1) - 1)
	slot, j := k%2, k/2
	gen, idx := j/p.rotate, j%p.rotate
	s := p.open(slot, gen)
	if s.err != nil {
		return reply{}, false, s.err
	}
	r, err := p.b.do("submit", "POST", "/v1/sessions/"+s.id+"/tasks", submitBody(idx), "", nil)
	if err != nil {
		return reply{}, false, err
	}
	acked := r.status == 200
	if !acked && r.status != 429 {
		return r, false, expect(r, 200, "submit to "+s.id)
	}
	if acked {
		s.acked.Add(1)
		res.submits.Add(1)
	}
	if s.settled.Add(1) == int64(p.rotate) && !p.hold {
		p.mu.Lock()
		delete(p.live, [2]int{slot, gen})
		p.mu.Unlock()
		return r, acked, p.retire(s, res)
	}
	return r, acked, nil
}

// reserve creates every session the pool's next n operations reach.
// An open loop reserves its sessions before it starts: both slots
// rotate at once, so creates on rotation would hold up both senders.
func (p *submitPool) reserve(n int) error {
	k0 := int(p.next.Load())
	for k := k0; k < k0+n; k++ {
		if s := p.open(k%2, k/2/p.rotate); s.err != nil {
			return s.err
		}
	}
	return nil
}

// retire drains a session, checks that it holds exactly the acked
// tasks, and purges it. A session without an acked task — one an open
// loop reserved for operations it then abandoned — is only removed.
func (p *submitPool) retire(s *poolSession, res *outcome) error {
	if s.acked.Load() == 0 {
		return p.b.removeEmpty(s.id)
	}
	r, drain, err := p.b.drain(s.id, new(bytes.Buffer))
	if err != nil {
		return err
	}
	if p.b.timedFrom.Before(r.sent) {
		res.rec.add("drain", r.sent, r.ms())
	}
	if want := int(s.acked.Load()); drain.Tasks != want {
		return fmt.Errorf("session %s drained %d tasks, %d submits were acked", s.id, drain.Tasks, want)
	}
	return p.b.purge(s.id)
}

// retireAll retires the sessions still live after the load stopped.
func (p *submitPool) retireAll(res *outcome) error {
	p.mu.Lock()
	keys := make([][2]int, 0, len(p.live))
	for k := range p.live {
		keys = append(keys, k)
	}
	live := p.live
	p.live = map[[2]int]*poolSession{}
	p.mu.Unlock()
	sort.Slice(keys, func(i, j int) bool {
		return keys[i][1] < keys[j][1] || keys[i][1] == keys[j][1] && keys[i][0] < keys[j][0]
	})
	for _, k := range keys {
		s := live[k]
		<-s.ready
		if s.err != nil {
			return s.err
		}
		if err := p.retire(s, res); err != nil {
			return err
		}
	}
	return nil
}

// restart retires the sessions a discarded open-loop attempt left and
// moves the pool to its next generation, so the next attempt starts on
// fresh sessions and does not run with the discarded one's in its heap.
func (p *submitPool) restart(res *outcome) error {
	if err := p.retireAll(res); err != nil {
		return err
	}
	perGen := int64(2 * p.rotate) // operations per generation of both slots
	p.next.Store((p.next.Load() + perGen - 1) / perGen * perGen)
	return nil
}

// closedLoop runs pool submits on every sender until win ends, echoing
// in its echo slots, and counts the tasks acked by submits sent inside
// win.
func (b *bench) closedLoop(p *submitPool, res *outcome, win window) {
	runSenders(func() {
		for !b.stopped() && time.Now().Before(win.to) {
			if err := b.echoUntilWork(win, echoSubmit, res); err != nil {
				b.fail(err)
				return
			}
			r, acked, err := p.submit(res)
			if err != nil {
				b.fail(err)
				return
			}
			if acked && win.has(r.sent) {
				res.tasks.Add(1)
			}
		}
	})
}

// echoSubmit is the body the submit workloads echo.
var echoSubmit = submitBody(0)

// runSubmitSmall is submit-small: single-task clamped submits to a solo
// server, a closed loop for half of cfg.seconds (throughput), then an
// open loop at cfg.smallRate for the other half (latency), both with
// echo slots. An open loop whose generator fell behind its schedule is
// run again, up to maxOpenAttempts times, and the best attempt is kept.
func runSubmitSmall(b *bench) (*outcome, error) {
	return b.runSubmits(false, b.cfg.smallRate)
}

// runReplicatedSubmit is replicated-submit: the same submits, sent
// through front n3 to sessions the ring places on n1 with replica n2,
// at cfg.replRate in the open loop. A last phase migrates a cold session
// with a fixed history between n1 and n2 while submits go on.
func runReplicatedSubmit(b *bench) (*outcome, error) {
	return b.runSubmits(true, b.cfg.replRate)
}

func (b *bench) runSubmits(clustered bool, rate float64) (*outcome, error) {
	res := &outcome{primary: "submit"}
	var pool *submitPool
	var cold *coldSession
	ring, err := cluster.NewRing([]string{"n1", "n2", "n3"}, 0)
	if err != nil {
		return nil, err
	}
	err = b.setup(clustered, func() ([]string, error) {
		var place func(slot, gen int) string
		if clustered {
			place = func(slot, gen int) string { return placedID(ring, fmt.Sprintf("b%d-s%d-g%d", b.cfg.seed, slot, gen)) }
		}
		pool = newSubmitPool(b, place)
		var ids []string
		for slot := 0; slot < 2; slot++ {
			s := pool.open(slot, 0)
			if s.err != nil {
				return ids, s.err
			}
			ids = append(ids, s.id)
		}
		if !clustered {
			return ids, nil
		}
		cold = &coldSession{b: b, id: placedID(ring, fmt.Sprintf("b%d-cold", b.cfg.seed)), on: "n1"}
		r, err := b.do("create", "POST", "/v1/sessions", submitSpec, cold.id, nil)
		if err != nil {
			return ids, err
		}
		return append(ids, cold.id), expect(r, 201, "create cold session")
	})
	if err != nil {
		return nil, err
	}
	if cold != nil {
		if err := cold.load(b.cfg.coldTasks); err != nil {
			return nil, err
		}
	}

	closedSecs := b.cfg.seconds / 2
	b.timedFrom = time.Now().Add(b.cfg.warmup)
	closed := newWindow(b.timedFrom, closedSecs)
	res.tasksPhase = closed
	openDur := time.Duration((b.cfg.seconds - closedSecs) * float64(time.Second))
	dues := loadgen.Schedule(rate, openDur)
	submits := 0
	for _, d := range dues {
		if !inEcho(d) {
			submits++
		}
	}
	var acked []bool
	err = b.measureLoad(res, func() {
		b.closedLoop(pool, res, closed)
		pool.hold = true
		for res.attempts < maxOpenAttempts && !b.stopped() {
			if res.attempts > 0 {
				if err := pool.restart(res); err != nil {
					b.fail(err)
					return
				}
			}
			res.attempts++
			if err := pool.reserve(submits); err != nil {
				b.fail(err)
				return
			}
			ack := make([]bool, len(dues))
			start := time.Now()
			ops := loadgen.Open(context.Background(), start, dues, senders, time.Second, func(i int) {
				if b.stopped() {
					return
				}
				var err error
				if inEcho(dues[i]) {
					_, err = b.echo(echoSubmit)
				} else {
					_, ack[i], err = pool.submit(res)
				}
				if err != nil {
					b.fail(err)
				}
			})
			if res.open == nil || betterOpen(ops, res.open) {
				res.open, acked, res.reqPhase = ops, ack, window{start, start.Add(openDur)}
			}
			if openValid(ops, b.cfg.maxLagMs) {
				break
			}
		}
		pool.hold = false
		if cold != nil && !b.stopped() {
			b.migrations(pool, cold, res)
		}
	})
	if err != nil {
		return nil, err
	}
	if b.stopped() {
		return b.result(res)
	}
	for i, op := range res.open {
		due := res.reqPhase.from.Add(op.Due)
		switch {
		case op.Sent >= 0 && inEcho(op.Due):
			res.rec.add("echo", due, float64(op.Done-op.Due)/1e6)
		case acked[i]:
			res.rec.add("submit", due, float64(op.Done-op.Due)/1e6)
		}
	}
	if err := pool.retireAll(res); err != nil {
		b.fail(err)
	} else if cold != nil {
		if err := cold.verify(); err != nil {
			b.fail(err)
		}
	}
	return b.result(res)
}

// migrations is replicated-submit's last phase, after the open loop so
// that a migration never holds up a timed submit: one sender migrates
// the cold session cfg.migrations times, back to back, while the other
// keeps submitting, so the shipping plane carries bulk state and log
// tails at once.
func (b *bench) migrations(p *submitPool, cold *coldSession, res *outcome) {
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for !b.stopped() {
			select {
			case <-done:
				return
			default:
			}
			if _, _, err := p.submit(res); err != nil {
				b.fail(err)
				return
			}
		}
	}()
	for i := 0; i < b.cfg.migrations && !b.stopped(); i++ {
		if err := cold.migrate(res); err != nil {
			b.fail(err)
		}
	}
	close(done)
	wg.Wait()
}

// placedID returns the first ID prefix-<salt> the 3-node ring owns on
// n1 and replicates on n2.
func placedID(ring *cluster.Ring, prefix string) string {
	for salt := 0; ; salt++ {
		id := prefix + "-" + strconv.Itoa(salt)
		if c := ring.Candidates(id, 2, nil); c[0] == "n1" && c[1] == "n2" {
			return id
		}
	}
}

// coldSession is the session replicated-submit migrates: created on n1
// with a fixed history, moved n1 -> n2 -> n1 ... through front n3 by
// one sender. The submit right after each migration must be acked.
type coldSession struct {
	b     *bench
	id    string
	on    string // current owner
	tasks int    // tasks acked so far
}

// load submits the fixed history in batches before timing starts.
func (c *coldSession) load(n int) error {
	const batch = 500
	for lo := 0; lo < n; lo += batch {
		hi := min(lo+batch, n)
		body := []byte(`{"clamp":true,"tasks":[`)
		for idx := lo; idx < hi; idx++ {
			if idx > lo {
				body = append(body, ',')
			}
			body = appendTask(body, idx)
		}
		body = append(body, "]}"...)
		r, err := c.b.do("history", "POST", "/v1/sessions/"+c.id+"/tasks", body, "", nil)
		if err != nil {
			return err
		}
		if err := expect(r, 200, "load cold session"); err != nil {
			return err
		}
	}
	c.tasks = n
	return nil
}

// migrate moves the cold session to the other replica-chain node and
// submits one task to it.
func (c *coldSession) migrate(res *outcome) error {
	target := "n2"
	if c.on == "n2" {
		target = "n1"
	}
	r, err := c.b.do("migrate", "POST", "/v1/cluster/sessions/"+c.id+"/migrate", []byte(`{"target":"`+target+`"}`), "", new(bytes.Buffer))
	if err != nil {
		return err
	}
	if err := expect(r, 200, "migrate "+c.id+" to "+target); err != nil {
		return err
	}
	res.rec.add("migrate", r.sent, r.ms())
	var info cluster.MigrateInfo
	if err := json.Unmarshal(r.body, &info); err != nil {
		return fmt.Errorf("migrate %s: %w", c.id, err)
	}
	if info.To != target {
		return fmt.Errorf("migrate %s: moved to %q, want %q", c.id, info.To, target)
	}
	c.on = target
	r, err = c.b.do("cold_submit", "POST", "/v1/sessions/"+c.id+"/tasks", submitBody(c.tasks), "", nil)
	if err != nil {
		return err
	}
	if err := expect(r, 200, "first submit after migrating "+c.id+" to "+target); err != nil {
		return err
	}
	c.tasks++
	return nil
}

// verify drains the cold session: it must hold its history plus one
// task per migration.
func (c *coldSession) verify() error {
	_, drain, err := c.b.drain(c.id, new(bytes.Buffer))
	if err != nil {
		return err
	}
	if drain.Tasks != c.tasks {
		return fmt.Errorf("migrated session %s drained %d tasks, %d were acked", c.id, drain.Tasks, c.tasks)
	}
	return c.b.purge(c.id)
}
