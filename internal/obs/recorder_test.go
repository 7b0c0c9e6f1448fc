package obs

import (
	"bytes"
	"math/rand"
	"reflect"
	"runtime"
	"sync"
	"testing"
)

// recEvents returns n events with Seqs 1..n that cycle through the
// engine's kinds (and, with unknown set, a kind of their own) and set
// the optional fields the codec frames.
func recEvents(n int, seed int64, unknown bool) []Event {
	rng := rand.New(rand.NewSource(seed))
	kinds := []Kind{KindArrival, KindStart, KindPreempt, KindComplete, KindDVFS, KindCoreActive, KindCoreIdle}
	if unknown {
		kinds = append(kinds, "checkpoint")
	}
	evs := make([]Event, n)
	t := 0.0
	for i := range evs {
		t += rng.Float64()
		ev := Event{Seq: uint64(i + 1), T: t, Kind: kinds[rng.Intn(len(kinds))], Core: rng.Intn(5) - 1, Task: rng.Intn(1000)}
		if rng.Intn(2) == 0 {
			ev.Rate = 1.6 + float64(rng.Intn(5))*0.2
		}
		if rng.Intn(3) == 0 {
			ev.Energy = rng.Float64() * 100
		}
		if rng.Intn(3) == 0 {
			ev.Cycles = float64(rng.Intn(50))
		}
		if rng.Intn(4) == 0 {
			ev.Remaining = rng.Float64()
		}
		ev.Interactive = rng.Intn(7) == 0
		evs[i] = ev
	}
	return evs
}

// export returns the binary trace l.WriteBinary writes.
func export(t testing.TB, l Log) []byte {
	t.Helper()
	var w bytes.Buffer
	if err := l.WriteBinary(&w); err != nil {
		t.Fatal(err)
	}
	return w.Bytes()
}

// recordBatches emits evs into r in batches of uneven sizes, committing
// after each, and returns the committed counts.
func recordBatches(r *Recorder, evs []Event, seed int64) []int {
	rng := rand.New(rand.NewSource(seed))
	var commits []int
	for i := 0; i < len(evs); {
		k := min(1+rng.Intn(120), len(evs)-i)
		for _, ev := range evs[i : i+k] {
			r.Emit(ev)
		}
		r.Commit()
		i += k
		commits = append(commits, i)
	}
	return commits
}

// TestRecorderCommitPublishes: readers see nothing Emit wrote until
// Commit, and a Commit with nothing new changes nothing.
func TestRecorderCommitPublishes(t *testing.T) {
	evs := recEvents(3, 1, false)
	r := &Recorder{}
	r.Commit()
	r.Emit(evs[0])
	r.Emit(evs[1])
	if r.Len() != 0 || r.LastSeq() != 0 || len(r.Events()) != 0 {
		t.Fatalf("uncommitted events visible: len %d, last seq %d", r.Len(), r.LastSeq())
	}
	r.Commit()
	r.Emit(evs[2])
	if r.Len() != 2 || r.LastSeq() != 2 || !reflect.DeepEqual(r.Events(), evs[:2]) {
		t.Fatalf("after one commit: len %d, last seq %d, want the first two events", r.Len(), r.LastSeq())
	}
	if got := export(t, r.Log()); !bytes.Equal(got, AppendBinary(nil, evs[:2])) {
		t.Fatal("committed export differs from AppendBinary of the committed events")
	}
	r.Commit()
	r.Commit()
	if r.Len() != 3 || !reflect.DeepEqual(r.Events(), evs) {
		t.Fatalf("after the second commit: len %d, want 3", r.Len())
	}
}

// TestRecorderAppendBinarySince reads tails that start at commit
// points, inside and at frame boundaries and past the end: each must
// be AppendBinary of the suffix past its start, after the caller's
// prefix. A whole-log struct read allocates once.
func TestRecorderAppendBinarySince(t *testing.T) {
	evs := recEvents(5000, 3, false)
	r := &Recorder{}
	commits := recordBatches(r, evs, 3)
	if len(r.frames) < 3 {
		t.Fatalf("%d sealed frames, want several", len(r.frames))
	}
	n := len(evs)
	afters := []int{0, 5, n - 1, n, n + 5}
	for _, c := range commits {
		afters = append(afters, c)
	}
	for _, f := range r.frames {
		afters = append(afters, f.n-1, f.n, f.n+1)
	}
	for _, after := range afters {
		tail := evs[min(after, n):]
		wantLast := uint64(after)
		if len(tail) > 0 {
			wantLast = tail[len(tail)-1].Seq
		}
		got, last, m := r.AppendBinarySince([]byte("x"), uint64(after))
		if !bytes.Equal(got, AppendBinary([]byte("x"), tail)) || m != len(tail) || last != wantLast {
			t.Errorf("AppendBinarySince(%d): %d events up to %d, want %d up to %d", after, m, last, len(tail), wantLast)
		}
	}
	if allocs := testing.AllocsPerRun(5, func() { _ = r.Events() }); allocs != 1 {
		t.Errorf("Events: %v allocations, want 1", allocs)
	}
}

// TestRecorderBinaryReads checks every committed view: the export, its
// prefixes and the binary tails from every commit point and from
// points between commits must equal AppendBinary of the same events.
func TestRecorderBinaryReads(t *testing.T) {
	evs := recEvents(4000, 4, true)
	r := &Recorder{}
	rng := rand.New(rand.NewSource(4))
	var commits []int
	for i := 0; i < len(evs); {
		k := min(1+rng.Intn(150), len(evs)-i)
		for _, ev := range evs[i : i+k] {
			r.Emit(ev)
		}
		r.Commit()
		i += k
		commits = append(commits, i)

		l := r.Log()
		if got := export(t, l); !bytes.Equal(got, AppendBinary(nil, evs[:i])) {
			t.Fatalf("%d events: export differs from AppendBinary", i)
		}
		for _, p := range []int{0, i / 3, i - 1, rng.Intn(i + 1)} {
			pl := l.Prefix(p)
			if got := export(t, pl); pl.Len() != p || !bytes.Equal(got, AppendBinary(nil, evs[:p])) {
				t.Fatalf("%d events: the export of the first %d (len %d) differs from AppendBinary", i, p, pl.Len())
			}
			if p > 0 && pl.LastSeq() != evs[p-1].Seq {
				t.Fatalf("prefix of %d: last seq %d, want %d", p, pl.LastSeq(), evs[p-1].Seq)
			}
		}
		// Tails from where the last tail ended (the previous commit,
		// first, while the mark holds it), from the recent commits, an
		// older one, and points between commits (decoded from a frame
		// start).
		afters := []int{commits[max(0, len(commits)-2)], 0, rng.Intn(i + 1), i, i + 3}
		afters = append(afters, commits[max(0, len(commits)-3):]...)
		for _, after := range afters {
			tail := evs[min(after, i):i]
			got, last, m := r.AppendBinarySince([]byte("x"), uint64(after))
			wantLast := uint64(after)
			if len(tail) > 0 {
				wantLast = tail[len(tail)-1].Seq
			}
			if !bytes.Equal(got, AppendBinary([]byte("x"), tail)) || m != len(tail) || last != wantLast {
				t.Fatalf("%d events: tail after %d (%d events, last %d) differs from AppendBinary of %d events", i, after, m, last, len(tail))
			}
		}
	}
}

// TestRecorderSteadyStateAllocs: a commit and a replication tail from
// the last commit allocate nothing once the frame has room and the
// destination has capacity.
func TestRecorderSteadyStateAllocs(t *testing.T) {
	evs := recEvents(400, 5, false)
	r := &Recorder{}
	for _, ev := range evs[:100] {
		r.Emit(ev)
	}
	r.Commit()
	dst := make([]byte, 0, 4096)
	seq, i := r.LastSeq(), 100
	allocs := testing.AllocsPerRun(90, func() {
		r.Emit(evs[i])
		r.Emit(evs[i+1])
		i += 2
		r.Commit()
		dst, seq, _ = r.AppendBinarySince(dst[:0], seq)
	})
	if allocs != 0 {
		t.Errorf("emit, commit and tail: %v allocations, want 0", allocs)
	}
}

// TestRecorderReadsDuringEmit runs one writer that emits and commits
// while readers take exports, tails and struct reads: every read must
// be a committed prefix, and each view's count and bytes must agree.
// Run it under -race.
func TestRecorderReadsDuringEmit(t *testing.T) {
	evs := recEvents(20000, 6, false)
	r := &Recorder{}
	var wg sync.WaitGroup
	done := make(chan struct{})
	committed := map[int]bool{0: true}
	var commitsMu sync.Mutex
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(done)
		rng := rand.New(rand.NewSource(6))
		for i := 0; i < len(evs); {
			k := min(1+rng.Intn(40), len(evs)-i)
			for _, ev := range evs[i : i+k] {
				r.Emit(ev)
			}
			i += k
			commitsMu.Lock()
			committed[i] = true
			commitsMu.Unlock()
			r.Commit()
			runtime.Gosched() // let the readers in between commits
		}
	}()
	isCommit := func(n int) bool {
		commitsMu.Lock()
		defer commitsMu.Unlock()
		return committed[n]
	}
	// same reports whether got holds exactly evs[lo:hi].
	same := func(got []Event, lo, hi int) bool {
		return len(got) == hi-lo && (lo == hi || reflect.DeepEqual(got, evs[lo:hi]))
	}
	for g := 0; g < 3; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			var after uint64
			for finished := false; !finished; {
				select {
				case <-done:
					finished = true // one last round over the whole log
				default:
				}
				switch g {
				case 0: // the events endpoint: one view, count and bytes
					l := r.Log()
					n := l.Len()
					var w bytes.Buffer
					if err := l.WriteBinary(&w); err != nil {
						t.Error(err)
						return
					}
					got, err := ReadBinary(&w)
					if err != nil || !isCommit(n) || !same(got, 0, n) {
						t.Errorf("export of %d events (err %v) is not a committed prefix", n, err)
						return
					}
				case 1: // the replication stream: tails from the last read
					blob, last, n := r.AppendBinarySince(nil, after)
					got, err := ReadBinary(bytes.NewReader(blob))
					if err != nil || len(got) != n || !isCommit(int(last)) || !same(got, int(after), int(last)) {
						t.Errorf("tail after %d up to %d (err %v) is not the committed suffix", after, last, err)
						return
					}
					after = last
				default: // struct reads
					got := r.Events()
					if !isCommit(len(got)) || !same(got, 0, len(got)) {
						t.Errorf("Events read %d events, not a committed prefix", len(got))
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	if r.Len() != len(evs) {
		t.Fatalf("recorded %d events, want %d", r.Len(), len(evs))
	}
}

// FuzzRecorderPublish emits random events with random commit points:
// every committed export must equal AppendBinary of the committed
// events, and at the end AppendBinarySince from every committed Seq
// must give the suffix past it.
func FuzzRecorderPublish(f *testing.F) {
	f.Add(int64(1), uint16(50), uint8(7), false)
	f.Add(int64(2), uint16(1999), uint8(200), true)
	f.Add(int64(3), uint16(1500), uint8(3), false)
	f.Fuzz(func(t *testing.T, seed int64, n uint16, batch uint8, unknown bool) {
		evs := recEvents(int(n%2000), seed, unknown)
		r := &Recorder{}
		rng := rand.New(rand.NewSource(seed))
		commits := []int{0}
		for i := 0; i < len(evs); {
			k := min(1+rng.Intn(int(batch)+1), len(evs)-i)
			for _, ev := range evs[i : i+k] {
				r.Emit(ev)
			}
			i += k
			r.Commit()
			commits = append(commits, i)
			if got := export(t, r.Log()); !bytes.Equal(got, AppendBinary(nil, evs[:i])) {
				t.Fatalf("export of %d committed events differs from AppendBinary", i)
			}
		}
		for _, c := range commits {
			if got, _, m := r.AppendBinarySince(nil, uint64(c)); m != len(evs)-c || !bytes.Equal(got, AppendBinary(nil, evs[c:])) {
				t.Fatalf("AppendBinarySince(%d): %d events differ from AppendBinary of the suffix", c, m)
			}
		}
	})
}
