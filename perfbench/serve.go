package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"redotheory/internal/method"
	"redotheory/internal/model"
	"redotheory/internal/serve"
	"redotheory/internal/workload"
)

// maxRequests bounds one restart's open loop: at serveRate it is 26 s
// of load, far beyond any restart. minRequests keeps the loop going past
// a quick recovery until it has committed two post-crash writes.
const (
	maxRequests = 1 << 16
	minRequests = 2 * writeEvery
)

// serveResult is what one instant restart under load measured.
type serveResult struct {
	newDur, full, ttfr time.Duration
	loop               time.Duration // handoff to the last request's return
	late               []float64     // µs an idle worker woke after a request was due
	requests           int           // served, whenever due
	// Of the requests due before full recovery only:
	readLat, writeLat []float64 // ms from due time to return
	readSvc, writeSvc []float64 // µs from dispatch to return
	lazy, swept       int64
	attempted, failed int
	cold              bool
}

// sample is one served request.
type sample struct {
	due      time.Duration // offset from the handoff
	lat, svc float64       // ms from due time to return; µs from dispatch to return
	write    bool
}

// worker is one request worker's share of the results.
type worker struct {
	samples           []sample
	late              []float64
	firstRead         time.Duration
	attempted, failed int
}

// schedule hands out the open loop's requests in due order. Request i
// is due i/serveRate after the crash handoff whether or not a worker is
// free: a worker that finishes late takes the overdue requests at once,
// and only a worker with nothing overdue sleeps until the next due time.
type schedule struct {
	mu     sync.Mutex
	next   int
	pick   func() model.Var
	nextID model.OpID
	writes map[model.OpID]*model.Op
	// stopAt is the offset past which no request is due, once min
	// requests have been taken; 0 while unknown.
	stopAt atomic.Int64
	min    int
}

// take returns the next request: its due offset, page, and the write
// to commit (nil for a read); ok is false once the loop is over.
func (s *schedule) take() (due time.Duration, page model.Var, write *model.Op, ok bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.next >= maxRequests {
		return 0, "", nil, false
	}
	due = time.Duration(s.next) * (time.Second / serveRate)
	if st := s.stopAt.Load(); st != 0 && int64(due) > st && s.next >= s.min {
		return 0, "", nil, false
	}
	s.next++
	page = s.pick()
	if s.next%writeEvery == 0 {
		write = model.ReadWrite(s.nextID, "client", []model.Var{page}, []model.Var{page})
		s.writes[s.nextID] = write
		s.nextID++
	}
	return due, page, write, true
}

// serveRestart crashes-and-restarts through serve.New with the sweeper
// on and the crashed DB's WAL continued, while an open loop of Zipfian
// requests (workload.HotZipf) at serveRate is due from the handoff on,
// until the engine has fully recovered plus a tenth of that time, and
// for at least minRequests requests. GOMAXPROCS workers serve them.
// Latencies are kept only for the requests due before full recovery:
// the ones that meet the admission gate, the lazy replays and the
// sweeper. Reads of pages no post-crash write has touched must return the
// oracle value; after Drain the engine state must equal the oracle
// with the committed writes replayed in commit order.
//
// k numbers the restart within its cycle and seeds its requests.
// Restart 0 continues the crashed DB's WAL; the others restart the same
// crash and commit their post-crash writes to a private WAL.
func serveRestart(h *history, db method.DB, tr *tracer, parent int32, k int) (*serveResult, error) {
	rng := rand.New(rand.NewSource(h.seed ^ int64(0x5bf03635+k)))
	sched := &schedule{pick: workload.HotZipf(rng, h.pages), nextID: model.OpID(len(h.ops) + 1), writes: map[model.OpID]*model.Op{}, min: minRequests}
	written := make(map[model.Var]*atomic.Bool, len(h.pages))
	for _, p := range h.pages {
		written[p] = new(atomic.Bool)
	}
	out := &serveResult{}

	opts := serve.Options{Sweeper: true, WAL: db.WAL()}
	if k > 0 {
		opts.WAL = nil
	}
	sv := tr.open("bench.serve", parent)
	t0 := time.Now()
	var eng *serve.Engine
	var err error
	out.cold = coldCheck(func() {
		out.newDur, _ = tr.memSpan("serve.New", sv, func() {
			eng, err = serve.New(db, opts)
		})
	})
	if err != nil {
		return nil, fmt.Errorf("serve.New: %w", err)
	}

	ws := make([]worker, runtime.GOMAXPROCS(0))
	var wg sync.WaitGroup
	for w := range ws {
		wg.Add(1)
		go func(w *worker) {
			defer wg.Done()
			// Idle workers sleep until the next request falls due, and
			// time.Sleep wakes up to a millisecond late. So a request's
			// latency is not taken from the clock at its return, which
			// would charge that lateness to the engine, but from a
			// virtual timeline: the request starts at its due time or
			// when this worker's previous request would have returned
			// (vFree), whichever is later, and takes the service time
			// measured for it. Queueing behind a slow request counts in
			// full.
			var vFree time.Duration
			for {
				due, page, write, ok := sched.take()
				if !ok {
					return
				}
				if due > time.Since(t0) {
					time.Sleep(due - time.Since(t0))
					w.late = append(w.late, float64(time.Since(t0)-due)/1e3)
				}
				w.attempted++
				start := time.Now()
				var v model.Value
				var err error
				if write != nil {
					written[page].Store(true)
					err = eng.Exec(write)
				} else {
					v, err = eng.Read(page)
				}
				end := time.Now()
				svc := end.Sub(start)
				vFree = max(due, vFree) + svc
				w.samples = append(w.samples, sample{due: due, lat: float64(vFree-due) / 1e6, svc: float64(svc) / 1e3, write: write != nil})
				if write != nil {
					tr.leaf("serve.Exec", sv, start, end)
					if err != nil {
						w.failed++
					}
					continue
				}
				tr.leaf("serve.Read", sv, start, end)
				// A write that began after this read returned cannot
				// have been observed by it.
				if err != nil || (!written[page].Load() && v != h.oracle.Get(page)) {
					w.failed++
				} else if w.firstRead == 0 {
					w.firstRead = end.Sub(t0)
				}
			}
		}(&ws[w])
	}
	<-eng.Done()
	out.full = out.newDur + eng.Stats().FullRecovery
	sched.stopAt.Store(int64(out.full + out.full/10))
	wg.Wait()
	out.loop = time.Since(t0)
	tr.close(sv)
	for i := range ws {
		w := &ws[i]
		out.attempted += w.attempted
		out.failed += w.failed
		out.late = append(out.late, w.late...)
		for _, x := range w.samples {
			switch {
			case x.due >= out.full:
			case x.write:
				out.writeLat = append(out.writeLat, x.lat)
				out.writeSvc = append(out.writeSvc, x.svc)
			default:
				out.readLat = append(out.readLat, x.lat)
				out.readSvc = append(out.readSvc, x.svc)
			}
		}
		out.requests += len(w.samples)
		if w.firstRead > 0 && (out.ttfr == 0 || w.firstRead < out.ttfr) {
			out.ttfr = w.firstRead
		}
	}
	// The restart itself: cold, and its outcome checked below.
	out.attempted++
	if !out.cold {
		out.failed++
	}

	start := time.Now()
	derr := eng.Drain()
	tr.leaf("serve.Drain", sv, start, time.Now())
	eng.Close()
	st := eng.Stats()
	out.lazy, out.swept = st.Lazy, st.Swept
	// The engine's state after the drain must be the oracle plus the
	// committed post-crash writes, in commit order.
	res, rerr := eng.Result()
	if derr != nil || rerr != nil || out.ttfr == 0 {
		out.failed++
		return out, nil
	}
	want := h.oracle.Clone()
	for _, id := range eng.Commits() {
		if _, err := want.Apply(sched.writes[id]); err != nil {
			return nil, fmt.Errorf("oracle: applying post-crash write %d: %w", id, err)
		}
	}
	if !res.State.Equal(want) {
		out.failed++
	}
	return out, nil
}
