package main

import (
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"time"

	"redotheory/internal/core"
	"redotheory/internal/method"
	"redotheory/internal/model"
	"redotheory/internal/obs"
	"redotheory/internal/partition"
)

// acc accumulates one run's measurements. A traced run keeps two: one
// for its traced cycles and one for the untraced cycles interleaved
// with them, whose ratio is the tracing overhead.
type acc struct {
	cycles            int
	attempted, failed int
	cold              bool // every timed restart so far was cold

	setup          []float64 // s of untimed work per cycle
	execRate       []float64 // ops/s of the whole ingest loop, per cycle
	execOp         []float64 // µs per Exec call
	logBytesPerOp  []float64
	recovery       []float64 // ms, cold sequential restart
	recoveryPar    []float64 // ms
	recoveryObs    []float64 // ms
	recoveryAllocs []float64 // MB allocated per cold sequential restart
	gcCycles       []float64 // per cold sequential restart
	gcPause        []float64 // ms per cold sequential restart

	ttfr, serveFull, serveNew []float64 // ms
	readLat, writeLat         []float64 // ms from due time
	readSvc, writeSvc         []float64 // µs from dispatch
	late                      []float64 // µs
	lazy, swept               []float64 // components per restart

	// Exact counts, one per cycle.
	logRecords, logBytes, forces, flushSuccess []float64
	examined, admitted, checkpointed           []float64
	components, largest                        []float64
}

func newAcc() *acc { return &acc{cold: true} }

// check counts one verified outcome.
func (a *acc) check(ok bool) {
	a.attempted++
	if !ok {
		a.failed++
	}
}

// runCycle generates one seeded history, executes it through
// method.NewPhysiological under the background schedule (timed),
// crashes, and restarts the crash four ways, each cold and each checked
// against the oracle: method.Recover, method.RecoverParallel and
// method.RecoverObserved with a metrics recorder and flight-recorder
// ring attached (offlineRepeats times each), and serve.New under
// open-loop load (serveRestarts times). Every restart has its own log
// copy. With a tracer it also times the
// recovery stages one call at a time.
func runCycle(s shape, seed int64, cycle int, tr *tracer, a *acc) error {
	if tr != nil {
		tr.restart = int32(cycle)
	}
	begin := time.Now()
	var timed time.Duration
	root := tr.open("bench.cycle", noParent)
	defer tr.close(root)

	h, err := newHistory(s, cycleSeed(seed, cycle))
	if err != nil {
		return err
	}
	db := method.NewPhysiological(h.initial.Clone())
	runtime.GC()

	// The ingest loop: one closed-loop client, the background writer
	// and periodic checkpoints, all timed together.
	rng := rand.New(rand.NewSource(h.seed ^ 0x2545f491))
	ing := tr.open("bench.ingest", root)
	flushCalls := 0
	start := time.Now()
	for i, op := range h.ops {
		t0 := time.Now()
		err := db.Exec(op)
		t1 := time.Now()
		tr.leaf("method.Exec", ing, t0, t1)
		a.execOp = append(a.execOp, float64(t1.Sub(t0))/1e3)
		a.check(err == nil)
		if rng.Float64() < flushProb {
			flushCalls++
			t0 = time.Now()
			db.FlushOne()
			tr.leaf("method.FlushOne", ing, t0, time.Now())
		}
		if (i+1)%forceEvery == 0 {
			t0 = time.Now()
			db.FlushLog()
			tr.leaf("method.FlushLog", ing, t0, time.Now())
		}
		if (i+1)%checkpointEvery == 0 {
			t0 = time.Now()
			err := db.Checkpoint()
			tr.leaf("method.Checkpoint", ing, t0, time.Now())
			a.check(err == nil)
		}
	}
	t0 := time.Now()
	db.FlushLog()
	end := time.Now()
	tr.leaf("method.FlushLog", ing, t0, end)
	tr.close(ing)
	ingest := end.Sub(start)
	timed += ingest
	a.execRate = append(a.execRate, float64(len(h.ops))/ingest.Seconds())
	db.Crash()

	st := db.Stats()
	a.logBytesPerOp = append(a.logBytesPerOp, float64(st.LogBytes)/float64(st.OpsExecuted))
	a.logRecords = append(a.logRecords, float64(st.LogRecords))
	a.logBytes = append(a.logBytes, float64(st.LogBytes))
	a.forces = append(a.forces, float64(st.LogForces))
	a.flushSuccess = append(a.flushSuccess, ratio(float64(st.PageFlushes), float64(flushCalls)))

	// Each restart gets its own never-seen copy of the stable log.
	var cold [3*offlineRepeats + serveRestarts]*coldDB
	for i := range cold {
		if cold[i], err = newColdDB(db); err != nil {
			return err
		}
	}
	verified := func(cold bool, res *core.Result, err error) bool {
		a.cold = a.cold && cold
		return cold && err == nil && res.State.Equal(h.oracle)
	}

	for r := 0; r < offlineRepeats; r++ {
		c := cold[3*r : 3*r+3]
		runtime.GC()
		var seq *core.Result
		var mem memDelta
		var d time.Duration
		ok := coldCheck(func() {
			d, mem = tr.memSpan("method.Recover", root, func() { seq, err = method.Recover(c[0]) })
		})
		timed += d
		a.check(verified(ok, seq, err))
		a.recovery = append(a.recovery, ms(d))
		a.recoveryAllocs = append(a.recoveryAllocs, float64(mem.bytes)/1e6)
		a.gcCycles = append(a.gcCycles, float64(mem.gcs))
		a.gcPause = append(a.gcPause, ms(mem.gcPause))
		if err == nil && r == 0 {
			a.examined = append(a.examined, float64(seq.Examined))
			a.admitted = append(a.admitted, float64(len(seq.Replayed)))
			a.checkpointed = append(a.checkpointed, float64(c[0].log.Len()-seq.Examined))
		}

		runtime.GC()
		var par *method.ParallelResult
		ok = coldCheck(func() {
			d, _ = tr.memSpan("method.RecoverParallel", root, func() {
				par, err = method.RecoverParallel(c[1], method.ParallelOptions{Workers: runtime.GOMAXPROCS(0)})
			})
		})
		timed += d
		if err == nil {
			a.check(verified(ok, par.Result, nil) && seq != nil && par.SameOutcome(seq) == nil)
			if r == 0 {
				a.components = append(a.components, float64(par.Plan.Components))
				a.largest = append(a.largest, float64(par.Plan.Largest))
			}
		} else {
			a.check(false)
		}
		a.recoveryPar = append(a.recoveryPar, ms(d))

		rec := obs.New()
		rec.SetSink(obs.NewFlightRecorder(4096))
		runtime.GC()
		var res *core.Result
		ok = coldCheck(func() {
			d, _ = tr.memSpan("method.RecoverObserved", root, func() { res, err = method.RecoverObserved(c[2], rec) })
		})
		timed += d
		a.check(verified(ok, res, err))
		a.recoveryObs = append(a.recoveryObs, ms(d))
	}

	// The stages run before the serve restart, whose post-crash writes
	// continue the crashed DB's WAL.
	if tr != nil {
		if err := stages(db, tr, root); err != nil {
			return err
		}
	}

	var served, inRecovery int
	var svc []float64
	for k := 0; k < serveRestarts; k++ {
		runtime.GC()
		sr, err := serveRestart(h, cold[3*offlineRepeats+k], tr, root, k)
		if err != nil {
			return err
		}
		timed += sr.loop
		a.cold = a.cold && sr.cold
		a.attempted += sr.attempted
		a.failed += sr.failed
		a.serveNew = append(a.serveNew, ms(sr.newDur))
		a.ttfr = append(a.ttfr, ms(sr.ttfr))
		a.serveFull = append(a.serveFull, ms(sr.full))
		a.readLat = append(a.readLat, sr.readLat...)
		a.writeLat = append(a.writeLat, sr.writeLat...)
		a.readSvc = append(a.readSvc, sr.readSvc...)
		a.writeSvc = append(a.writeSvc, sr.writeSvc...)
		a.late = append(a.late, sr.late...)
		a.lazy = append(a.lazy, float64(sr.lazy))
		a.swept = append(a.swept, float64(sr.swept))
		served += sr.requests
		inRecovery += len(sr.readLat) + len(sr.writeLat)
		svc = append(append(svc, sr.readSvc...), sr.writeSvc...)
	}

	evictViews()
	a.setup = append(a.setup, (time.Since(begin) - timed).Seconds())
	last := func(xs []float64) float64 { return xs[len(xs)-1] }
	fmt.Fprintf(os.Stderr, "cycle %d: %d ops, ingest %.1fms, recover %.2f/%.2f/%.2fms, serve new %.2fms full %.1fms, %d of %d requests due before full recovery (mean service %.1fus), setup %.1fms\n",
		cycle, len(h.ops), ms(ingest), last(a.recovery), last(a.recoveryPar), last(a.recoveryObs),
		last(a.serveNew), last(a.serveFull), inRecovery, served, mean(svc), 1e3*last(a.setup))
	a.cycles++
	return nil
}

// stages times the recovery stages of one restart one public call at a
// time, on a fresh copy of the stable log: the crash handoff, the log
// view build, the redo decision, the partition plan and the page
// indexes the serve engine builds from it.
func stages(db method.DB, tr *tracer, root int32) error {
	stg := tr.open("bench.stages", root)
	defer tr.close(stg)
	var state *model.State
	tr.memSpan("storage.StableState", stg, func() { state = db.StableState() })
	tr.memSpan("wal.StableLog", stg, func() { db.StableLog() })
	log, err := copyLog(db.StableLog())
	if err != nil {
		return err
	}
	var lv *core.LogView
	tr.memSpan("core.NewLogView", stg, func() { lv = core.NewLogView(log) })
	ckpt, redo, analyze := db.Checkpointed(), db.RedoTest(), db.Analyze()
	var dec *core.RedoDecision
	tr.memSpan("core.DecideRedo", stg, func() { dec = core.DecideRedo(state, log, ckpt, redo, analyze) })
	var plan *partition.DensePlan
	tr.memSpan("partition.FromViews", stg, func() { plan = partition.FromViews(lv.Views, dec.ReplayIdx, lv.In.Len()) })
	tr.memSpan("partition.Index", stg, func() {
		plan.WriterIndex(lv.In.Len())
		plan.ReaderIndex(lv.Views, lv.In.Len())
	})
	if plan.Ops != len(dec.Replay) {
		return fmt.Errorf("partition plan schedules %d records, decision admitted %d", plan.Ops, len(dec.Replay))
	}
	return nil
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }
