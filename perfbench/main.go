// Command perfbench is the repository's benchmark. It crashes seeded
// histories, restarts each crash cold through the public recovery entry
// points (method.Recover, method.RecoverParallel, method.RecoverObserved
// and serve.New under open-loop load), checks every outcome against an
// oracle, and prints every metric by name and unit:
//
//	go run . --workload bare-restart --seed 1 --seconds 20 --trace 0
//
// It is normally run through run.sh from the repository root, which
// builds it first. With --trace 0 it prints the end-to-end metrics.
// With --trace 1 it alternates untraced cycles with cycles that record a
// span around every public call, prints the per-layer metrics, a
// per-layer table and the tracing overhead, and writes the spans to
// .bench_build/trace-<workload>.jsonl.gz.
//
// The last line of standard output is one JSON object: correct,
// attempted, failed and metrics. The exit code is non-zero when any
// check fails.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

// metric is one reported number.
type metric struct {
	name, unit string
	value      float64
	detail     string
}

type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]jsonMetric `json:"metrics"`
}

func main() {
	name := flag.String("workload", "", "workload: bare-restart, heavy-restart or instant-restart")
	seed := flag.Int64("seed", 1, "workload seed")
	seconds := flag.Int("seconds", 20, "how long to measure")
	trace := flag.Int("trace", 0, "1 for the traced per-layer run")
	flag.Parse()
	s, ok := shapes[*name]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "usage: perfbench --workload bare-restart|heavy-restart|instant-restart --seed N --seconds N --trace 0|1")
		os.Exit(2)
	}
	runtime.GOMAXPROCS(min(runtime.NumCPU(), 2))
	fmt.Printf("workload %s seed %d seconds %d trace %d gomaxprocs %d\n", s.name, *seed, *seconds, *trace, runtime.GOMAXPROCS(0))

	r, err := run(s, *seed, time.Duration(*seconds)*time.Second, *trace == 1)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	var ms []metric
	if *trace == 1 {
		ms = r.perLayer()
		r.tr.printLayers(os.Stdout)
		path := filepath.Join(".bench_build", "trace-"+s.name+".jsonl.gz")
		if err := r.tr.write(path); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench: writing spans:", err)
			os.Exit(1)
		}
		fmt.Printf("wrote %d spans to %s\n", len(r.tr.spans), path)
	} else {
		ms = endToEnd(r.u)
	}
	out := result{Correct: r.correct(), Attempted: r.attempted(), Failed: r.failed(), Metrics: map[string]jsonMetric{}}
	for _, m := range ms {
		fmt.Printf("%-40s %14.6g %-6s %s\n", m.name, m.value, m.unit, m.detail)
		if math.IsNaN(m.value) || math.IsInf(m.value, 0) {
			fmt.Fprintf(os.Stderr, "perfbench: metric %s has no value\n", m.name)
			os.Exit(1)
		}
		out.Metrics[m.name] = jsonMetric{Value: m.value, Unit: m.unit}
	}
	fmt.Printf("cycles %d (untraced %d, traced %d); every timed restart cold: %v\n",
		r.u.cycles+r.t.cycles, r.u.cycles, r.t.cycles, r.u.cold && r.t.cold)
	line, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !out.Correct {
		os.Exit(1)
	}
}

// runResult is a finished run: the untraced cycles (u), the traced
// cycles (t, empty unless traced) and their spans.
type runResult struct {
	u, t *acc
	tr   *tracer
}

func (r *runResult) attempted() int { return r.u.attempted + r.t.attempted }
func (r *runResult) failed() int    { return r.u.failed + r.t.failed }
func (r *runResult) correct() bool  { return r.failed() == 0 && r.u.cold && r.t.cold }

// run measures cycles until the time is up and, in a traced run, every
// p99 has enough samples. The first cycle warms the process up: its
// outcomes are checked but its timings are dropped. A traced run
// alternates untraced and traced cycles.
func run(s shape, seed int64, d time.Duration, traced bool) (*runResult, error) {
	r := &runResult{u: newAcc(), t: newAcc()}
	if traced {
		r.tr = newTracer()
	}
	warm := newAcc()
	if err := runCycle(s, seed, 0, nil, warm); err != nil {
		return nil, err
	}
	r.u.attempted, r.u.failed, r.u.cold = warm.attempted, warm.failed, warm.cold
	begin := time.Now()
	limit := min(3*d, 150*time.Second)
	for cycle := 1; ; cycle++ {
		a, tr := r.u, (*tracer)(nil)
		if traced && cycle%2 == 0 {
			a, tr = r.t, r.tr
		}
		if err := runCycle(s, seed, cycle, tr, a); err != nil {
			return nil, err
		}
		elapsed := time.Since(begin)
		if elapsed >= d && r.enough(traced) {
			return r, nil
		}
		if elapsed >= limit {
			return nil, errors.New("too few samples to label every percentile within the time limit")
		}
	}
}

// enough reports whether every tail percentile the run reports has
// minBeyond samples beyond it. Only the traced run reports them. Writes
// are a tenth of the requests, so theirs is a p90.
func (r *runResult) enough(traced bool) bool {
	if !traced {
		return true
	}
	for _, c := range []struct {
		xs []float64
		p  float64
	}{{r.u.execOp, 99}, {r.u.readLat, 99}, {r.t.readSvc, 99}, {r.u.writeLat, 90}, {r.t.writeSvc, 90}, {r.u.late, 99}, {r.t.late, 99}} {
		if !labelled(len(c.xs), c.p) {
			return false
		}
	}
	return true
}

func med(name, unit string, xs []float64) metric {
	return metric{name, unit, median(xs), tail(xs)}
}

func pct(name, unit string, xs []float64, p float64) metric {
	return metric{name, unit, quantile(xs, p), fmt.Sprintf("median=%.4g %s", median(xs), tail(xs))}
}

// endToEnd computes the end-to-end metrics of one accumulator.
func endToEnd(a *acc) []metric {
	return []metric{
		med("setup_s", "s", a.setup),
		med("exec_ops_per_s", "1/s", a.execRate),
		med("exec_op_us_p50", "us", a.execOp),
		med("log_bytes_per_op", "bytes", a.logBytesPerOp),
		med("recovery_ms", "ms", a.recovery),
		med("recovery_par_ms", "ms", a.recoveryPar),
		med("recovery_obs_ms", "ms", a.recoveryObs),
		med("recovery_alloc_mb", "MB", a.recoveryAllocs),
		med("ttfr_ms", "ms", a.ttfr),
		med("serve_full_ms", "ms", a.serveFull),
	}
}

// timings lists the end-to-end metrics that are timings, for the
// tracing overhead.
var timings = map[string]bool{
	"exec_ops_per_s": true, "exec_op_us_p50": true, "recovery_ms": true,
	"recovery_par_ms": true, "recovery_obs_ms": true, "ttfr_ms": true,
	"serve_full_ms": true,
}

// perLayer computes the traced run's per-layer metrics.
func (r *runResult) perLayer() []metric {
	u, t, tr := r.u, r.t, r.tr
	both := func(f func(*acc) []float64) []float64 { return append(append([]float64(nil), f(u)...), f(t)...) }
	sum := func(xs []float64) float64 {
		s := 0.0
		for _, x := range xs {
			s += x
		}
		return s
	}
	count := func(name, unit string, f func(*acc) []float64) metric {
		xs := both(f)
		return metric{name, unit, mean(xs), fmt.Sprintf("mean of %d cycles", len(xs))}
	}
	span := func(name, unit, call string, scale time.Duration) metric {
		return med(name, unit, tr.durations(call, scale))
	}
	allocs := func(name, call string) metric { return med(name, "count", tr.allocs(call)) }

	handoff := []metric{
		span("storage.stable_state_ms", "ms", "storage.StableState", time.Millisecond),
		span("wal.stable_log_ms", "ms", "wal.StableLog", time.Millisecond),
		span("core.view_ms", "ms", "core.NewLogView", time.Millisecond),
		span("core.decide_ms", "ms", "core.DecideRedo", time.Millisecond),
	}
	replay := median(t.recovery)
	for _, m := range handoff {
		replay -= m.value
	}
	admitted, examined := sum(both(func(a *acc) []float64 { return a.admitted })), sum(both(func(a *acc) []float64 { return a.examined }))
	lazy, swept := sum(t.lazy), sum(t.swept)
	ms := []metric{
		span("cache.flush_one_us", "us", "method.FlushOne", time.Microsecond),
		count("cache.flush_success_frac", "ratio", func(a *acc) []float64 { return a.flushSuccess }),
		count("wal.forces", "count", func(a *acc) []float64 { return a.forces }),
		span("method.checkpoint_us", "us", "method.Checkpoint", time.Microsecond),
		span("method.flush_log_us", "us", "method.FlushLog", time.Microsecond),
		count("wal.log_records", "count", func(a *acc) []float64 { return a.logRecords }),
		count("wal.log_bytes", "bytes", func(a *acc) []float64 { return a.logBytes }),
		handoff[0], handoff[1], handoff[2],
		allocs("core.view_allocs", "core.NewLogView"),
		handoff[3],
		allocs("core.decide_allocs", "core.DecideRedo"),
		span("partition.plan_ms", "ms", "partition.FromViews", time.Millisecond),
		allocs("partition.plan_allocs", "partition.FromViews"),
		{"runtime.gc_cycles", "count", mean(t.gcCycles), "mean per cold sequential restart"},
		{"runtime.gc_pause_ms", "ms", mean(t.gcPause), "mean per cold sequential restart"},
		{"core.replay_ms", "ms", replay, "derived: cold sequential restart minus handoff, view and decide medians"},
		count("core.records_examined", "count", func(a *acc) []float64 { return a.examined }),
		count("core.records_admitted", "count", func(a *acc) []float64 { return a.admitted }),
		count("core.records_checkpointed", "count", func(a *acc) []float64 { return a.checkpointed }),
		{"core.redo_selectivity", "ratio", ratio(admitted, examined), "admitted / examined"},
		count("partition.components", "count", func(a *acc) []float64 { return a.components }),
		count("partition.largest", "count", func(a *acc) []float64 { return a.largest }),
		{"method.parallel_speedup", "ratio", ratio(median(u.recovery), median(u.recoveryPar)), "recovery_ms / recovery_par_ms, untraced cycles"},
		{"obs.overhead", "ratio", ratio(median(u.recoveryObs), median(u.recovery)), "recovery_obs_ms / recovery_ms, untraced cycles"},
		med("serve.new_ms", "ms", t.serveNew),
		span("partition.index_ms", "ms", "partition.Index", time.Millisecond),
		med("serve.read_service_us_p50", "us", t.readSvc),
		pct("serve.read_service_us_p99", "us", t.readSvc, 99),
		pct("serve.write_service_us_p90", "us", t.writeSvc, 90),
		{"serve.lazy_components", "count", mean(t.lazy), "mean per restart"},
		{"serve.swept_components", "count", mean(t.swept), "mean per restart"},
		{"serve.lazy_frac", "ratio", ratio(lazy, lazy+swept), "lazy / (lazy + swept)"},
		pct("exec_op_us_p99", "us", u.execOp, 99),
		med("serve_read_ms_p50", "ms", u.readLat),
		pct("serve_read_ms_p99", "ms", u.readLat, 99),
		pct("serve_write_ms_p90", "ms", u.writeLat, 90),
		pct("bench.generator_late_us_p99", "us", both(func(a *acc) []float64 { return a.late }), 99),
		{"failed_frac", "ratio", ratio(float64(r.failed()), float64(r.attempted())), fmt.Sprintf("%d of %d", r.failed(), r.attempted())},
	}
	// Tracing overhead: each end-to-end timing on the traced cycles over
	// the same timing on the untraced ones (a time ratio, so throughput
	// is inverted); above 1 means tracing slowed it.
	ut, tt := endToEnd(u), endToEnd(t)
	for i, m := range ut {
		if !timings[m.name] {
			continue
		}
		v := ratio(tt[i].value, m.value)
		if m.name == "exec_ops_per_s" {
			v = ratio(m.value, tt[i].value)
		}
		ms = append(ms, metric{"bench.trace_overhead." + m.name, "ratio", v, "traced / untraced"})
	}
	return ms
}
