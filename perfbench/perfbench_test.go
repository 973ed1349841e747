package main

import (
	"encoding/json"
	"os"
	"reflect"
	"testing"
	"time"

	"redotheory/internal/method"
	"redotheory/internal/workload"
)

// small is a configuration that runs in well under a second per cycle.
// It has more than 100 pages so page names, and with them record sizes,
// differ between seeds.
var small = shape{name: "small", gen: workload.HotPage, ops: 1500, pages: 160}

// exactCounts runs two cycles of the small configuration and returns
// the counts that must repeat exactly under one seed.
func exactCounts(t *testing.T, seed int64) map[string]float64 {
	t.Helper()
	a := newAcc()
	for cycle := 0; cycle < 2; cycle++ {
		if err := runCycle(small, seed, cycle, nil, a); err != nil {
			t.Fatal(err)
		}
	}
	if a.failed != 0 || !a.cold {
		t.Fatalf("seed %d: %d of %d checks failed, cold %v", seed, a.failed, a.attempted, a.cold)
	}
	return map[string]float64{
		"log_bytes_per_op":         median(a.logBytesPerOp),
		"wal.log_records":          mean(a.logRecords),
		"core.records_admitted":    mean(a.admitted),
		"partition.components":     mean(a.components),
		"cache.flush_success_frac": mean(a.flushSuccess),
	}
}

func TestExactCountsRepeat(t *testing.T) {
	first, again, other := exactCounts(t, 1), exactCounts(t, 1), exactCounts(t, 2)
	if !reflect.DeepEqual(first, again) {
		t.Errorf("same seed, different counts:\n%v\n%v", first, again)
	}
	for name, v := range first {
		// Every FlushOne follows an Exec that dirtied a page, and a
		// physiological page never waits on another, so every call
		// installs one: the ratio is 1 under any seed.
		if name == "cache.flush_success_frac" {
			if v != 1 {
				t.Errorf("%s = %v, want 1", name, v)
			}
			continue
		}
		if other[name] == v {
			t.Errorf("%s = %v under seeds 1 and 2", name, v)
		}
	}
}

// TestTracedCycle runs one traced cycle and checks that every stage
// and request was recorded under the cycle's root span.
func TestTracedCycle(t *testing.T) {
	tr, a := newTracer(), newAcc()
	if err := runCycle(small, 3, 5, tr, a); err != nil {
		t.Fatal(err)
	}
	if a.failed != 0 || !a.cold {
		t.Fatalf("%d of %d checks failed, cold %v", a.failed, a.attempted, a.cold)
	}
	seen := map[string]int{}
	for _, s := range tr.spans {
		seen[s.Name]++
		if s.Restart != 5 || s.End < s.Start || (s.Parent == noParent) != (s.Name == "bench.cycle") {
			t.Errorf("malformed span %+v", s)
		}
	}
	for _, name := range []string{"method.Exec", "method.FlushOne", "method.FlushLog", "method.Checkpoint",
		"method.Recover", "method.RecoverParallel", "method.RecoverObserved", "storage.StableState",
		"wal.StableLog", "core.NewLogView", "core.DecideRedo", "partition.FromViews", "partition.Index",
		"serve.New", "serve.Read", "serve.Exec", "serve.Drain"} {
		if seen[name] == 0 {
			t.Errorf("no %s span", name)
		}
	}
}

// TestColdCheckFails shows the cold check can fail: a second restart
// from the same log copy finds its view cached.
func TestColdCheckFails(t *testing.T) {
	h, err := newHistory(small, 7)
	if err != nil {
		t.Fatal(err)
	}
	db := method.NewPhysiological(h.initial.Clone())
	for _, op := range h.ops {
		if err := db.Exec(op); err != nil {
			t.Fatal(err)
		}
	}
	db.FlushLog()
	db.Crash()
	c, err := newColdDB(db)
	if err != nil {
		t.Fatal(err)
	}
	for i, want := range []bool{true, false} {
		if got := coldCheck(func() { _, err = method.Recover(c) }); got != want || err != nil {
			t.Fatalf("restart %d: cold %v, want %v (err %v)", i, got, want, err)
		}
	}
}

func TestLabelled(t *testing.T) {
	for _, c := range []struct {
		n    int
		p    float64
		want bool
	}{{20, 99, false}, {999, 99, false}, {1000, 99, true}, {20, 50, true}, {100, 90, true}, {99, 90, false}} {
		if got := labelled(c.n, c.p); got != c.want {
			t.Errorf("labelled(%d, p%g) = %v, want %v", c.n, c.p, got, c.want)
		}
	}
}

func TestSelfTimes(t *testing.T) {
	// A parent [0,100) with two overlapping children [10,40) and
	// [30,60) and one reaching past its end [90,120).
	spans := []span{
		{ID: 0, Parent: noParent, Start: 0, End: 100},
		{ID: 1, Parent: 0, Start: 10, End: 40},
		{ID: 2, Parent: 0, Start: 30, End: 60},
		{ID: 3, Parent: 0, Start: 90, End: 120},
	}
	got := selfTimes(spans)
	want := []time.Duration{40, 30, 30, 30}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("self times %v, want %v", got, want)
	}
}

// TestMetricsMatchBenchmarkJSON keeps the printed metric names and
// units in step with the benchmark's declaration.
func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var decl struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &decl); err != nil {
		t.Fatal(err)
	}
	names := func(ms []metric) [][2]string {
		var out [][2]string
		for _, m := range ms {
			out = append(out, [2]string{m.name, m.unit})
		}
		return out
	}
	declared := func(ds []struct{ Name, Unit string }) [][2]string {
		var out [][2]string
		for _, d := range ds {
			out = append(out, [2]string{d.Name, d.Unit})
		}
		return out
	}
	r := &runResult{u: newAcc(), t: newAcc(), tr: newTracer()}
	if got, want := names(endToEnd(r.u)), declared(decl.EndToEnd); !reflect.DeepEqual(got, want) {
		t.Errorf("end-to-end metrics\n got %v\nwant %v", got, want)
	}
	if got, want := names(r.perLayer()), declared(decl.PerLayer); !reflect.DeepEqual(got, want) {
		t.Errorf("per-layer metrics\n got %v\nwant %v", got, want)
	}
}
