package main

import (
	"bufio"
	"compress/gzip"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"
)

// span is one timed call into a layer's public function, recorded from
// outside the layer. Allocation and GC deltas are recorded only for
// coarse calls (memSpan); per-operation calls carry times alone, since
// reading the allocator's counters costs more than the call.
type span struct {
	ID      int32  `json:"id"`
	Parent  int32  `json:"parent"`
	Restart int32  `json:"restart"`
	Name    string `json:"name"`
	Start   int64  `json:"start_ns"`
	End     int64  `json:"end_ns"`
	Mem     bool   `json:"mem,omitempty"`
	Allocs  int64  `json:"allocs,omitempty"`
	Bytes   int64  `json:"bytes,omitempty"`
	GCs     int64  `json:"gc_cycles,omitempty"`
	GCPause int64  `json:"gc_pause_ns,omitempty"`
}

func (s *span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer keeps spans in memory until the run ends. A nil *tracer is the
// untraced run: every method is a no-op, so the measured code path is
// the same in both runs apart from the recording itself.
type tracer struct {
	mu      sync.Mutex
	epoch   time.Time
	restart int32
	spans   []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// noParent marks a root span.
const noParent = -1

func (t *tracer) ns(at time.Time) int64 { return int64(at.Sub(t.epoch)) }

// open starts a span that will have children and returns its id.
func (t *tracer) open(name string, parent int32) int32 {
	if t == nil {
		return noParent
	}
	now := time.Now()
	t.mu.Lock()
	defer t.mu.Unlock()
	id := int32(len(t.spans))
	t.spans = append(t.spans, span{ID: id, Parent: parent, Restart: t.restart, Name: name, Start: t.ns(now)})
	return id
}

// close ends a span opened with open.
func (t *tracer) close(id int32) {
	if t == nil {
		return
	}
	now := time.Now()
	t.mu.Lock()
	t.spans[id].End = t.ns(now)
	t.mu.Unlock()
}

// leaf records a finished span with no children.
func (t *tracer) leaf(name string, parent int32, start, end time.Time) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.spans = append(t.spans, span{ID: int32(len(t.spans)), Parent: parent, Restart: t.restart,
		Name: name, Start: t.ns(start), End: t.ns(end)})
	t.mu.Unlock()
}

// memDelta is what the runtime counted across one call.
type memDelta struct {
	allocs, bytes, gcs int64
	gcPause            time.Duration
}

// measureMem runs fn between two runtime.ReadMemStats calls and returns
// its wall time and allocation and GC deltas. The stop-the-world reads
// sit outside the timed interval.
func measureMem(fn func()) (time.Time, time.Time, memDelta) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	fn()
	end := time.Now()
	runtime.ReadMemStats(&after)
	return start, end, memDelta{
		allocs:  int64(after.Mallocs - before.Mallocs),
		bytes:   int64(after.TotalAlloc - before.TotalAlloc),
		gcs:     int64(after.NumGC - before.NumGC),
		gcPause: time.Duration(after.PauseTotalNs - before.PauseTotalNs),
	}
}

// memSpan runs fn under measureMem and records it as a leaf span with
// its allocation and GC deltas. It returns the deltas for callers that
// report them in the untraced run too.
func (t *tracer) memSpan(name string, parent int32, fn func()) (time.Duration, memDelta) {
	start, end, d := measureMem(fn)
	if t != nil {
		t.mu.Lock()
		t.spans = append(t.spans, span{ID: int32(len(t.spans)), Parent: parent, Restart: t.restart,
			Name: name, Start: t.ns(start), End: t.ns(end), Mem: true,
			Allocs: d.allocs, Bytes: d.bytes, GCs: d.gcs, GCPause: int64(d.gcPause)})
		t.mu.Unlock()
	}
	return end.Sub(start), d
}

// layerOf maps a span to the repository module whose work it times.
// The background writer's FlushOne installs a cache page, and FlushLog
// forces the WAL, though both are called through method.DB.
func layerOf(name string) string {
	switch name {
	case "method.FlushOne":
		return "cache"
	case "method.FlushLog":
		return "wal"
	}
	return name[:strings.IndexByte(name, '.')]
}

// layerRow is one line of the per-layer table.
type layerRow struct {
	calls              int
	self               time.Duration
	memCalls           int
	allocs, bytes, gcs int64
	gcPause            time.Duration
}

// selfTimes returns each span's self time: its duration minus the part
// of its interval that its children cover (children of one span may
// overlap, as concurrent serve requests do).
func selfTimes(spans []span) []time.Duration {
	kids := make(map[int32][]int32)
	for i := range spans {
		if p := spans[i].Parent; p != noParent {
			kids[p] = append(kids[p], spans[i].ID)
		}
	}
	out := make([]time.Duration, len(spans))
	for i := range spans {
		s := &spans[i]
		cs := kids[s.ID]
		sort.Slice(cs, func(a, b int) bool { return spans[cs[a]].Start < spans[cs[b]].Start })
		covered, reach := int64(0), s.Start
		for _, c := range cs {
			lo, hi := max(spans[c].Start, reach), min(spans[c].End, s.End)
			if hi > lo {
				covered += hi - lo
				reach = hi
			}
		}
		out[i] = time.Duration(s.End - s.Start - covered)
	}
	return out
}

// layers aggregates spans by layer.
func (t *tracer) layers() map[string]*layerRow {
	self := selfTimes(t.spans)
	rows := make(map[string]*layerRow)
	for i := range t.spans {
		s := &t.spans[i]
		l := layerOf(s.Name)
		r := rows[l]
		if r == nil {
			r = &layerRow{}
			rows[l] = r
		}
		r.calls++
		r.self += self[i]
		if s.Mem {
			r.memCalls++
			r.allocs += s.Allocs
			r.bytes += s.Bytes
			r.gcs += s.GCs
			r.gcPause += time.Duration(s.GCPause)
		}
	}
	return rows
}

// printLayers writes the per-layer table: self time, and for layers
// timed through coarse calls, allocations and GC.
func (t *tracer) printLayers(w io.Writer) {
	rows := t.layers()
	names := make([]string, 0, len(rows))
	for n := range rows {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Fprintf(w, "%-10s %9s %12s %9s %12s %10s %8s %12s\n",
		"layer", "calls", "self_ms", "mem_calls", "allocs", "alloc_MB", "gc", "gc_pause_ms")
	for _, n := range names {
		r := rows[n]
		fmt.Fprintf(w, "%-10s %9d %12.3f %9d %12d %10.3f %8d %12.3f\n", n, r.calls,
			float64(r.self)/1e6, r.memCalls, r.allocs, float64(r.bytes)/1e6, r.gcs, float64(r.gcPause)/1e6)
	}
}

// durations returns the durations of the named spans, in the unit.
func (t *tracer) durations(name string, unit time.Duration) []float64 {
	var out []float64
	for i := range t.spans {
		if t.spans[i].Name == name {
			out = append(out, float64(t.spans[i].dur())/float64(unit))
		}
	}
	return out
}

// allocs returns the allocation counts of the named memory spans.
func (t *tracer) allocs(name string) []float64 {
	var out []float64
	for i := range t.spans {
		if t.spans[i].Name == name && t.spans[i].Mem {
			out = append(out, float64(t.spans[i].Allocs))
		}
	}
	return out
}

// write stores the spans as gzipped JSON lines.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	zw := gzip.NewWriter(f)
	bw := bufio.NewWriter(zw)
	enc := json.NewEncoder(bw)
	for i := range t.spans {
		if err := enc.Encode(&t.spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	if err := zw.Close(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
