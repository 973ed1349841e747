package obs

import (
	"fmt"
	"sync"
	"testing"
)

// TestConcurrentEmitTotalOrder is the tracing concurrency property test
// (run under -race in CI): many workers emitting span and point events
// through one recorder must produce a gaplessly sequenced stream whose
// component spans — begun and ended by distinct goroutines' schedules
// interleaving — still reconstruct into the correct causal tree.
func TestConcurrentEmitTotalOrder(t *testing.T) {
	const workers = 8
	const spansPerWorker = 25

	r := New()
	sink := &MemorySink{}
	r.SetSink(sink)
	root := r.StartRootSpan(PhaseRecover, "concurrent property test")
	rootID := root.SpanID()
	replay := r.StartSpanInfo(PhaseReplay, SpanInfo{})
	replayID := replay.SpanID()

	var wg sync.WaitGroup
	for w := 1; w <= workers; w++ {
		wg.Add(1)
		go func(worker int) {
			defer wg.Done()
			for i := 0; i < spansPerWorker; i++ {
				sp := r.StartSpanWith(PhaseComponent, replayID, SpanInfo{
					Comp:   fmt.Sprintf("w%d-c%d", worker, i),
					Worker: worker,
					Size:   i + 1,
				})
				r.Emit(Event{Type: EvAdmit, LSN: int64(i), Worker: worker})
				sp.End()
			}
		}(w)
	}
	wg.Wait()
	replay.End()
	root.End()
	r.SetSink(nil)

	events := sink.Events()
	// trace-begin + recover begin/end + replay begin/end + per worker span
	// begin/end and one point event.
	want := 5 + workers*spansPerWorker*3
	if len(events) != want {
		t.Fatalf("got %d events, want %d", len(events), want)
	}

	// Property 1: the sequence is a gapless total order.
	for i, e := range events {
		if e.Seq != uint64(i+1) {
			t.Fatalf("event %d has seq %d: emission order and sequence diverge", i, e.Seq)
		}
	}

	// Property 2: the stream is well-formed as a span forest.
	if err := CheckSpanNesting(events); err != nil {
		t.Fatal(err)
	}

	// Property 3: every component span reconstructs — one begin and one
	// end with the same id, parented under the replay span, attributed to
	// its worker, begin before end in the total order.
	type spanRec struct {
		begin, end *Event
	}
	comps := map[uint64]*spanRec{}
	for i := range events {
		e := &events[i]
		if e.Phase != PhaseComponent || e.Span == 0 {
			continue
		}
		s := comps[e.Span]
		if s == nil {
			s = &spanRec{}
			comps[e.Span] = s
		}
		switch e.Type {
		case EvSpanBegin:
			if s.begin != nil {
				t.Fatalf("span %d begun twice", e.Span)
			}
			s.begin = e
		case EvSpanEnd:
			if s.end != nil {
				t.Fatalf("span %d ended twice", e.Span)
			}
			s.end = e
		}
	}
	if len(comps) != workers*spansPerWorker {
		t.Fatalf("reconstructed %d component spans, want %d", len(comps), workers*spansPerWorker)
	}
	perWorker := map[int]int{}
	for id, s := range comps {
		if s.begin == nil || s.end == nil {
			t.Fatalf("span %d is missing its begin or end", id)
		}
		if s.begin.Parent != replayID {
			t.Fatalf("span %d parent = %d, want replay span %d", id, s.begin.Parent, replayID)
		}
		if s.begin.Seq >= s.end.Seq {
			t.Fatalf("span %d ends (seq %d) before it begins (seq %d)", id, s.end.Seq, s.begin.Seq)
		}
		if s.begin.Worker < 1 || s.begin.Worker > workers {
			t.Fatalf("span %d attributed to worker %d", id, s.begin.Worker)
		}
		if s.begin.Comp == "" || s.begin.Size == 0 {
			t.Fatalf("span %d lost its attribution: %+v", id, s.begin)
		}
		perWorker[s.begin.Worker]++
	}
	for w := 1; w <= workers; w++ {
		if perWorker[w] != spansPerWorker {
			t.Fatalf("worker %d contributed %d spans, want %d", w, perWorker[w], spansPerWorker)
		}
	}
	if events[0].Type != EvTraceBegin {
		t.Fatalf("stream opens with %s, want %s", events[0].Type, EvTraceBegin)
	}
	if events[1].Span != rootID || events[1].Parent != 0 {
		t.Fatalf("root span event %+v, want span %d with no parent", events[1], rootID)
	}
}

// TestSetSinkResetsAmbient: attaching a sink is a trace boundary — a
// span id stranded on the ambient stack by a panicking recovery must
// not become the parent of the next trace's spans.
func TestSetSinkResetsAmbient(t *testing.T) {
	r := New()
	first := &MemorySink{}
	r.SetSink(first)
	_ = r.StartSpan(PhaseDecide) // never ended, as after a panic
	second := &MemorySink{}
	r.SetSink(second)
	sp := r.StartRootSpan(PhaseRecover, "fresh trace")
	sp.End()
	r.SetSink(nil)

	events := second.Events()
	if events[0].Type != EvTraceBegin {
		t.Fatalf("fresh trace opens with %s, want %s", events[0].Type, EvTraceBegin)
	}
	if events[1].Parent != 0 {
		t.Fatalf("fresh root span inherited stranded parent %d", events[1].Parent)
	}
}
