package obs

import (
	"encoding/json"
	"fmt"
	"strings"
	"sync"
	"testing"
)

// TestSpanDoubleEndIsNoOp pins the End guard: only the first End of a
// span records, later calls return 0 and add nothing.
func TestSpanDoubleEndIsNoOp(t *testing.T) {
	r := NewRegistry()
	tr := newTracerWithClock(256, fakeClock(10))
	r.AttachTracer(tr)

	sp := r.Span("stage")
	if d := sp.End(); d < 0 {
		t.Errorf("first End returned %v", d)
	}
	for i := 0; i < 3; i++ {
		if d := sp.End(); d != 0 {
			t.Errorf("End #%d returned %v, want 0", i+2, d)
		}
	}
	st := r.Snapshot().Spans["stage"]
	if st.Count != 1 {
		t.Errorf("span count = %d after repeated End, want 1", st.Count)
	}
	if got := len(tr.Events()); got != 1 {
		t.Errorf("%d trace events after repeated End, want 1", got)
	}

	// A deferred End after an explicit End (the common guard pattern
	// in error paths) must also be a no-op.
	func() {
		sp := r.Span("guarded")
		defer sp.End()
		sp.End()
	}()
	if st := r.Snapshot().Spans["guarded"]; st.Count != 1 {
		t.Errorf("guarded span count = %d, want 1", st.Count)
	}
}

// TestSpanMergeStress hammers concurrent same-path span merging (with
// a tracer attached and lanes shared between goroutines) under -race:
// many goroutines repeatedly open and close the same span paths, some
// ending spans twice. Counts must balance exactly.
func TestSpanMergeStress(t *testing.T) {
	r := NewRegistry()
	// Ample capacity: the stress emits ~goroutines*iters*2 events and
	// the wrap path is exercised separately (single-goroutine) in
	// TestTracerRingWrapDropsOldest.
	r.AttachTracer(NewTracer(1 << 17))

	const goroutines = 16
	const iters = 300
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			// Four shared lanes: concurrent registration and concurrent
			// emission on the same lane are both in play.
			lane := r.NewLane(fmt.Sprintf("worker-%d", g%4))
			for i := 0; i < iters; i++ {
				sp := r.SpanOn(lane, "pipeline")
				child := sp.Span("inline")
				child.SetAttrInt("iter", int64(i))
				child.End()
				child.End() // double-End must not double-count
				sp.End()
			}
		}(g)
	}
	wg.Wait()

	snap := r.Snapshot()
	for _, path := range []string{"pipeline", "pipeline/inline"} {
		if got := snap.Spans[path].Count; got != goroutines*iters {
			t.Errorf("span %q count = %d, want %d", path, got, goroutines*iters)
		}
	}
	tr := r.Tracer()
	if want := uint64(2 * goroutines * iters); uint64(len(tr.Events()))+tr.Dropped() != want {
		t.Errorf("events(%d) + dropped(%d) != emitted(%d)", len(tr.Events()), tr.Dropped(), want)
	}
	// Per-lane timestamp monotonicity must survive concurrency.
	var lastStart = map[Lane]int64{}
	for _, ev := range tr.Events() { // sorted by (lane, start)
		if ev.Start < lastStart[ev.Lane] {
			t.Fatalf("lane %d start %d went backwards", ev.Lane, ev.Start)
		}
		lastStart[ev.Lane] = ev.Start
	}
}

// TestChromeTraceWhileTracing exports the trace over and over while
// four goroutines emit instants on their own lanes into a small ring:
// under -race no export may race an emit, every event is either kept
// or counted dropped, and the final export parses.
func TestChromeTraceWhileTracing(t *testing.T) {
	const goroutines, perG = 4, 20_000
	tr := NewTracer(64)
	var wg sync.WaitGroup
	done := make(chan struct{})
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			lane := tr.Lane(fmt.Sprintf("worker-%d", g))
			for i := 0; i < perG; i++ {
				tr.Emit(lane, "tick")
			}
		}(g)
	}
	go func() {
		wg.Wait()
		close(done)
	}()
	var buf strings.Builder
	for exporting := true; exporting; {
		select {
		case <-done:
			exporting = false
		default:
		}
		buf.Reset()
		if err := tr.WriteChromeTrace(&buf); err != nil {
			t.Fatal(err)
		}
	}
	if got := uint64(len(tr.Events())) + tr.Dropped(); got != goroutines*perG {
		t.Errorf("events + dropped = %d, want %d emitted", got, goroutines*perG)
	}
	buf.Reset()
	if err := tr.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var events []chromeEvent
	if err := json.Unmarshal([]byte(buf.String()), &events); err != nil {
		t.Fatalf("final trace is not valid JSON: %v", err)
	}
}
