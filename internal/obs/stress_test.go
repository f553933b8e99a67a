package obs

import (
	"encoding/json"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"
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

// TestHistogramQuantileSchema pins the JSON schema of the histogram
// export: field names, the p50/p95/p99 quantile set, and the derived
// values for a hand-computed distribution.
func TestHistogramQuantileSchema(t *testing.T) {
	h := newHistogram()
	// 100 observations: 90 at 100ns (bucket 6: [64,128)), 9 at 1000ns
	// (bucket 9: [512,1024)), 1 at 100µs (bucket 16: [65536,131072)).
	for i := 0; i < 90; i++ {
		h.Observe(100 * time.Nanosecond)
	}
	for i := 0; i < 9; i++ {
		h.Observe(1000 * time.Nanosecond)
	}
	h.Observe(100 * time.Microsecond)

	st := h.stats()
	if st.P50NS != 128 {
		t.Errorf("p50 = %d, want 128 (upper bound of [64,128))", st.P50NS)
	}
	if st.P90NS != 1024 || st.P95NS != 1024 {
		t.Errorf("p90/p95 = %d/%d, want 1024/1024", st.P90NS, st.P95NS)
	}
	if st.P99NS != 131072 {
		t.Errorf("p99 = %d, want 131072", st.P99NS)
	}
	if st.MinNS != 100 || st.MaxNS != 100000 || st.Count != 100 {
		t.Errorf("min/max/count = %d/%d/%d", st.MinNS, st.MaxNS, st.Count)
	}

	// Pin the exported JSON field names and quantile values: external
	// consumers (docs/OBSERVABILITY.md, integration tests, dashboards)
	// key on these exact names.
	data, err := json.Marshal(st)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		`"count":100`, `"sum_ns":118000`, `"min_ns":100`, `"max_ns":100000`,
		`"mean_ns":1180`, `"p50_ns":128`, `"p90_ns":1024`, `"p95_ns":1024`,
		`"p99_ns":131072`, `"buckets":[`,
	} {
		if !strings.Contains(string(data), want) {
			t.Errorf("histogram JSON missing %s:\n%s", want, data)
		}
	}
}
