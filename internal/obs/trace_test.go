package obs

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"testing"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite golden trace files")

// fakeClock returns a clock stepping by step nanoseconds per call,
// starting at 0.
func fakeClock(step int64) func() int64 {
	var t int64 = -step
	return func() int64 {
		t += step
		return t
	}
}

// buildFixtureTrace records a small deterministic trace: a pipeline on
// the main lane, two worker lanes with overlapping task spans, and an
// instant event.
func buildFixtureTrace() (*Registry, *Tracer) {
	r := NewRegistry()
	tr := newTracerWithClock(1024, fakeClock(1000)) // 1µs per clock read
	r.AttachTracer(tr)

	pipe := r.Span("pipeline")
	inline := pipe.Span("inline")
	inline.SetAttr("benchmark", "wc")
	inline.SetAttrInt("sites", 7)
	inline.End()
	w0 := r.NewLane("sweep-worker-0")
	w1 := r.NewLane("sweep-worker-1")
	t0 := r.SpanOn(w0, "sweep/task")
	t0.SetAttr("kind", "replay")
	t1 := r.SpanOn(w1, "sweep/task")
	t1.SetAttr("kind", "stack")
	r.Emit(0, "sweep/sim", Attr{Key: "memo", Val: "hit"})
	t1.End()
	t0.End()
	pipe.End()
	return r, tr
}

func TestChromeTraceGolden(t *testing.T) {
	_, tr := buildFixtureTrace()
	var buf bytes.Buffer
	if err := tr.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	golden := filepath.Join("testdata", "chrome_trace.golden.json")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("missing golden file (run with -update-golden): %v", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Errorf("chrome trace differs from golden:\n--- got ---\n%s\n--- want ---\n%s", buf.Bytes(), want)
	}
}

// chromeEvent mirrors the Chrome trace-event JSON schema closely
// enough to validate emitted traces as a consumer (Perfetto) would.
type chromeEvent struct {
	Ph   string            `json:"ph"`
	Pid  int               `json:"pid"`
	Tid  int               `json:"tid"`
	Name string            `json:"name"`
	Cat  string            `json:"cat"`
	TS   float64           `json:"ts"`
	Dur  float64           `json:"dur"`
	Args map[string]string `json:"args"`
}

func TestChromeTraceValidAndMonotonicPerLane(t *testing.T) {
	_, tr := buildFixtureTrace()
	var buf bytes.Buffer
	if err := tr.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var events []chromeEvent
	if err := json.Unmarshal(buf.Bytes(), &events); err != nil {
		t.Fatalf("emitted trace is not valid JSON: %v\n%s", err, buf.String())
	}

	lanes := map[int]string{}
	lastTS := map[int]float64{}
	var spans, instants int
	for _, ev := range events {
		switch ev.Ph {
		case "M":
			if ev.Name == "thread_name" {
				lanes[ev.Tid] = ev.Args["name"]
			}
		case "X", "i":
			if ev.Ph == "X" {
				spans++
			} else {
				instants++
			}
			if ev.TS < lastTS[ev.Tid] {
				t.Errorf("lane %d: timestamp %v before %v (not monotonic)", ev.Tid, ev.TS, lastTS[ev.Tid])
			}
			lastTS[ev.Tid] = ev.TS
			if _, ok := lanes[ev.Tid]; !ok {
				t.Errorf("event %q on unnamed lane %d", ev.Name, ev.Tid)
			}
		default:
			t.Errorf("unexpected phase %q", ev.Ph)
		}
	}
	if spans != 4 || instants != 1 {
		t.Errorf("got %d span + %d instant events, want 4 + 1", spans, instants)
	}
	for _, want := range []string{"main", "sweep-worker-0", "sweep-worker-1"} {
		found := false
		for _, name := range lanes {
			if name == want {
				found = true
			}
		}
		if !found {
			t.Errorf("lane %q missing from thread_name metadata; have %v", want, lanes)
		}
	}
	// The parent pipeline span must enclose its inline child.
	byName := map[string]chromeEvent{}
	for _, ev := range events {
		if ev.Ph == "X" {
			byName[ev.Name] = ev
		}
	}
	pipe, inline := byName["pipeline"], byName["pipeline/inline"]
	if inline.TS < pipe.TS || inline.TS+inline.Dur > pipe.TS+pipe.Dur {
		t.Errorf("child [%v,%v] not enclosed by parent [%v,%v]",
			inline.TS, inline.TS+inline.Dur, pipe.TS, pipe.TS+pipe.Dur)
	}
	if inline.Args["benchmark"] != "wc" || inline.Args["sites"] != "7" {
		t.Errorf("span attributes not exported: %v", inline.Args)
	}
}

func TestChromeTraceDeterministic(t *testing.T) {
	render := func() string {
		_, tr := buildFixtureTrace()
		var buf bytes.Buffer
		if err := tr.WriteChromeTrace(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.String()
	}
	a, b := render(), render()
	if a != b {
		t.Errorf("two identical runs produced different traces:\n%s\n---\n%s", a, b)
	}
}

func TestTracerRingWrapDropsOldest(t *testing.T) {
	tr := newTracerWithClock(4, fakeClock(1))
	const emitted = 50
	for i := 0; i < emitted; i++ {
		tr.Emit(0, "e", Int64Attr("i", int64(i)))
	}
	events := tr.Events()
	if len(events) != 4 {
		t.Fatalf("got %d events after wrap, want 4 (ring capacity)", len(events))
	}
	// The survivors must be the newest four, in order.
	for j, ev := range events {
		want := int64(emitted - 4 + j)
		if got := ev.Attrs[0].Val; got != Int64Attr("i", want).Val {
			t.Errorf("event %d = i=%s, want i=%d", j, got, want)
		}
	}
	if d := tr.Dropped(); d != emitted-4 {
		t.Errorf("Dropped = %d, want %d", d, emitted-4)
	}
}

func TestNilTracerAndDetachedRegistry(t *testing.T) {
	var tr *Tracer
	tr.Emit(0, "x")
	if tr.Lane("w") != 0 || tr.Events() != nil || tr.Dropped() != 0 || tr.LaneNames() != nil {
		t.Error("nil tracer not inert")
	}
	var buf bytes.Buffer
	if err := tr.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var events []chromeEvent
	if err := json.Unmarshal(buf.Bytes(), &events); err != nil || len(events) != 0 {
		t.Errorf("nil tracer chrome output not an empty array: %q err=%v", buf.String(), err)
	}

	// A registry without a tracer records span stats but no events.
	r := NewRegistry()
	sp := r.SpanOn(r.NewLane("worker"), "work")
	sp.SetAttr("k", "v") // must not panic or allocate events
	sp.End()
	r.Emit(0, "e")
	if r.Tracer() != nil {
		t.Error("detached registry has a tracer")
	}
	if got := r.Snapshot().Spans["work"].Count; got != 1 {
		t.Errorf("span stats lost without tracer: count=%d", got)
	}

	// Nil registry: the whole lane/span/emit surface is a no-op.
	var nr *Registry
	nr.AttachTracer(NewTracer(16))
	nr.Emit(nr.NewLane("w"), "e")
	nsp := nr.SpanOn(1, "x")
	nsp.SetAttrInt("k", 1)
	if nsp.End() != 0 {
		t.Error("nil registry span End != 0")
	}
}

func TestLaneRegistrationIsStable(t *testing.T) {
	tr := NewTracer(64)
	a := tr.Lane("sweep-worker-0")
	b := tr.Lane("sweep-worker-1")
	if a == b {
		t.Fatal("distinct names share a lane")
	}
	if tr.Lane("sweep-worker-0") != a {
		t.Error("re-registration moved the lane")
	}
	names := tr.LaneNames()
	if len(names) != 3 || names[0] != "main" || names[int(a)] != "sweep-worker-0" {
		t.Errorf("lane names = %v", names)
	}
}
