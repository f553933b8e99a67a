package obs

import (
	"bytes"
	"encoding/json"
	"math"
	"strings"
	"sync"
	"testing"
)

func TestCounterConcurrent(t *testing.T) {
	r := NewRegistry()
	const goroutines, perG = 16, 10_000
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := r.Counter("hits") // registration races on purpose
			for i := 0; i < perG; i++ {
				c.Inc()
			}
			r.Counter("bulk").Add(perG)
		}()
	}
	wg.Wait()
	if got := r.Counter("hits").Value(); got != goroutines*perG {
		t.Errorf("hits = %d, want %d", got, goroutines*perG)
	}
	if got := r.Counter("bulk").Value(); got != goroutines*perG {
		t.Errorf("bulk = %d, want %d", got, goroutines*perG)
	}
}

func TestGauge(t *testing.T) {
	r := NewRegistry()
	g := r.Gauge("util")
	g.Set(0.75)
	if v := g.Value(); v != 0.75 {
		t.Errorf("gauge = %v, want 0.75", v)
	}
	g.Set(math.Pi)
	if v := r.Gauge("util").Value(); v != math.Pi {
		t.Errorf("gauge = %v, want pi", v)
	}
}

func TestSpanNesting(t *testing.T) {
	r := NewRegistry()
	root := r.Span("pipeline")
	for i := 0; i < 3; i++ {
		child := root.Span("inline")
		grand := child.Span("clone")
		grand.End()
		child.End()
	}
	root.End()

	s := r.Snapshot()
	for path, count := range map[string]uint64{
		"pipeline":              1,
		"pipeline/inline":       3,
		"pipeline/inline/clone": 3,
	} {
		st, ok := s.Spans[path]
		if !ok {
			t.Fatalf("span %q missing; have %v", path, sortedKeys(s.Spans))
		}
		if st.Count != count {
			t.Errorf("span %q count = %d, want %d", path, st.Count, count)
		}
		if st.TotalNS < 0 {
			t.Errorf("span %q total %d < 0", path, st.TotalNS)
		}
	}
	// Children nest within the parent's duration.
	if s.Spans["pipeline/inline"].TotalNS > s.Spans["pipeline"].TotalNS {
		t.Errorf("child total %d exceeds parent total %d",
			s.Spans["pipeline/inline"].TotalNS, s.Spans["pipeline"].TotalNS)
	}
}

func TestSpanConcurrentMerge(t *testing.T) {
	r := NewRegistry()
	const goroutines = 12
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sp := r.Span("pipeline").Span("profile")
			sp.End()
		}()
	}
	wg.Wait()
	if got := r.Snapshot().Spans["pipeline/profile"].Count; got != goroutines {
		t.Errorf("merged span count = %d, want %d", got, goroutines)
	}
}

func TestNilRegistryIsNoOp(t *testing.T) {
	var r *Registry
	r.Counter("x").Add(5)
	r.Counter("x").Inc()
	r.Gauge("y").Set(1)
	sp := r.Span("a").Span("b")
	if sp.End() != 0 {
		t.Error("nil span End != 0")
	}
	if sp.Path() != "" {
		t.Error("nil span has a path")
	}
	if r.Counter("x").Value() != 0 || r.Gauge("y").Value() != 0 {
		t.Error("nil registry retained values")
	}
	s := r.Snapshot()
	if len(s.Counters)+len(s.Gauges)+len(s.Spans) != 0 {
		t.Error("nil registry snapshot not empty")
	}
	var buf bytes.Buffer
	if err := r.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
}

func TestJSONDeterministic(t *testing.T) {
	build := func() *Registry {
		r := NewRegistry()
		// Register in scrambled orders; output must not care.
		for _, name := range []string{"zeta", "alpha", "mid"} {
			r.Counter(name).Add(7)
		}
		r.Gauge("g2").Set(2)
		r.Gauge("g1").Set(1)
		sp := r.Span("pipeline")
		sp.Span("inline") // started, never ended: count 0 but registered
		sp.End()
		return r
	}
	// Durations differ between builds, so compare structure: key order
	// and counter/gauge values.
	var a, b bytes.Buffer
	if err := build().WriteJSON(&a); err != nil {
		t.Fatal(err)
	}
	if err := build().WriteJSON(&b); err != nil {
		t.Fatal(err)
	}
	norm := func(s string) string {
		var snap Snapshot
		if err := json.Unmarshal([]byte(s), &snap); err != nil {
			t.Fatal(err)
		}
		for k, v := range snap.Spans {
			v.TotalNS, v.MeanNS = 0, 0
			snap.Spans[k] = v
		}
		out, err := json.Marshal(snap)
		if err != nil {
			t.Fatal(err)
		}
		return string(out)
	}
	if norm(a.String()) != norm(b.String()) {
		t.Errorf("snapshots differ:\n%s\n---\n%s", a.String(), b.String())
	}
	if got := a.String(); !strings.Contains(got, "\"schema\": \"impact.metrics/v2\"") {
		t.Errorf("JSON missing schema marker:\n%s", got)
	}
	// Counters must appear in sorted key order in the raw bytes.
	ia, im, iz := strings.Index(a.String(), "\"alpha\""), strings.Index(a.String(), "\"mid\""), strings.Index(a.String(), "\"zeta\"")
	if !(ia < im && im < iz) {
		t.Errorf("counter keys not sorted: alpha@%d mid@%d zeta@%d", ia, im, iz)
	}
}

func TestWriteText(t *testing.T) {
	r := NewRegistry()
	r.Counter("cache.misses").Add(3)
	r.Gauge("prepare.worker_utilization").Set(0.9)
	sp := r.Span("pipeline")
	c := sp.Span("profile")
	c.End()
	sp.End()
	var buf bytes.Buffer
	if err := r.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"spans:", "pipeline", "profile", "cache.misses", "prepare.worker_utilization"} {
		if !strings.Contains(out, want) {
			t.Errorf("text output missing %q:\n%s", want, out)
		}
	}
}
