package experiments

import (
	"fmt"
	"testing"

	"impact/internal/cache"
	"impact/internal/obs"
	"impact/internal/workload"
)

// section renders one section of s: f measures it, render formats it.
func section[R any](s *Suite, f func(*Suite) (R, error), render func(R) string) func() (string, error) {
	return func() (string, error) {
		rows, err := f(s)
		if err != nil {
			return "", err
		}
		return render(rows), nil
	}
}

// simulateEach is the naive measureAll: every request through
// cache.Simulate, one at a time, in program order, bypassing the
// suite's engine.
func simulateEach(_ *Engine, reqs [][]SimRequest) ([][]cache.Stats, error) {
	out := make([][]cache.Stats, len(reqs))
	for i, prog := range reqs {
		for _, rq := range prog {
			st, err := cache.Simulate(rq.Config, rq.Trace)
			if err != nil {
				return nil, err
			}
			out[i] = append(out[i], st)
		}
	}
	return out, nil
}

// TestSectionsMatchPerRequestSimulate is the referee of the sweep
// engine under the sections. Every section that measures through
// measureSection renders the same text with its requests measured in
// one engine batch as with measureAll replaced by per-request
// cache.Simulate, and each call opens exactly one sweep/batch span and
// one build/benchmark span per program. E5 is left out: it prepares
// its own twelve programs.
func TestSectionsMatchPerRequestSimulate(t *testing.T) {
	reg := obs.NewRegistry()
	s, err := PrepareBenchmarksWith(workload.Suite(0.05)[:3], Options{Obs: reg})
	if err != nil {
		t.Fatal(err)
	}
	global := func(s *Suite) ([2]float64, error) {
		with, without, err := AblationGlobal(s)
		return [2]float64{with, without}, err
	}
	sections := []struct {
		name   string
		render func() (string, error)
	}{
		{"Table 1", section(s, Table1, RenderTable1)},
		{"Table 6", section(s, Table6, RenderTable6)},
		{"Table 7", section(s, Table7, RenderTable7)},
		{"Table 8", section(s, Table8, RenderTable8)},
		{"Table 9", section(s, Table9, RenderTable9)},
		{"A1", section(s, AblationLayout, RenderAblationLayout)},
		{"A2", section(s, AblationAssoc, RenderAblationAssoc)},
		{"A3", section(s, AblationMinProb, RenderAblationMinProb)},
		{"A4", section(s, global, func(m [2]float64) string { return fmt.Sprint(m) })},
		{"A5", section(s, AblationReplacement, RenderAblationReplacement)},
		{"A6", section(s, AblationGlobalAlgo, RenderAblationGlobalAlgo)},
		{"E1", section(s, ExtTiming, RenderExtTiming)},
		{"E3", section(s, ExtPrefetch, RenderExtPrefetch)},
		{"bound check", section(s, BoundCheck, RenderBoundCheck)},
	}
	spans := func(name string) uint64 { return reg.Snapshot().Spans[name].Count }
	engine := make([]string, len(sections))
	for i, sec := range sections {
		batches, builds := spans("sweep/batch"), spans("build/benchmark")
		out, err := sec.render()
		if err != nil {
			t.Fatalf("%s: %v", sec.name, err)
		}
		engine[i] = out
		if got := spans("sweep/batch") - batches; got != 1 {
			t.Errorf("%s opened %d sweep/batch spans, want 1", sec.name, got)
		}
		if got, want := spans("build/benchmark")-builds, uint64(len(s.Items)); got != want {
			t.Errorf("%s opened %d build/benchmark spans, want %d", sec.name, got, want)
		}
	}

	batched := measureAll
	measureAll = simulateEach
	t.Cleanup(func() { measureAll = batched })
	for i, sec := range sections {
		naive, err := sec.render()
		if err != nil {
			t.Fatalf("%s per request: %v", sec.name, err)
		}
		if naive != engine[i] {
			t.Errorf("%s: engine batch\n%s\nper-request cache.Simulate\n%s", sec.name, engine[i], naive)
		}
	}
}
