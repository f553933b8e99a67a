package experiments

import (
	"fmt"
	"testing"

	"impact/internal/cache"
	"impact/internal/obs"
	"impact/internal/workload"
)

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
// engine under the sections. Every section of the report, and A4 and
// the bound check, which it does not print, renders the same text
// with its requests measured in one engine batch as with measureAll
// replaced by per-request cache.Simulate, and each call that opens a
// sweep/batch span opens exactly one, and one build/benchmark span per
// program. E5 is left out: it prepares its own twelve programs.
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
	sections := append(append([]Section(nil), Tables...), Ablations...)
	for _, sec := range Extensions(0.05, Options{}) {
		if sec.Name != "ext-extended" {
			sections = append(sections, sec)
		}
	}
	sections = append(sections,
		section("A4", global, func(m [2]float64) string { return fmt.Sprint(m) }),
		section("bound check", BoundCheck, RenderBoundCheck),
	)
	spans := func(name string) uint64 { return reg.Snapshot().Spans[name].Count }
	engine := make([]string, len(sections))
	for i, sec := range sections {
		batches, builds := spans("sweep/batch"), spans("build/benchmark")
		out, err := sec.Run(s)
		if err != nil {
			t.Fatalf("%s: %v", sec.Name, err)
		}
		engine[i] = out
		batches, builds = spans("sweep/batch")-batches, spans("build/benchmark")-builds
		if batches == 0 && builds == 0 {
			continue // the section measures without the engine
		}
		if batches != 1 {
			t.Errorf("%s opened %d sweep/batch spans, want 1", sec.Name, batches)
		}
		if want := uint64(len(s.Items)); builds != want {
			t.Errorf("%s opened %d build/benchmark spans, want %d", sec.Name, builds, want)
		}
	}

	batched := measureAll
	measureAll = simulateEach
	t.Cleanup(func() { measureAll = batched })
	for i, sec := range sections {
		naive, err := sec.Run(s)
		if err != nil {
			t.Fatalf("%s per request: %v", sec.Name, err)
		}
		if naive != engine[i] {
			t.Errorf("%s: engine batch\n%s\nper-request cache.Simulate\n%s", sec.Name, engine[i], naive)
		}
	}
}
