package experiments

import (
	"bytes"
	"log/slog"
	"strings"
	"testing"

	"impact/internal/obs"
	"impact/internal/workload"
	"impact/internal/xrand"
)

// TestVariantRunsAreRecorded: every evaluation run a section
// interprets for a variant is recorded to the suite's registry — one
// interp.runs and one evaltrace span per run, on the building worker's
// build-worker-N lane, naming its benchmark and layout.
func TestVariantRunsAreRecorded(t *testing.T) {
	reg := obs.NewRegistry()
	tr := obs.NewTracer(0)
	reg.AttachTracer(tr)
	s, err := PrepareBenchmarksWith(workload.Suite(0.05)[:3], Options{Obs: reg})
	if err != nil {
		t.Fatal(err)
	}
	sections := []struct {
		name string
		run  func(*Suite) error
		// runs is the section's variant evaluation runs per program:
		// A1's random order and three partial pipelines, A3's four
		// thresholds besides the pipeline's, A6's Pettis-Hansen order
		// and Table 9's three code scales besides 1.0.
		runs uint64
	}{
		{"A1", func(s *Suite) error { _, err := AblationLayout(s); return err }, 4},
		{"A3", func(s *Suite) error { _, err := AblationMinProb(s); return err }, 4},
		{"A6", func(s *Suite) error { _, err := AblationGlobalAlgo(s); return err }, 1},
		{"Table 9", func(s *Suite) error { _, err := Table9(s); return err }, 3},
	}
	// onBuildLanes counts the evaltrace events on build-worker lanes
	// and checks that every evaltrace event names its run.
	onBuildLanes := func() uint64 {
		lanes := tr.LaneNames()
		var n uint64
		for _, ev := range tr.Events() {
			if ev.Name != "evaltrace" {
				continue
			}
			attrs := map[string]string{}
			for _, a := range ev.Attrs {
				attrs[a.Key] = a.Val
			}
			if attrs["benchmark"] == "" || attrs["layout"] == "" {
				t.Errorf("evaltrace event on %s has attributes %v, want benchmark and layout", lanes[ev.Lane], ev.Attrs)
			}
			if strings.HasPrefix(lanes[ev.Lane], "build-worker-") {
				n++
			}
		}
		return n
	}
	counter := func() uint64 { return reg.Counter("interp.runs").Value() }
	spans := func() uint64 { return reg.Snapshot().Spans["evaltrace"].Count }
	if got, want := spans(), uint64(2*len(s.Items)); got != want {
		t.Errorf("preparation opened %d evaltrace spans, want %d", got, want)
	}
	for _, sec := range sections {
		runs, spanned, built := counter(), spans(), onBuildLanes()
		if err := sec.run(s); err != nil {
			t.Fatalf("%s: %v", sec.name, err)
		}
		want := sec.runs * uint64(len(s.Items))
		if got := counter() - runs; got != want {
			t.Errorf("%s: %d interp.runs, want %d", sec.name, got, want)
		}
		if got := spans() - spanned; got != want {
			t.Errorf("%s: %d evaltrace spans, want %d", sec.name, got, want)
		}
		if got := onBuildLanes() - built; got != want {
			t.Errorf("%s: %d evaltrace events on build-worker lanes, want %d", sec.name, got, want)
		}
	}
	if n := tr.Dropped(); n != 0 {
		t.Fatalf("tracer dropped %d events", n)
	}
}

// TestTable9CountsCappedRun: a code-scaled evaluation run that reaches
// the step guard, though no prepared run does, is counted in
// interp.eval_capped and logged with its benchmark and layout. With
// the inputs reseeded by 19, lex at scale 0.25 stops its code scale
// 1.1 run ten instructions past the cap.
func TestTable9CountsCappedRun(t *testing.T) {
	b := workload.ByName("lex", 0.25)
	for i, seed := range b.ProfileSeeds {
		b.ProfileSeeds[i] = xrand.Seed(seed, 19)
	}
	b.EvalSeed = xrand.Seed(b.EvalSeed, 19)
	var logs bytes.Buffer
	reg := obs.NewRegistry()
	s, err := PrepareBenchmarksWith([]*workload.Benchmark{b}, Options{
		Obs: reg, Log: slog.New(slog.NewTextHandler(&logs, nil)),
	})
	if err != nil {
		t.Fatal(err)
	}
	capped := reg.Counter("interp.eval_capped")
	if n := capped.Value(); n != 0 {
		t.Fatalf("preparation capped %d evaluation runs, want 0", n)
	}
	if _, err := Table9(s); err != nil {
		t.Fatal(err)
	}
	if n := capped.Value(); n != 1 {
		t.Errorf("Table 9 capped %d evaluation runs, want 1", n)
	}
	var warnings []string
	for _, line := range strings.Split(logs.String(), "\n") {
		if strings.Contains(line, "evaluation run hit the instruction cap") {
			warnings = append(warnings, line)
		}
	}
	if len(warnings) != 1 {
		t.Fatalf("%d capped-run warnings, want 1:\n%s", len(warnings), logs.String())
	}
	for _, attr := range []string{"benchmark=lex", `layout="code scale 1.1"`} {
		if !strings.Contains(warnings[0], attr) {
			t.Errorf("warning %q lacks %s", warnings[0], attr)
		}
	}
}
