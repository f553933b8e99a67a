package main

import (
	"path/filepath"
	"reflect"
	"regexp"
	"strings"
	"testing"

	"impact/internal/workload"
)

// specPath is BENCHMARK.json, at the repository root.
const specPath = "../../BENCHMARK.json"

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

func TestBenchmarkJSON(t *testing.T) {
	spec, err := loadSpec(specPath)
	if err != nil {
		t.Fatal(err)
	}
	if want := []string{"cmd/icbench"}; !reflect.DeepEqual(spec.Paths, want) {
		t.Errorf("paths %q, want %q", spec.Paths, want)
	}
	if spec.RunSeconds < 1 || spec.RunSeconds > 60 {
		t.Errorf("run_seconds %d outside [1, 60]", spec.RunSeconds)
	}
	seen := map[string]bool{}
	name := func(n string) {
		if !nameRE.MatchString(n) {
			t.Errorf("name %q does not match %s", n, nameRE)
		}
		if seen[n] {
			t.Errorf("name %q is used twice", n)
		}
		seen[n] = true
	}
	var loads []string
	for _, w := range spec.Workloads {
		name(w.Name)
		loads = append(loads, w.Name)
		if w.Why == "" || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of 1-200 characters", w.Name)
		}
	}
	if !reflect.DeepEqual(loads, workloadNames()) {
		t.Errorf("workloads %q, icbench runs %q", loads, workloadNames())
	}
	var maxBound float64
	for _, m := range spec.EndToEnd {
		name(m.Name)
		if m.Bound == nil || *m.Bound <= 0 || *m.Bound > 0.25 {
			t.Errorf("%s: bound must be in (0, 0.25]", m.Name)
		} else {
			maxBound = max(maxBound, *m.Bound)
		}
	}
	for _, m := range spec.PerLayer {
		name(m.Name)
		if m.Bound != nil {
			t.Errorf("%s: per-layer metrics have no bound", m.Name)
		}
	}
	for _, m := range append(append([]specMetric(nil), spec.EndToEnd...), spec.PerLayer...) {
		if !unitRE.MatchString(m.Unit) {
			t.Errorf("%s: unit %q does not match %s", m.Name, m.Unit, unitRE)
		}
		if m.Better != "higher" && m.Better != "lower" {
			t.Errorf("%s: better is %q", m.Name, m.Better)
		}
	}
	if setup := find(spec.EndToEnd, "setup_s"); setup == nil || setup.Unit != "s" || setup.Better != "lower" ||
		setup.Bound == nil || *setup.Bound != maxBound {
		t.Errorf("setup_s must be listed in s, lower is better, with the largest bound")
	}
	sameMetrics(t, "end_to_end", spec.EndToEnd, endToEnd)
	sameMetrics(t, "per_layer", spec.PerLayer, perLayer)
}

func find(ms []specMetric, name string) *specMetric {
	for i := range ms {
		if ms[i].Name == name {
			return &ms[i]
		}
	}
	return nil
}

// sameMetrics checks that BENCHMARK.json lists exactly the metrics
// icbench reports, in the same order and units.
func sameMetrics(t *testing.T, what string, listed []specMetric, defs []metricDef) {
	t.Helper()
	var got, want []metricDef
	for _, m := range listed {
		got = append(got, metricDef{m.Name, m.Unit})
	}
	want = append(want, defs...)
	if !reflect.DeepEqual(got, want) {
		t.Errorf("%s lists %v, icbench reports %v", what, got, want)
	}
}

// small keeps the named programs of params.
func small(params []workload.Params, names ...string) []workload.Params {
	var out []workload.Params
	for _, p := range params {
		for _, n := range names {
			if p.Name == n {
				out = append(out, p)
			}
		}
	}
	return out
}

// TestWorkloadsEmitListedMetrics runs every workload, traced, on a few
// small programs at a tiny scale and checks that it reports exactly the
// listed metrics with no failed operation.
func TestWorkloadsEmitListedMetrics(t *testing.T) {
	for _, w := range workloadDefs() {
		w := w
		t.Run(w.name, func(t *testing.T) {
			w.params = func() []workload.Params {
				return small(append(workload.SuiteParams(), workload.ExtendedSuiteParams()...), "cmp", "tee", "uniq")
			}
			if w.name != "analyze" {
				w.params = func() []workload.Params { return small(workload.SuiteParams(), "cmp", "tee") }
			}
			rep, err := run(runConfig{
				w: w, seed: 1, scale: 0.01, minRounds: 1, trace: true,
				traceOut: filepath.Join(t.TempDir(), "trace.json"),
			})
			if err != nil {
				t.Fatal(err)
			}
			if rep.failed != 0 || rep.attempted == 0 {
				t.Errorf("%d of %d operations failed", rep.failed, rep.attempted)
			}
			for _, d := range endToEnd {
				if v, ok := rep.e2e[d.name]; !ok || v == 0 {
					t.Errorf("end-to-end metric %s is %v", d.name, v)
				}
			}
			if len(rep.e2e) != len(endToEnd) {
				t.Errorf("%d end-to-end metrics, %d listed", len(rep.e2e), len(endToEnd))
			}
			for _, d := range perLayer {
				if _, ok := rep.layers[d.name]; !ok {
					t.Errorf("per-layer metric %s is not computed", d.name)
				}
			}
			if len(rep.layers) != len(perLayer) {
				t.Errorf("%d per-layer metrics, %d listed", len(rep.layers), len(perLayer))
			}
		})
	}
}

func TestSeedZeroIsThePaperSuite(t *testing.T) {
	want := workload.Suite(1.0)
	got, err := benchmarks(workload.SuiteParams(), 1.0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Error("seed 0 does not rebuild workload.Suite(1.0)")
	}
	other, err := benchmarks(workload.SuiteParams(), 1.0, 1)
	if err != nil {
		t.Fatal(err)
	}
	for i, b := range other {
		w := want[i]
		if !reflect.DeepEqual(b.Prog, w.Prog) {
			t.Errorf("seed 1 changes %s's program", w.Name())
		}
		if b.EvalSeed == w.EvalSeed {
			t.Errorf("seed 1 keeps %s's evaluation input", w.Name())
		}
		for j := range b.ProfileSeeds {
			if b.ProfileSeeds[j] == w.ProfileSeeds[j] {
				t.Errorf("seed 1 keeps %s's profiling input %d", w.Name(), j)
			}
		}
	}
}

// TestQuartilesMatchPython pins quartiles to Python's
// statistics.quantiles(xs, n=4), which the benchmark's spread is
// judged by.
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		xs   []float64
		want [3]float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{4, 1, 3, 2}, [3]float64{1.25, 2.5, 3.75}},
		{[]float64{3, 1, 2}, [3]float64{1, 2, 3}},
		{[]float64{7}, [3]float64{7, 7, 7}},
	} {
		q1, q2, q3 := quartiles(c.xs)
		if got := [3]float64{q1, q2, q3}; got != c.want {
			t.Errorf("quartiles(%v) = %v, want %v", c.xs, got, c.want)
		}
	}
}

// TestGoldenSections checks that the golden file splits into every
// section the tables workload renders, and that a changed cell fails.
func TestGoldenSections(t *testing.T) {
	g, err := loadGolden(filepath.Join("..", "..", goldenPath))
	if err != nil {
		t.Fatal(err)
	}
	if len(g) != len(tableSections) {
		t.Errorf("%d golden sections, the tables workload renders %d", len(g), len(tableSections))
	}
	want := g["Table 6"]
	if want == "" {
		t.Fatal("no Table 6 section")
	}
	if err := g.match(want + "\n"); err != nil {
		t.Errorf("Table 6 does not match itself: %v", err)
	}
	if err := g.match(strings.Replace(want, "%", "0%", 1)); err == nil {
		t.Error("a changed Table 6 cell passed")
	}
}

// TestE2ColumnsIgnoreFaults checks that the E2 comparison referees the
// pages and working-set columns and ignores the fault columns the
// golden file predates.
func TestE2ColumnsIgnoreFaults(t *testing.T) {
	want := `Extension E2. Instruction Paging (1024B pages, 100000-fetch working-set window)
name  opt pages  nat pages  opt WS  nat WS
------------------------------------------
cccp         35         33    12.2    13.3
cmp           1          3     1.0     3.0`
	got := `Extension E2. Instruction Paging (1024B pages, unbounded frames, 100000-fetch working-set window)
name  opt pages  nat pages  opt faults  nat faults  opt WS  nat WS
------------------------------------------------------------------
cccp         35         33          35          33    12.2    13.3
cmp           1          3           1           3     1.0     3.0`
	g := golden{"Extension E2": want}
	if err := g.match(got); err != nil {
		t.Fatal(err)
	}
	if err := g.match(strings.Replace(got, "12.2", "12.3", 1)); err == nil {
		t.Error("a changed working set passed")
	}
}
