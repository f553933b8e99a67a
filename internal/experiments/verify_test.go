package experiments

import (
	"sort"
	"strings"
	"testing"

	"impact/internal/cache"
	"impact/internal/check"
	"impact/internal/obs"
	"impact/internal/paging"
	"impact/internal/smith"
	"impact/internal/workload"
)

// TestBoundChecksVerifyEveryAnalysis is the live path of the bounds
// and pagebounds analyzers: with the suite prepared under
// check.Strict, every analysis BoundCheck and PageBoundCheck build
// goes through them and passes; under check.Off none does. A
// corrupted result sent through the same hook fails under Strict.
func TestBoundChecksVerifyEveryAnalysis(t *testing.T) {
	prepare := func(mode check.Mode) (*Suite, *obs.Registry) {
		t.Helper()
		reg := obs.NewRegistry()
		s, err := PrepareBenchmarksWith([]*workload.Benchmark{
			workload.ByName("wc", 0.02), workload.ByName("grep", 0.02),
		}, Options{Check: mode, Obs: reg})
		if err != nil {
			t.Fatalf("prepare under %s: %v", mode, err)
		}
		if _, err := BoundCheck(s); err != nil {
			t.Fatalf("BoundCheck under %s: %v", mode, err)
		}
		if _, err := PageBoundCheck(s); err != nil {
			t.Fatalf("PageBoundCheck under %s: %v", mode, err)
		}
		return s, reg
	}

	s, reg := prepare(check.Strict)
	n := uint64(len(s.Items))
	counters := reg.Snapshot().Counters
	if got, want := counters["check.bounds.runs"], uint64(len(smith.CacheSizes)*len(smith.BlockSizes))*n; got != want {
		t.Errorf("strict: check.bounds.runs = %d, want %d", got, want)
	}
	if got, want := counters["check.pagebounds.runs"], uint64(len(PageBoundSizes)*len(PageBoundFrames))*n; got != want {
		t.Errorf("strict: check.pagebounds.runs = %d, want %d", got, want)
	}
	var names []string
	for name := range counters {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		if strings.HasPrefix(name, "check.") && strings.HasSuffix(name, ".errors") && counters[name] != 0 {
			t.Errorf("strict: %s = %d on real analyses", name, counters[name])
		}
	}

	_, offReg := prepare(check.Off)
	off := offReg.Snapshot().Counters
	if off["check.bounds.runs"] != 0 || off["check.pagebounds.runs"] != 0 {
		t.Errorf("off: bounds runs %d, pagebounds runs %d, want none",
			off["check.bounds.runs"], off["check.pagebounds.runs"])
	}

	p := s.Items[0]
	w, err := p.EvalWeights()
	if err != nil {
		t.Fatal(err)
	}
	res, err := p.Analyze(cache.Config{SizeBytes: 2048, BlockBytes: 64, Assoc: 1})
	if err != nil {
		t.Fatal(err)
	}
	bad := *res
	bad.Bounds.Lower = bad.Bounds.Upper + 1
	err = p.verify(&check.Unit{
		Stage: check.StageAnalysis, Prog: p.Opt.Prog, Weights: w,
		Layout: p.Opt.Layout, Analysis: &bad,
	})
	if err == nil || !strings.Contains(err.Error(), "miss lower bound") {
		t.Errorf("corrupted analysis under strict: err = %v, want a miss lower bound violation", err)
	}
	pres, err := p.AnalyzePages(paging.Config{PageBytes: 4096, Frames: 8})
	if err != nil {
		t.Fatal(err)
	}
	badPages := *pres
	badPages.Report.HotPages = badPages.Report.ExecPages + 1
	err = p.verify(&check.Unit{
		Stage: check.StagePaging, Prog: p.Opt.Prog, Weights: w,
		Layout: p.Opt.Layout, Pages: &badPages,
	})
	if err == nil || !strings.Contains(err.Error(), "hot working set") {
		t.Errorf("corrupted page analysis under strict: err = %v, want a hot working set violation", err)
	}
}

// TestVariantsVerifyUnderSuiteMode: every pipeline variant, Table 9's
// code-scaled programs and the A1, A3, A4 and A6 placements alike, is
// placed under the suite's check mode and recorded to the suite's
// registry. Each section call adds one pipeline run per variant, and
// under check.Strict verifies each one, so Table 9's scaled profiles,
// derived or measured, pass the weight-flow and inline analyzers;
// under check.Off none is verified.
func TestVariantsVerifyUnderSuiteMode(t *testing.T) {
	sections := []struct {
		name string
		run  func(*Suite) error
		// variants is the section's pipeline runs per program: three
		// code scales, three partial A1 pipelines, four A3
		// thresholds, A4 and A6.
		variants uint64
	}{
		{"Table 9", func(s *Suite) error { _, err := Table9(s); return err }, 3},
		{"A1", func(s *Suite) error { _, err := AblationLayout(s); return err }, 3},
		{"A3", func(s *Suite) error { _, err := AblationMinProb(s); return err }, 4},
		{"A4", func(s *Suite) error { _, _, err := AblationGlobal(s); return err }, 1},
		{"A6", func(s *Suite) error { _, err := AblationGlobalAlgo(s); return err }, 1},
	}
	for _, mode := range []check.Mode{check.Strict, check.Off} {
		reg := obs.NewRegistry()
		s, err := PrepareBenchmarksWith([]*workload.Benchmark{
			workload.ByName("wc", 0.05), workload.ByName("yacc", 0.05),
		}, Options{Check: mode, Obs: reg})
		if err != nil {
			t.Fatalf("prepare under %s: %v", mode, err)
		}
		counter := func(name string) uint64 { return reg.Counter(name).Value() }
		for _, sec := range sections {
			runs, units := counter("pipeline.runs"), counter("check.units")
			if err := sec.run(s); err != nil {
				t.Fatalf("%s under %s: %v", sec.name, mode, err)
			}
			if got, want := counter("pipeline.runs")-runs, sec.variants*uint64(len(s.Items)); got != want {
				t.Errorf("%s under %s: %d pipeline runs, want %d", sec.name, mode, got, want)
			}
			if verified := counter("check.units") > units; verified != (mode != check.Off) {
				t.Errorf("%s under %s: variants verified %t", sec.name, mode, verified)
			}
		}
		if mode == check.Off && counter("check.units") != 0 {
			t.Errorf("off: check.units = %d, want 0", counter("check.units"))
		}
	}
}
