package experiments

import (
	"flag"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"impact/internal/analysis"
	"impact/internal/cache"
	"impact/internal/layout"
	"impact/internal/paging"
	"impact/internal/profile"
	"impact/internal/smith"
)

var updateGolden = flag.Bool("update", false, "rewrite the golden analysis fixtures instead of checking them")

// goldenPath is the committed snapshot of the static analyzer's output
// over the test suite.
var goldenPath = filepath.Join("testdata", "analysis.golden")

// TestAnalysisGolden pins the static analyzer's complete output — every
// bound, classification count, per-function row, conflict and page
// report, and layout score — on both layouts of every benchmark across
// the Table-1 grid, set-associative and fully associative 2KB caches,
// and the page-bound grid. A line holds a cell's bounds in the clear and
// a digest of the whole result, so a refactor of the analyzer that
// changes any reported number fails here even where the simulator
// bracket still holds. Only Iterations is left out: it counts the
// solver's work, not its answer.
//
// Regenerate with `go test ./internal/experiments -run TestAnalysisGolden
// -update` — only for a change meant to alter the analyzer's results or
// its inputs (the suite's programs, profiles, or layouts).
func TestAnalysisGolden(t *testing.T) {
	s := testSuite(t)
	var cacheGeoms []cache.Config
	for _, cs := range smith.CacheSizes {
		for _, bs := range smith.BlockSizes {
			cacheGeoms = append(cacheGeoms, cache.Config{SizeBytes: cs, BlockBytes: bs, Assoc: 1})
		}
	}
	for _, assoc := range []int{2, 4, 0} {
		cacheGeoms = append(cacheGeoms, cache.Config{SizeBytes: 2048, BlockBytes: 64, Assoc: assoc})
	}

	var b strings.Builder
	for _, p := range s.Items {
		optW, err := p.EvalWeights()
		if err != nil {
			t.Fatal(err)
		}
		natW, _, err := profile.Profile(p.Bench.Prog, profile.Config{Seeds: []uint64{p.Bench.EvalSeed}, Interp: p.Bench.EvalConfig()})
		if err != nil {
			t.Fatal(err)
		}
		layouts := []struct {
			name string
			lay  *layout.Layout
			w    *profile.Weights
		}{
			{"opt", p.Opt.Layout, optW},
			{"nat", layout.Natural(p.Bench.Prog), natW},
		}
		for _, l := range layouts {
			for _, g := range cacheGeoms {
				res, err := analysis.Analyze(l.lay, l.w, analysis.Config{Cache: g})
				if err != nil {
					t.Fatalf("%s/%s %v: %v", p.Name(), l.name, g, err)
				}
				cp := *res
				cp.Iterations = 0
				fmt.Fprintf(&b, "%s %s cache %d/%d/%d lower %d upper %d accesses %d digest %016x\n",
					p.Name(), l.name, g.SizeBytes, g.BlockBytes, g.Assoc,
					res.Bounds.Lower, res.Bounds.Upper, res.Bounds.Accesses, digest(cp))
			}
			for _, pb := range PageBoundSizes {
				for _, fr := range PageBoundFrames {
					pcfg := paging.Config{PageBytes: pb, Frames: fr}
					res, err := analysis.AnalyzePages(l.lay, l.w, analysis.PageConfig{Paging: pcfg})
					if err != nil {
						t.Fatalf("%s/%s %+v: %v", p.Name(), l.name, pcfg, err)
					}
					cp := *res
					cp.Iterations = 0
					fmt.Fprintf(&b, "%s %s pages %d/%d lower %d upper %d accesses %d digest %016x\n",
						p.Name(), l.name, pb, fr,
						res.Bounds.Lower, res.Bounds.Upper, res.Bounds.Accesses, digest(cp))
				}
			}
		}
	}
	got := b.String()

	if *updateGolden {
		if err := os.MkdirAll(filepath.Dir(goldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("%v (run with -update to create the fixture)", err)
	}
	gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	if len(gl) != len(wl) {
		t.Fatalf("golden has %d lines, analysis produced %d", len(wl), len(gl))
	}
	bad := 0
	for i := range gl {
		if gl[i] != wl[i] {
			if bad < 10 {
				t.Errorf("line %d:\n got: %s\nwant: %s", i+1, gl[i], wl[i])
			}
			bad++
		}
	}
	if bad > 0 {
		t.Fatalf("%d of %d golden lines differ", bad, len(wl)-1)
	}
}

// iterationsPath pins the solver work behind TestAnalysisGolden's cells.
var iterationsPath = filepath.Join("testdata", "iterations.golden")

// TestIterationsGolden pins Result.Iterations — the node evaluations
// the per-set solver performs until its fixpoint — over
// TestAnalysisGolden's grid: every cache and page cell, both layouts,
// every benchmark. `impact analyze` prints the count and the
// analysis.iterations counters add it up, so a solver that stores or
// joins its columns differently must still evaluate the same nodes in
// the same order.
//
// Regenerate with `go test ./internal/experiments -run
// TestIterationsGolden -update` — only for a change meant to alter
// the solver's worklist, never for a change of column representation.
func TestIterationsGolden(t *testing.T) {
	s := testSuite(t)
	var cacheGeoms []cache.Config
	for _, cs := range smith.CacheSizes {
		for _, bs := range smith.BlockSizes {
			cacheGeoms = append(cacheGeoms, cache.Config{SizeBytes: cs, BlockBytes: bs, Assoc: 1})
		}
	}
	for _, assoc := range []int{2, 4, 0} {
		cacheGeoms = append(cacheGeoms, cache.Config{SizeBytes: 2048, BlockBytes: 64, Assoc: assoc})
	}

	var b strings.Builder
	for _, p := range s.Items {
		optW, err := p.EvalWeights()
		if err != nil {
			t.Fatal(err)
		}
		natW, _, err := profile.Profile(p.Bench.Prog, profile.Config{Seeds: []uint64{p.Bench.EvalSeed}, Interp: p.Bench.EvalConfig()})
		if err != nil {
			t.Fatal(err)
		}
		for _, l := range []struct {
			name string
			lay  *layout.Layout
			w    *profile.Weights
		}{
			{"opt", p.Opt.Layout, optW},
			{"nat", layout.Natural(p.Bench.Prog), natW},
		} {
			for _, g := range cacheGeoms {
				res, err := analysis.Analyze(l.lay, l.w, analysis.Config{Cache: g})
				if err != nil {
					t.Fatalf("%s/%s %v: %v", p.Name(), l.name, g, err)
				}
				fmt.Fprintf(&b, "%s %s cache %d/%d/%d iterations %d\n",
					p.Name(), l.name, g.SizeBytes, g.BlockBytes, g.Assoc, res.Iterations)
			}
			for _, pb := range PageBoundSizes {
				for _, fr := range PageBoundFrames {
					pcfg := paging.Config{PageBytes: pb, Frames: fr}
					res, err := analysis.AnalyzePages(l.lay, l.w, analysis.PageConfig{Paging: pcfg})
					if err != nil {
						t.Fatalf("%s/%s %+v: %v", p.Name(), l.name, pcfg, err)
					}
					fmt.Fprintf(&b, "%s %s pages %d/%d iterations %d\n",
						p.Name(), l.name, pb, fr, res.Iterations)
				}
			}
		}
	}
	got := b.String()

	if *updateGolden {
		if err := os.WriteFile(iterationsPath, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(iterationsPath)
	if err != nil {
		t.Fatalf("%v (run with -update to create the fixture)", err)
	}
	gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	if len(gl) != len(wl) {
		t.Fatalf("fixture has %d lines, analysis produced %d", len(wl), len(gl))
	}
	bad := 0
	for i := range gl {
		if gl[i] != wl[i] {
			if bad < 10 {
				t.Errorf("line %d:\n got: %s\nwant: %s", i+1, gl[i], wl[i])
			}
			bad++
		}
	}
	if bad > 0 {
		t.Fatalf("%d of %d iteration lines differ", bad, len(wl)-1)
	}
}

// digest hashes a value's complete %+v rendering (field names, nested
// slices and all), so any reported number that changes changes it.
func digest(v interface{}) uint64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "%+v", v)
	return h.Sum64()
}
