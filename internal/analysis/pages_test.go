package analysis

import (
	"strings"
	"testing"

	"impact/internal/interp"
	"impact/internal/ir"
	"impact/internal/layout"
	"impact/internal/paging"
	"impact/internal/profile"
	"impact/internal/workload"
)

// pagesWorkload builds a deterministic mid-sized program plus exact
// single-run weights for the page-analysis tests.
func pagesWorkload(t *testing.T, progSeed, evalSeed uint64, trips float64) (*layout.Layout, *profile.Weights, interp.Config) {
	t.Helper()
	b, err := workload.Build(workload.Params{
		Name: "pages", InputDesc: "pages", Seed: progSeed,
		Phases: 2, WorkersPerPhase: [2]int{1, 2},
		WorkerSegments: [2]int{1, 3}, BlockInstrs: [2]int{2, 8},
		Utilities: 2, UtilInstrs: [2]int{2, 6},
		ColdFuncs: 2, ColdFuncInstrs: [2]int{2, 8},
		WorkerLoopTrips: trips, CallFrac: 0.5, DiamondFrac: 0.5, BranchBias: 0.8,
		ColdEscapeFrac: 0.3, ColdEscapeProb: 0.02,
		PhaseTrips: 2, TargetInstrs: 6000, ProfileRuns: 1,
	})
	if err != nil {
		t.Fatalf("workload.Build: %v", err)
	}
	icfg := interp.Config{MaxSteps: 1 << 20}
	w, runs, err := profile.Profile(b.Prog, profile.Config{Seeds: []uint64{evalSeed}, Interp: icfg})
	if err != nil {
		t.Fatalf("profile: %v", err)
	}
	if !runs[0].Completed {
		t.Fatalf("profiling run capped")
	}
	return layout.Natural(b.Prog), w, icfg
}

// TestPageBoundsBracket is the differential check: across page sizes,
// frame counts, and layouts, the static page-fault bounds must bracket
// the paging simulator's measured faults, and the static footprint
// must equal the pages the simulator touches.
func TestPageBoundsBracket(t *testing.T) {
	for _, progSeed := range []uint64{3, 17} {
		lay, w, icfg := pagesWorkload(t, progSeed, 11, 9)
		for _, random := range []bool{false, true} {
			l := lay
			if random {
				l = layout.Random(lay.Program(), progSeed)
			}
			tr, run, err := layout.Trace(l, 11, icfg)
			if err != nil || !run.Completed {
				t.Fatalf("trace: %v completed=%v", err, run.Completed)
			}
			for _, pageBytes := range []int{256, 1024, 4096} {
				for _, frames := range []int{0, 2, 8} {
					cfg := paging.Config{PageBytes: pageBytes, Frames: frames}
					res, err := AnalyzePages(l, w, PageConfig{Paging: cfg})
					if err != nil {
						t.Fatalf("AnalyzePages(%v): %v", cfg, err)
					}
					if !res.Bounds.Exact {
						t.Fatalf("weights from one complete run not Exact")
					}
					st, err := paging.Simulate(cfg, tr)
					if err != nil {
						t.Fatalf("Simulate(%v): %v", cfg, err)
					}
					if st.Accesses != res.Bounds.Accesses {
						t.Errorf("%v: simulator accesses %d != modelled %d", cfg, st.Accesses, res.Bounds.Accesses)
					}
					if st.Faults < res.Bounds.Lower || st.Faults > res.Bounds.Upper {
						t.Errorf("%v random=%v: faults %d outside [%d, %d]",
							cfg, random, st.Faults, res.Bounds.Lower, res.Bounds.Upper)
					}
					if st.PagesTouched != res.Report.ExecPages {
						t.Errorf("%v: simulator touched %d pages, static footprint %d",
							cfg, st.PagesTouched, res.Report.ExecPages)
					}
				}
			}
		}
	}
}

func TestPageGeom(t *testing.T) {
	// 10 pages of code, 4 frames: one set, 4 ways.
	g := pageGeom(paging.Config{PageBytes: 1024, Frames: 4}, 10*1024)
	if g.numSets != 1 || g.numLines != 10 || g.assoc != 4 || !g.mayEvicts {
		t.Fatalf("geom %+v", g)
	}
	// Unbounded frames: associativity grows to the page count.
	g = pageGeom(paging.Config{PageBytes: 1024}, 10*1024)
	if g.assoc != 10 || g.mustEvict != 10 || !g.mayEvicts {
		t.Fatalf("unbounded geom %+v", g)
	}
	// More frames than pages: clamped, still no eviction.
	g = pageGeom(paging.Config{PageBytes: 1024, Frames: 64}, 3*1024)
	if g.assoc != 3 {
		t.Fatalf("over-provisioned geom %+v", g)
	}
	// Partial last page still counts.
	g = pageGeom(paging.Config{PageBytes: 1024, Frames: 2}, 1025)
	if g.numLines != 2 {
		t.Fatalf("partial-page geom %+v", g)
	}
	// Associativity beyond the byte age domain saturates.
	g = pageGeom(paging.Config{PageBytes: 64}, 300*64)
	if g.mayEvicts || g.mustEvict != maxAge {
		t.Fatalf("saturated geom %+v", g)
	}
}

// TestAnalyzePagesValidate has one row per input and config rejection
// of AnalyzePages — an invalid paging geometry, a negative report
// size, weights of another program and a layout with no code — plus
// valid rows.
func TestAnalyzePagesValidate(t *testing.T) {
	lay, w, _ := pagesWorkload(t, 1, 2, 3)
	// A program with no functions: its layout places no code.
	empty := &ir.Program{Entry: ir.NoFunc}
	pg := paging.Config{PageBytes: 4096, Frames: 8}
	c := func(pc paging.Config) PageConfig { return PageConfig{Paging: pc} }
	tests := []struct {
		name    string
		lay     *layout.Layout
		w       *profile.Weights
		cfg     PageConfig
		wantErr string // "" means the analysis runs
	}{
		{"page size not a power of two", lay, w, c(paging.Config{PageBytes: 100}), "page size 100 is not a power of two >= 64"},
		{"page size below 64", lay, w, c(paging.Config{PageBytes: 32, Frames: 4}), "page size 32 is not a power of two >= 64"},
		{"zero geometry", lay, w, c(paging.Config{}), "page size 0 is not a power of two >= 64"},
		{"negative frames", lay, w, c(paging.Config{PageBytes: 4096, Frames: -1}), "negative frame count -1"},
		{"weights of another program", lay, profile.NewWeights(empty), c(pg), "weights cover 0 funcs"},
		{"layout with no code", layout.Natural(empty), profile.NewWeights(empty), c(pg), "layout places no code"},
		{"negative top pages", lay, w, PageConfig{Paging: pg, TopPages: -1}, "negative report size (TopPages -1, TopPairs 0)"},
		{"negative top pairs", lay, w, PageConfig{Paging: pg, TopPairs: -3}, "negative report size (TopPages 0, TopPairs -3)"},
		{"4KB pages, 8 frames", lay, w, c(pg), ""},
		{"one page and pair", lay, w, PageConfig{Paging: pg, TopPages: 1, TopPairs: 1}, ""},
		{"small pages, 2 frames", lay, w, c(paging.Config{PageBytes: 256, Frames: 2}), ""},
		{"unbounded frames", lay, w, c(paging.Config{PageBytes: 4096}), ""},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			res, err := AnalyzePages(tt.lay, tt.w, tt.cfg)
			if tt.wantErr == "" {
				if err != nil || res == nil {
					t.Fatalf("AnalyzePages = %v; want a result", err)
				}
				return
			}
			if err == nil || !strings.Contains(err.Error(), tt.wantErr) || res != nil {
				t.Errorf("AnalyzePages = %v, want an error containing %q", err, tt.wantErr)
			}
		})
	}
}

func TestPageReportShape(t *testing.T) {
	lay, w, _ := pagesWorkload(t, 5, 7, 12)
	cfg := paging.Config{PageBytes: 256, Frames: 2}
	res, err := AnalyzePages(lay, w, PageConfig{Paging: cfg, TopPages: 4, TopPairs: 4})
	if err != nil {
		t.Fatal(err)
	}
	rep := res.Report
	if rep.ExecPages == 0 || rep.CodePages < rep.ExecPages {
		t.Fatalf("footprint: %d exec of %d code pages", rep.ExecPages, rep.CodePages)
	}
	if rep.HotPages == 0 || rep.HotPages > rep.ExecPages {
		t.Fatalf("hot pages %d outside (0, %d]", rep.HotPages, rep.ExecPages)
	}
	if rep.WasteBytes >= uint64(rep.ExecPages*cfg.PageBytes) {
		t.Fatalf("waste %d >= executed page bytes %d", rep.WasteBytes, rep.ExecPages*cfg.PageBytes)
	}
	if len(rep.TopPages) == 0 || len(rep.TopPages) > 4 {
		t.Fatalf("top pages: %d entries", len(rep.TopPages))
	}
	for i := 1; i < len(rep.TopPages); i++ {
		if rep.TopPages[i].Fetches > rep.TopPages[i-1].Fetches {
			t.Fatalf("top pages not sorted")
		}
	}
	for _, pp := range rep.TopPages {
		var fw uint64
		var bytes uint32
		for _, s := range pp.Funcs {
			fw += s.Fetches
			bytes += s.Bytes
		}
		if fw != pp.Fetches || bytes != pp.Bytes {
			t.Fatalf("page %d shares (%d fetches, %dB) != totals (%d, %dB)",
				pp.Page, fw, bytes, pp.Fetches, pp.Bytes)
		}
		if pp.Bytes == 0 || pp.Bytes > uint32(cfg.PageBytes) {
			t.Fatalf("page %d executed bytes %d outside (0, %d]", pp.Page, pp.Bytes, cfg.PageBytes)
		}
	}
	for _, s := range rep.Straddles {
		if s.Pages < 2 {
			t.Fatalf("straddle %q spans %d page(s)", s.Name, s.Pages)
		}
	}
	for _, pr := range rep.Pairs {
		if pr.A >= pr.B || pr.Fetches == 0 {
			t.Fatalf("malformed pair %+v", pr)
		}
	}
	if rep.ThrashScopes == 0 && len(rep.Pairs) > 0 {
		t.Fatalf("pairs without thrashing scopes")
	}

	// Unbounded frames: nothing thrashes, bounds collapse to the cold
	// footprint (Upper == distinct executed pages when runs == 1).
	res0, err := AnalyzePages(lay, w, PageConfig{Paging: paging.Config{PageBytes: 256}})
	if err != nil {
		t.Fatal(err)
	}
	if res0.Report.ThrashScopes != 0 || len(res0.Report.Pairs) != 0 {
		t.Fatalf("unbounded frames report thrash: %+v", res0.Report)
	}
	if res0.Bounds.Upper != uint64(res0.Report.ExecPages) {
		t.Fatalf("unbounded upper %d != footprint %d", res0.Bounds.Upper, res0.Report.ExecPages)
	}
}

// TestPageEngineMatchesAnalyze pins the search engine to the full
// analysis: identical bounds for arbitrary candidate layouts, clones
// independent of their parent.
func TestPageEngineMatchesAnalyze(t *testing.T) {
	lay, w, _ := pagesWorkload(t, 9, 13, 6)
	cfg := paging.Config{PageBytes: 512, Frames: 4}
	eng, err := NewPageEngine(lay, w, cfg)
	if err != nil {
		t.Fatal(err)
	}
	layouts := []*layout.Layout{
		lay,
		layout.Random(lay.Program(), 1),
		layout.Random(lay.Program(), 2),
	}
	cl := eng.Clone()
	for i, l := range layouts {
		want, err := AnalyzePages(l, w, PageConfig{Paging: cfg})
		if err != nil {
			t.Fatal(err)
		}
		got, err := eng.Bounds(l)
		if err != nil {
			t.Fatal(err)
		}
		if got != want.Bounds {
			t.Fatalf("layout %d: engine bounds %+v != analysis %+v", i, got, want.Bounds)
		}
	}
	// The clone was split before the parent moved; it must still agree
	// with a fresh analysis of whatever layout it is handed.
	want, err := AnalyzePages(layouts[1], w, PageConfig{Paging: cfg})
	if err != nil {
		t.Fatal(err)
	}
	got, err := cl.Bounds(layouts[1])
	if err != nil {
		t.Fatal(err)
	}
	if got != want.Bounds {
		t.Fatalf("clone bounds %+v != analysis %+v", got, want.Bounds)
	}
}

// FuzzPageBounds is the adversarial differential: fuzzer-chosen
// program shapes, layouts, page sizes, and frame counts must keep
// paging.Simulate's fault count inside the static bracket whenever the
// weights describe the simulated run exactly. High-trips seeds shape
// loops whose page footprint exceeds the frames — the scope-
// persistence cap and the thrash report's home turf — mirroring the
// persistence seeds of the cache-side FuzzBounds. As there, a page
// engine built on the other layout must reach the same bounds by an
// incremental update.
func FuzzPageBounds(f *testing.F) {
	f.Add(uint64(1), uint64(7), uint8(0), uint8(0), uint8(3), false)
	f.Add(uint64(2), uint64(11), uint8(1), uint8(1), uint8(3), true)
	f.Add(uint64(3), uint64(13), uint8(2), uint8(2), uint8(3), false)
	f.Add(uint64(99), uint64(5), uint8(3), uint8(4), uint8(3), true)
	// Persistence-heavy shapes: many loop trips against tiny pages and
	// few frames, so scopes overflow and the pooled upper bound is the
	// binding one.
	f.Add(uint64(17), uint64(23), uint8(0), uint8(1), uint8(11), false)
	f.Add(uint64(17), uint64(23), uint8(0), uint8(1), uint8(11), true)
	f.Add(uint64(29), uint64(31), uint8(1), uint8(0), uint8(9), false)
	f.Add(uint64(41), uint64(43), uint8(4), uint8(3), uint8(15), true)
	f.Fuzz(func(t *testing.T, progSeed, evalSeed uint64, pageIdx, frameIdx, trips uint8, random bool) {
		pageSizes := []int{64, 128, 256, 1024, 4096}
		frames := []int{0, 1, 2, 4, 8}
		cfg := paging.Config{
			PageBytes: pageSizes[int(pageIdx)%len(pageSizes)],
			Frames:    frames[int(frameIdx)%len(frames)],
		}

		b, err := workload.Build(workload.Params{
			Name: "fuzz", InputDesc: "fuzz", Seed: progSeed,
			Phases: 1, WorkersPerPhase: [2]int{1, 2},
			WorkerSegments: [2]int{1, 3}, BlockInstrs: [2]int{1, 8},
			Utilities: 1, UtilInstrs: [2]int{2, 6},
			ColdFuncs: 1, ColdFuncInstrs: [2]int{2, 8},
			WorkerLoopTrips: float64(1 + int(trips)%15), CallFrac: 0.5, DiamondFrac: 0.5, BranchBias: 0.8,
			ColdEscapeFrac: 0.3, ColdEscapeProb: 0.02,
			PhaseTrips: float64(1 + int(trips)%4), TargetInstrs: 4000, ProfileRuns: 1,
		})
		if err != nil {
			t.Skipf("workload.Build: %v", err)
		}

		icfg := interp.Config{MaxSteps: 1 << 18}
		w, runs, err := profile.Profile(b.Prog, profile.Config{Seeds: []uint64{evalSeed}, Interp: icfg})
		if err != nil {
			t.Fatalf("profile: %v", err)
		}

		lay, other := layout.Natural(b.Prog), layout.Random(b.Prog, progSeed)
		if random {
			lay, other = other, lay
		}
		res, err := AnalyzePages(lay, w, PageConfig{Paging: cfg})
		if err != nil {
			t.Fatalf("AnalyzePages: %v", err)
		}
		eng, err := NewPageEngine(other, w, cfg)
		if err != nil {
			t.Fatalf("NewPageEngine: %v", err)
		}
		if got, err := eng.Bounds(lay); err != nil || got != res.Bounds {
			t.Fatalf("engine moved to the layout: bounds %+v (err %v), fresh analysis %+v", got, err, res.Bounds)
		}
		if res.Bounds.Lower > res.Bounds.Upper {
			t.Fatalf("Lower %d > Upper %d", res.Bounds.Lower, res.Bounds.Upper)
		}
		if !runs[0].Completed {
			if res.Bounds.Exact {
				t.Fatalf("Exact bounds from a capped run")
			}
			return
		}

		tr, run, err := layout.Trace(lay, evalSeed, icfg)
		if err != nil || !run.Completed {
			t.Fatalf("trace: %v completed=%v", err, run.Completed)
		}
		st, err := paging.Simulate(cfg, tr)
		if err != nil {
			t.Fatalf("simulate: %v", err)
		}
		if st.Accesses != res.Bounds.Accesses {
			t.Fatalf("simulator accesses %d != modelled %d", st.Accesses, res.Bounds.Accesses)
		}
		if st.Faults < res.Bounds.Lower || st.Faults > res.Bounds.Upper {
			t.Fatalf("faults %d outside [%d, %d] (cfg %+v, seeds %d/%d, random=%v)",
				st.Faults, res.Bounds.Lower, res.Bounds.Upper, cfg, progSeed, evalSeed, random)
		}
		if st.PagesTouched != res.Report.ExecPages {
			t.Fatalf("touched %d pages, static footprint %d (cfg %+v)", st.PagesTouched, res.Report.ExecPages, cfg)
		}
	})
}
