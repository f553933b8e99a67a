package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
	"time"

	"impact/internal/analysis"
	"impact/internal/cache"
	"impact/internal/cliutil"
	"impact/internal/interp"
	"impact/internal/layout"
	"impact/internal/paging"
	"impact/internal/texttable"
)

// analyzeJSON is the machine-readable shape of `impact analyze -json`:
// one entry per analysed geometry, each carrying the full
// analysis.Result (deterministically ordered rankings) plus the
// simulator measurement when -measure is set. Consumers — the search
// harness above all — parse this instead of scraping the tables.
type analyzeJSON struct {
	Benchmark string  `json:"benchmark"`
	Strategy  string  `json:"strategy"`
	Scale     float64 `json:"scale"`
	// EffectiveBytes / TotalBytes describe the analysed layout.
	EffectiveBytes int                 `json:"effective_bytes"`
	TotalBytes     int                 `json:"total_bytes"`
	Results        []analyzeJSONResult `json:"results"`
	// Pages holds the page-level analysis when -pages was given.
	Pages *pagesJSONResult `json:"pages,omitempty"`
}

type pagesJSONResult struct {
	*analysis.PageResult
	// Measured holds the simulated fault count when -measure was given.
	Measured *pageMeasuredJSON `json:"measured,omitempty"`
}

type pageMeasuredJSON struct {
	Faults       uint64 `json:"faults"`
	Accesses     uint64 `json:"accesses"`
	PagesTouched int    `json:"pages_touched"`
	// InBounds reports the fault bracket and footprint check (only
	// meaningful when the bounds are exact).
	InBounds bool `json:"in_bounds"`
	Exact    bool `json:"exact"`
}

type analyzeJSONResult struct {
	*analysis.Result
	// Measured holds the simulated miss count when -measure was given.
	Measured *measuredJSON `json:"measured,omitempty"`
}

type measuredJSON struct {
	Misses   uint64 `json:"misses"`
	Accesses uint64 `json:"accesses"`
	// InBounds reports the bracket check (only meaningful when the
	// bounds are exact).
	InBounds bool `json:"in_bounds"`
	Exact    bool `json:"exact"`
}

// cmdAnalyze runs the static cache-behavior analyzer on a benchmark's
// laid-out program: layout-quality score, hot set conflicts, and
// must/may miss bounds — computed from the IR, the profile, and the
// addresses alone, with no trace decoded. With -pages it additionally
// runs the page-level analysis at the -page-bytes/-frames geometry:
// page-fault bounds, footprint, and the ranked page-pressure report.
// With -measure it additionally simulates the evaluation trace and
// reports the measured misses (and faults) next to the bounds (which
// must bracket them). With -json the whole report is emitted as one
// JSON object on stdout.
func cmdAnalyze(args []string) {
	fs := flag.NewFlagSet("analyze", flag.ExitOnError)
	name, scale := benchFlag(fs)
	strategy := fs.String("strategy", "full", "placement strategy")
	cf := cliutil.AddCacheFlags(fs)
	pages := fs.Bool("pages", false, "also run the page-level analysis (page-fault bounds and pressure report)")
	pf := cliutil.AddPagingFlags(fs)
	topSets := fs.Int("top-sets", 8, "pressured cache sets to report")
	topPairs := fs.Int("top-pairs", 8, "conflicting function pairs to report")
	topFuncs := fs.Int("top-funcs", 10, "per-function bound rows to report")
	measure := fs.Bool("measure", false, "also simulate the evaluation trace and verify the bracket")
	jsonOut := fs.Bool("json", false, "emit the full report as JSON on stdout")
	common := startCommon(fs, args)
	defer common.MustClose()
	checkGeometry(cf, pf)
	checkCount("top-sets", *topSets)
	checkCount("top-pairs", *topPairs)
	checkCount("top-funcs", *topFuncs)
	st := mustStrategy(*strategy)
	b := mustBench(*name, *scale)

	res := optimize(b, st, common.Registry)

	// The weights are counted in the evaluation run whose trace
	// -measure simulates at every geometry, so the bounds are
	// guarantees for that trace.
	start := time.Now()
	tr, w, run, err := layout.TraceWeights(res.Layout, b.EvalSeed, b.EvalConfig())
	if err != nil {
		fatal(err)
	}
	interp.Record(common.Registry, run, time.Since(start))

	sizeList, err := cf.SizeList()
	if err != nil {
		fatal(err)
	}
	if sizeList == nil {
		sizeList = []int{cf.Size}
	}

	rep := analyzeJSON{
		Benchmark: b.Name(), Strategy: *strategy, Scale: *scale,
		EffectiveBytes: res.EffectiveBytes, TotalBytes: res.TotalBytes,
	}
	if !*jsonOut {
		fmt.Printf("benchmark %s, strategy %s: %d funcs, %s effective / %s total\n",
			b.Name(), *strategy, len(res.Prog.Funcs),
			texttable.KB(res.EffectiveBytes), texttable.KB(res.TotalBytes))
	}

	for i, size := range sizeList {
		ccfg := cf.Config()
		ccfg.SizeBytes = size
		ares, err := analysis.Analyze(res.Layout, w, analysis.Config{
			Cache:   ccfg,
			TopSets: *topSets, TopPairs: *topPairs,
			Obs: common.Registry,
		})
		if err != nil {
			fatal(err)
		}
		ares.PerFunc = rankFuncBounds(ares.PerFunc)
		jr := analyzeJSONResult{Result: ares}
		if i == 0 && !*jsonOut {
			// The layout score does not depend on the geometry.
			fmt.Printf("layout score: fall-through %s of transfer weight, ext-TSP %.4f\n\n",
				texttable.Pct(ares.Score.FallThroughRatio()), ares.Score.ExtTSP)
		}
		if !*jsonOut {
			printAnalysis(b.Name(), ares)
		}
		if *measure {
			st, err := cache.Simulate(ccfg, tr)
			if err != nil {
				fatal(err)
			}
			in := st.Misses >= ares.Bounds.Lower && st.Misses <= ares.Bounds.Upper
			exact := ares.Bounds.Exact && run.Completed
			jr.Measured = &measuredJSON{
				Misses: st.Misses, Accesses: st.Accesses,
				InBounds: in, Exact: exact,
			}
			if !*jsonOut {
				verdict := "within bounds"
				if !in {
					verdict = "OUTSIDE BOUNDS"
				}
				if !exact {
					verdict = "bounds inexact (capped run)"
				}
				fmt.Printf("measured: %d misses (%s) — %s\n\n",
					st.Misses, texttable.Pct3(st.MissRatio()), verdict)
			}
		}
		rep.Results = append(rep.Results, jr)
	}

	if *pages {
		pres, err := analysis.AnalyzePages(res.Layout, w, analysis.PageConfig{
			Paging:   pf.Config(),
			TopPages: *topSets, TopPairs: *topPairs,
			Obs: common.Registry,
		})
		if err != nil {
			fatal(err)
		}
		pj := &pagesJSONResult{PageResult: pres}
		if !*jsonOut {
			printPages(b.Name(), pres)
		}
		if *measure {
			st, err := paging.Simulate(pres.Paging, tr)
			if err != nil {
				fatal(err)
			}
			in := st.Faults >= pres.Bounds.Lower && st.Faults <= pres.Bounds.Upper &&
				st.PagesTouched == pres.Report.ExecPages
			exact := pres.Bounds.Exact && run.Completed
			pj.Measured = &pageMeasuredJSON{
				Faults: st.Faults, Accesses: st.Accesses, PagesTouched: st.PagesTouched,
				InBounds: in, Exact: exact,
			}
			if !*jsonOut {
				verdict := "within bounds"
				if !in {
					verdict = "OUTSIDE BOUNDS"
				}
				if !exact {
					verdict = "bounds inexact (capped run)"
				}
				fmt.Printf("measured: %d faults, %d pages touched — %s\n\n",
					st.Faults, st.PagesTouched, verdict)
			}
		}
		rep.Pages = pj
	}

	if *jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(rep); err != nil {
			fatal(err)
		}
		return
	}
	if len(sizeList) == 1 {
		printFuncBounds(rep.Results[0].PerFunc, *topFuncs)
	}
}

// printAnalysis renders one geometry's analysis.
func printAnalysis(name string, ares *analysis.Result) {
	b := ares.Bounds
	fmt.Printf("%s on %s: %d regions, %d fixpoint iterations\n", name, ares.Cache, ares.Regions, ares.Iterations)
	ct := texttable.New("Reference classification",
		"class", "static refs", "weighted", "share")
	for _, c := range []analysis.Class{
		analysis.ClassAlwaysHit, analysis.ClassFirstMiss,
		analysis.ClassAlwaysMiss, analysis.ClassUnclassified,
	} {
		share := 0.0
		if b.WeightedLineRefs > 0 {
			share = float64(b.RefWeight[c]) / float64(b.WeightedLineRefs)
		}
		ct.Row(c.String(), b.Refs[c], b.RefWeight[c], texttable.Pct(share))
	}
	fmt.Print(ct.String())
	fmt.Printf("miss bounds: [%d, %d] of %d fetches — ratio [%s, %s]",
		b.Lower, b.Upper, b.Accesses,
		texttable.Pct3(b.LowerRatio()), texttable.Pct3(b.UpperRatio()))
	if !b.Exact {
		fmt.Printf(" (inexact: aggregated over %d runs)", b.Runs)
	}
	fmt.Println()

	if len(ares.Conflicts.Sets) > 0 {
		st := texttable.New(fmt.Sprintf("Hot set conflicts (total excess %s)", texttable.Mega(ares.Conflicts.TotalExcess)),
			"set", "weight", "excess", "hottest lines")
		for _, s := range ares.Conflicts.Sets {
			lines := ""
			for i, l := range s.Lines {
				if i > 0 {
					lines += ", "
				}
				lines += fmt.Sprintf("0x%04x(%s)", l.Addr, l.FuncName)
			}
			st.Row(s.Set, s.Weight, s.Excess, lines)
		}
		fmt.Print(st.String())
		if len(ares.Conflicts.Pairs) > 0 {
			pt := texttable.New("Conflicting function pairs", "pair", "contended weight")
			for _, pr := range ares.Conflicts.Pairs {
				pt.Row(pr.AName+" / "+pr.BName, pr.Weight)
			}
			fmt.Print(pt.String())
		}
	} else {
		fmt.Println("no overflowing cache sets (no predicted conflict misses)")
	}
	fmt.Println()
}

// printPages renders the page-level analysis: footprint summary, fault
// bounds, the hottest pages, straddling functions, and thrash pairs.
func printPages(name string, res *analysis.PageResult) {
	b := res.Bounds
	rep := res.Report
	fmt.Printf("%s on %s: %d regions, %d fixpoint iterations\n",
		name, res.Paging, res.Regions, res.Iterations)
	fmt.Printf("pages: %d code, %d executed, %d hot (90%% of fetches), %dB never executed on touched pages\n",
		rep.CodePages, rep.ExecPages, rep.HotPages, rep.WasteBytes)
	fmt.Printf("fault bounds: [%d, %d] of %d fetches", b.Lower, b.Upper, b.Accesses)
	if !b.Exact {
		fmt.Printf(" (inexact: aggregated over %d runs)", b.Runs)
	}
	fmt.Println()

	if len(rep.TopPages) > 0 {
		t := texttable.New("Hottest pages", "page", "fetches", "bytes used", "functions")
		for _, pg := range rep.TopPages {
			funcs := ""
			for i, s := range pg.Funcs {
				if i > 0 {
					funcs += ", "
				}
				funcs += s.FuncName
			}
			t.Row(fmt.Sprintf("0x%08x", pg.Addr), pg.Fetches, pg.Bytes, funcs)
		}
		fmt.Print(t.String())
	}
	if len(rep.Straddles) > 0 {
		t := texttable.New("Page-straddling functions", "function", "pages", "fetches")
		for _, s := range rep.Straddles {
			t.Row(s.Name, s.Pages, s.Fetches)
		}
		fmt.Print(t.String())
	}
	if rep.ThrashScopes > 0 {
		fmt.Printf("%d thrashing scopes (loop page footprint exceeds %d frames)\n",
			rep.ThrashScopes, res.Paging.Frames)
		if len(rep.Pairs) > 0 {
			t := texttable.New("Thrashing function pairs", "pair", "contended weight")
			for _, pr := range rep.Pairs {
				t.Row(pr.AName+" / "+pr.BName, pr.Fetches)
			}
			fmt.Print(t.String())
		}
	} else {
		fmt.Println("no thrashing scopes (every loop's page footprint fits the frames)")
	}
	fmt.Println()
}

// rankFuncBounds orders per-function bound rows hottest-first under a
// total order — Upper descending, then Accesses descending, then
// FuncID ascending — so rows with equal pressure keep a stable,
// deterministic rank across runs and machines.
func rankFuncBounds(rows []analysis.FuncBounds) []analysis.FuncBounds {
	out := append([]analysis.FuncBounds(nil), rows...)
	sort.Slice(out, func(i, j int) bool {
		if out[i].Upper != out[j].Upper {
			return out[i].Upper > out[j].Upper
		}
		if out[i].Accesses != out[j].Accesses {
			return out[i].Accesses > out[j].Accesses
		}
		return out[i].Func < out[j].Func
	})
	return out
}

// printFuncBounds renders the hottest per-function bound rows (already
// ranked by rankFuncBounds).
func printFuncBounds(rows []analysis.FuncBounds, top int) {
	t := texttable.New("Per-function miss bounds (hottest first)",
		"function", "fetches", "lower", "upper")
	for i, r := range rows {
		if i >= top {
			break
		}
		t.Row(r.Name, r.Accesses, r.Lower, r.Upper)
	}
	fmt.Print(t.String())
}
