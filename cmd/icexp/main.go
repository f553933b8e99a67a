// Command icexp regenerates every table of the paper's evaluation
// (Tables 1-9) plus the ablation studies, printing them in the paper's
// row structure.
//
// Usage:
//
//	icexp [-scale 1.0] [-tables 1,2,3,...|none] [-ablations] [-extensions]
//	      [-analyze] [-search] [-report] [-check off|warn|strict]
//	      [-page-bytes 4096] [-frames 8]
//	      [-workers N] [-v] [-metrics-out m.json] [-trace-out t.json]
//	      [-cpuprofile cpu.pb.gz] [-memprofile mem.pb.gz]
//
// -scale multiplies the dynamic trace lengths (1.0 reproduces the
// default experiment; smaller values give quick approximate runs); it
// must be a finite number above zero. -tables selects the paper's
// tables (1-9) to produce, or none; anything else is a usage error.
// -check enables the internal/check pipeline verifier during suite
// preparation (and E5's, under -extensions) and on every static
// analysis -analyze builds (see
// docs/VERIFICATION.md); strict mode fails on any invariant
// violation, and a mode other than off, warn or strict exits 2. -analyze runs the static cache-behavior
// analyzer (see docs/ANALYSIS.md) over every benchmark and geometry
// and prints its must/may miss bounds next to the simulator's
// measurements — both the cache-line analysis and the page-level
// analysis (page-fault bounds vs. the demand-paging simulator); under
// -check strict a bound violated by a measured miss or fault count
// fails the run. -search runs the conflict-driven layout search
// against the greedy pipeline at the Table-1 512B direct-mapped
// geometry, with the page-fault term of the combined objective at the
// -page-bytes/-frames geometry, and prints the simulator-priced
// comparison (see docs/SEARCH.md). -page-bytes and -frames set only
// that page term; they must describe a valid geometry (pages a power
// of two >= 64 bytes, frames >= 0), and either set without -search is
// a usage error, so the command exits 2 before preparing anything. The
// E2 extension's paging geometry is fixed at 1KB pages with unbounded
// frames (experiments.ExtPagingConfig), and the -analyze page-pressure
// summary at 4KB pages and 8 frames. -workers N sets GOMAXPROCS, the worker count of every
// parallel pool — suite preparation, the sweep engine's trace passes
// and the search portfolio; zero keeps the default, one runs each pool
// on one worker, and the output is identical at every count. The
// observability flags are shared by all commands; see
// docs/OBSERVABILITY.md.
package main

import (
	"flag"
	"fmt"
	"log/slog"
	"os"
	"strconv"
	"strings"
	"time"

	"impact/internal/cache"
	"impact/internal/check"
	"impact/internal/cliutil"
	"impact/internal/experiments"
	"impact/internal/search"
)

func main() {
	scale := cliutil.AddScaleFlag(flag.CommandLine)
	want := tableSet{}
	for t := 1; t <= 9; t++ {
		want[strconv.Itoa(t)] = true
	}
	flag.Var(want, "tables", "comma-separated table `numbers` (1-9) to produce, or none")
	ablations := flag.Bool("ablations", false, "also run the ablation studies (A1-A3, A5, A6; A4 is bench-only)")
	extensions := flag.Bool("extensions", false, "also run the extension experiments (E1 timing, E2 paging, E3 prefetch, E4 hierarchy, E5 extended suite)")
	analyze := flag.Bool("analyze", false, "also run the static must/may analyzer and check its bounds against the simulator")
	searchFlag := flag.Bool("search", false, "also run the conflict-driven layout search against the greedy pipeline")
	report := flag.Bool("report", false, "also print each benchmark's per-stage locality ledger")
	checkMode := flag.String("check", "off", "pipeline verification mode: off, warn, or strict")
	pageFlags := cliutil.AddPagingFlags(flag.CommandLine)
	cliutil.AddWorkersFlag(flag.CommandLine)
	common := cliutil.AddFlags(flag.CommandLine)
	flag.Parse()
	if err := pageFlags.Check(); err != nil {
		cliutil.ExitUsage("icexp", err)
	}
	if !*searchFlag {
		flag.Visit(func(f *flag.Flag) {
			if f.Name == "page-bytes" || f.Name == "frames" {
				cliutil.ExitUsage("icexp", fmt.Errorf("-%s without -search: -page-bytes and -frames set only -search's page term", f.Name))
			}
		})
	}
	mode, err := check.ParseMode(*checkMode)
	if err != nil {
		cliutil.ExitUsage("icexp", cliutil.InvalidValue("check", *checkMode, err))
	}
	if err := common.Start("icexp"); err != nil {
		fatal(err)
	}

	start := time.Now()
	fmt.Fprintf(os.Stderr, "preparing benchmark suite (scale %.2f)...\n", *scale)
	// E5 prepares its own benchmarks under the same registry, logger
	// and verification mode; only the suite reports progress and
	// keeps ledgers.
	prepOpts := experiments.Options{Obs: common.Registry, Log: slog.Default(), Check: mode}
	suiteOpts := prepOpts
	suiteOpts.Ledger = *report
	suiteOpts.Progress = func(p experiments.Progress) {
		fmt.Fprintf(os.Stderr, "  [%2d/%d] %-10s prepared in %v\n",
			p.Done, p.Total, p.Benchmark, p.Elapsed.Round(time.Millisecond))
	}
	suite, err := experiments.PrepareWith(*scale, suiteOpts)
	if err != nil {
		fatal(err)
	}
	fmt.Fprintf(os.Stderr, "suite prepared in %v\n\n", time.Since(start).Round(time.Millisecond))

	// emit runs one section under a timing span and prints it.
	emit := func(sec experiments.Section) {
		sp := common.Registry.Span("tables/" + sec.Name)
		out, err := sec.Run(suite)
		sp.End()
		if err != nil {
			fatal(err)
		}
		slog.Debug("section produced", "section", sec.Name)
		fmt.Println(out)
	}

	for i, sec := range experiments.Tables {
		if want[strconv.Itoa(i+1)] {
			emit(sec)
		}
	}
	if *ablations {
		for _, sec := range experiments.Ablations {
			emit(sec)
		}
	}
	if *extensions {
		for _, sec := range experiments.Extensions(*scale, prepOpts) {
			emit(sec)
		}
	}
	if *report {
		emit(experiments.Section{Name: "ledger", Run: func(s *experiments.Suite) (string, error) {
			return experiments.RenderLedgers(s), nil
		}})
	}
	if *analyze {
		emit(experiments.Section{Name: "analyze", Run: func(s *experiments.Suite) (string, error) {
			rows, err := experiments.BoundCheck(s)
			if err != nil {
				return "", err
			}
			if mode == check.Strict {
				if err := experiments.BoundErr(rows); err != nil {
					return "", err
				}
			}
			return experiments.RenderBoundCheck(rows), nil
		}})
		emit(experiments.Section{Name: "analyze-pages", Run: func(s *experiments.Suite) (string, error) {
			rows, err := experiments.PageBoundCheck(s)
			if err != nil {
				return "", err
			}
			if mode == check.Strict {
				if err := experiments.PageBoundErr(rows); err != nil {
					return "", err
				}
			}
			return experiments.RenderPageBoundCheck(rows), nil
		}})
	}
	if *searchFlag {
		emit(experiments.Section{Name: "search", Run: func(s *experiments.Suite) (string, error) {
			geom := cache.Config{SizeBytes: 512, BlockBytes: 64, Assoc: 1}
			pcfg := pageFlags.Config()
			rows, err := experiments.SearchCompare(s, geom, search.Config{
				Seed: 1, Obs: common.Registry, Paging: &pcfg,
			})
			if err != nil {
				return "", err
			}
			return experiments.RenderSearchCompare(geom, &pcfg, rows), nil
		}})
	}
	run := common.Registry.Counter("sweep.sims_run").Value()
	memo := common.Registry.Counter("sweep.sims_memoized").Value()
	stack := common.Registry.Counter("sweep.stack_pass_sizes").Value()
	passes := common.Registry.Counter("sweep.trace_passes").Value()
	fmt.Fprintf(os.Stderr, "sweep engine: %d simulations (%d stack-derived) in %d trace passes, %d served from memo\n",
		run, stack, passes, memo)
	fmt.Fprintf(os.Stderr, "total time %v\n", time.Since(start).Round(time.Millisecond))
	common.MustClose()
}

// tableSet is the -tables flag: the paper's table numbers to produce.
// "none" selects no table; any other entry is a usage error.
type tableSet map[string]bool

func (t tableSet) String() string {
	var ns []string
	for n := 1; n <= 9; n++ {
		if t[strconv.Itoa(n)] {
			ns = append(ns, strconv.Itoa(n))
		}
	}
	if len(ns) == 0 {
		return "none"
	}
	return strings.Join(ns, ",")
}

func (t tableSet) Set(s string) error {
	clear(t)
	for _, f := range strings.Split(s, ",") {
		f = strings.TrimSpace(f)
		if n, err := strconv.Atoi(f); err == nil && n >= 1 && n <= 9 {
			t[strconv.Itoa(n)] = true
		} else if f != "none" {
			return fmt.Errorf("unknown table %q (want 1-9 or none)", f)
		}
	}
	return nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "icexp:", err)
	os.Exit(1)
}
