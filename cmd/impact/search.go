package main

import (
	"flag"
	"fmt"
	"log/slog"
	"time"

	"impact/internal/cliutil"
	"impact/internal/experiments"
	"impact/internal/paging"
	"impact/internal/search"
)

// cmdSearch runs the conflict-driven layout search (internal/search)
// against the greedy pipeline on the prepared benchmark suite and
// prints the simulator-priced comparison. The search walks global
// function orders with moves seeded by the analyzer's ranked
// set-pressure conflicts, scored by the incremental analyzer, with
// periodic simulator checkpoints; every emitted layout passes the
// strict layout analyzers before it is priced (see docs/SEARCH.md).
// With -paging the objective gains a page-fault upper-bound term at
// the -page-bytes/-frames geometry, ranked lexicographically after
// the miss bound so it can never trade cache misses for page faults.
func cmdSearch(args []string) {
	fs := flag.NewFlagSet("search", flag.ExitOnError)
	scale := cliutil.AddScaleFlag(fs)
	bench := fs.String("bench", "", "restrict to one benchmark (default: whole suite)")
	seed := fs.Uint64("seed", 1, "search RNG seed")
	budget := fs.Int("budget", search.DefaultBudget, "evaluation budget per restart")
	restarts := fs.Int("restarts", search.DefaultRestarts, "independent restarts")
	workers := cliutil.AddWorkersFlag(fs)
	cf := cliutil.AddCacheFlags(fs)
	usePaging := fs.Bool("paging", false, "add the page-fault term to the search objective (ranked after the miss bound)")
	pf := cliutil.AddPagingFlags(fs)
	common := startCommon(fs, args)
	defer common.MustClose()
	experiments.Configure(experiments.EngineConfig{Workers: *workers})

	ccfg := cf.Config()
	if err := ccfg.Validate(); err != nil {
		fatal(err)
	}

	start := time.Now()
	suite, err := experiments.PrepareWith(*scale, experiments.Options{
		Obs: common.Registry,
		Log: slog.Default(),
	})
	if err != nil {
		fatal(err)
	}
	if *bench != "" {
		kept := suite.Items[:0]
		for _, p := range suite.Items {
			if p.Name() == *bench {
				kept = append(kept, p)
			}
		}
		if len(kept) == 0 {
			fatal(fmt.Errorf("unknown benchmark %q", *bench))
		}
		suite.Items = kept
	}

	scfg := search.Config{
		Seed: *seed, Budget: *budget, Restarts: *restarts,
		Workers: *workers, Obs: common.Registry,
	}
	var pcfg *paging.Config
	if *usePaging {
		c := pf.Config()
		if err := c.Validate(); err != nil {
			fatal(err)
		}
		pcfg = &c
		scfg.Paging = pcfg
	}
	rows, err := experiments.SearchCompare(suite, ccfg, scfg)
	if err != nil {
		fatal(err)
	}
	fmt.Print(experiments.RenderSearchCompare(ccfg, pcfg, rows))
	fmt.Printf("total time %v\n", time.Since(start).Round(time.Millisecond))
}
