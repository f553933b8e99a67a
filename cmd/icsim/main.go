// Command icsim runs the instruction cache simulator over a saved
// trace file (written by `impact trace`).
//
// Usage:
//
//	icsim -trace prog.itr [-size 2048] [-block 64] [-assoc 1]
//	      [-sizes 512,1024,...] [-sector 0] [-partial]
//	      [-replacement lru|fifo|random] [-prefetch] [-latency 0]
//	      [-cwf=true] [-paging] [-page-bytes 4096] [-frames 8]
//	      [-v] [-metrics-out m.json] [-cpuprofile f] [-memprofile f]
//
// It prints the miss ratio, memory traffic ratio, and (for partial
// loading or sectoring) the paper's avg.fetch and avg.exec metrics.
// With -latency > 0 the cycle-level timing model of the paper's
// section 4.2.1 is enabled and stall cycles plus the effective access
// time are reported; -cwf=false disables critical-word-first load
// forwarding. -prefetch adds next-block prefetch-on-miss (whole-block
// fill only) and reports prefetch accuracy.
//
// -paging additionally tees the same streaming pass into the LRU
// demand-paging simulator at the -page-bytes/-frames geometry and
// reports page faults and the touched-page footprint.
//
// A cache or paging geometry no simulator accepts, or an unknown
// -replacement policy, exits with status 2 before the trace file is
// opened.
//
// -sizes replaces -size with a comma-separated cache size sweep.
//
// The trace is never materialized: runs stream from the file
// (memtrace.Reader) in one pass into a sweep plan, so memory stays
// constant regardless of trace length. The plan measures the requested
// organisations the way the experiments engine does: LRU stack passes
// where they pay (a whole-block LRU sweep sharing one set count, or a
// cache wider than 8 ways), one fan-out replay for the rest (see
// docs/PERFORMANCE.md).
package main

import (
	"flag"
	"fmt"
	"log/slog"
	"os"

	"impact/internal/cache"
	"impact/internal/cache/sweep"
	"impact/internal/cliutil"
	"impact/internal/memtrace"
	"impact/internal/obs"
	"impact/internal/paging"
	"impact/internal/texttable"
)

func main() {
	tracePath := flag.String("trace", "", "trace file (required)")
	cf := cliutil.AddCacheFlags(flag.CommandLine)
	replacement := flag.String("replacement", "lru", "replacement policy: lru, fifo, or random")
	prefetch := flag.Bool("prefetch", false, "prefetch the next sequential block on every demand miss")
	latency := flag.Int("latency", 0, "memory initial access latency in cycles (0 = timing model off)")
	cwf := flag.Bool("cwf", true, "critical-word-first load forwarding (timing model)")
	usePaging := flag.Bool("paging", false, "also stream the trace through the LRU demand-paging simulator")
	pf := cliutil.AddPagingFlags(flag.CommandLine)
	common := cliutil.AddFlags(flag.CommandLine)
	flag.Parse()
	if err := common.Start("icsim"); err != nil {
		fatal(err)
	}

	if *tracePath == "" {
		flag.Usage()
		os.Exit(2)
	}
	repl, err := cache.ParseReplacement(*replacement)
	if err != nil {
		cliutil.ExitUsage("icsim", cliutil.InvalidValue("replacement", *replacement, err))
	}
	if *latency < 0 {
		cliutil.ExitUsage("icsim", fmt.Errorf("invalid value %d for flag -latency: must be >= 0", *latency))
	}
	cfg := cf.Config()
	cfg.Replacement = repl
	cfg.PrefetchNext = *prefetch
	if *latency > 0 {
		cfg.Timing = &cache.TimingConfig{InitialLatency: *latency, CriticalWordFirst: *cwf}
	}
	if err := cf.Check(cfg); err != nil {
		cliutil.ExitUsage("icsim", err)
	}
	if err := pf.Check(); err != nil {
		cliutil.ExitUsage("icsim", err)
	}
	sizeList, err := cf.SizeList()
	if err != nil {
		fatal(err)
	}
	f, err := os.Open(*tracePath)
	if err != nil {
		fatal(err)
	}
	defer f.Close()
	rd, err := memtrace.NewReader(f)
	if err != nil {
		fatal(err)
	}

	cfgs := []cache.Config{cfg}
	var sp *obs.Span
	if sizeList != nil {
		cfgs = make([]cache.Config, len(sizeList))
		for i, size := range sizeList {
			cfgs[i] = cfg
			cfgs[i].SizeBytes = size
		}
		sp = common.Registry.Span("icsim/sweep")
		sp.SetAttrInt("sizes", int64(len(sizeList)))
	} else {
		sp = common.Registry.Span("icsim/simulate")
		sp.SetAttr("cache", cfg.String())
	}
	plan, err := sweep.NewPlan(cfgs...)
	if err != nil {
		sp.End()
		fatal(err)
	}
	// One streaming pass feeds the plan, the run counter and, with
	// -paging, the demand-paging simulator.
	var count memtrace.RunCount
	sinks := []memtrace.Sink{plan, &count}
	var pager *paging.Simulator
	if *usePaging {
		if pager, err = paging.NewSimulator(pf.Config()); err != nil {
			sp.End()
			fatal(err)
		}
		sinks = append(sinks, pager)
	}
	if err := rd.Replay(memtrace.Tee(sinks...)); err != nil {
		sp.End()
		fatal(err)
	}
	stats := plan.Stats()
	sp.End()
	slog.Debug("trace streamed", "file", *tracePath, "instrs", count.Instrs, "runs", count.Runs)

	if sizeList != nil {
		printSweep(cfg, stats, sizeList, *tracePath, count)
	} else {
		printSingle(cfg, stats[0], *tracePath, count)
	}
	printPaging(pager)
	common.MustClose()
}

// printSingle reports one organisation's statistics.
func printSingle(cfg cache.Config, stats cache.Stats, tracePath string, count memtrace.RunCount) {
	fmt.Printf("trace:    %s (%d instruction fetches, %d runs)\n", tracePath, count.Instrs, count.Runs)
	fmt.Printf("cache:    %s\n", cfg)
	fmt.Printf("misses:   %d\n", stats.Misses)
	fmt.Printf("miss:     %.4f%%\n", stats.MissRatio()*100)
	fmt.Printf("traffic:  %.4f%%\n", stats.TrafficRatio()*100)
	if cfg.PartialLoad || cfg.SectorBytes != 0 {
		fmt.Printf("avg.fetch: %.1f words\n", stats.AvgFetchWords())
	}
	if stats.ExecRuns > 0 {
		fmt.Printf("avg.exec:  %.1f instructions\n", stats.AvgExecWords())
	}
	if cfg.PrefetchNext {
		fmt.Printf("prefetches: %d (%.1f%% used)\n", stats.Prefetches, stats.PrefetchAccuracy()*100)
	}
	if cfg.Timing != nil {
		fmt.Printf("stall cycles: %d\n", stats.StallCycles)
		fmt.Printf("cycles:       %d\n", stats.Cycles())
		fmt.Printf("eff. access:  %.3f cycles/fetch\n", stats.EffectiveAccessTime())
	}
}

// printPaging reports the teed demand-paging simulation, if one ran.
func printPaging(pager *paging.Simulator) {
	if pager == nil {
		return
	}
	st := pager.Stats()
	fmt.Printf("paging:   %d faults (%.1f per M fetches), %d pages touched\n",
		st.Faults, st.FaultRate(), st.PagesTouched)
}

// printSweep reports a -sizes sweep, one row per size.
func printSweep(template cache.Config, stats []cache.Stats, sizeList []int, tracePath string, count memtrace.RunCount) {
	desc := fmt.Sprintf("%dB blocks", template.BlockBytes)
	switch template.Assoc {
	case 0:
		desc += ", fully associative"
	case 1:
		desc += ", direct-mapped"
	default:
		desc += fmt.Sprintf(", %d-way", template.Assoc)
	}
	if template.Replacement != cache.LRU {
		desc += ", " + template.Replacement.String()
	}
	if template.SectorBytes != 0 {
		desc += fmt.Sprintf(", sector=%d", template.SectorBytes)
	}
	if template.PartialLoad {
		desc += ", partial"
	}
	if template.PrefetchNext {
		desc += ", prefetch"
	}
	if template.Timing != nil {
		desc += fmt.Sprintf(", latency=%d", template.Timing.InitialLatency)
	}
	fmt.Printf("trace:    %s (%d instruction fetches, %d runs)\n", tracePath, count.Instrs, count.Runs)
	fmt.Printf("template: %s\n", desc)
	t := texttable.New("", "size", "misses", "miss", "traffic", "avg.exec")
	for i, st := range stats {
		t.Row(sizeList[i], st.Misses, texttable.Pct3(st.MissRatio()),
			texttable.Pct(st.TrafficRatio()), fmt.Sprintf("%.1f", st.AvgExecWords()))
	}
	fmt.Print(t)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "icsim:", err)
	os.Exit(1)
}
