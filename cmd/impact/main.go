// Command impact drives the IMPACT-I instruction placement pipeline
// over the synthetic benchmark suite.
//
// Subcommands:
//
//	impact list
//	    List the available benchmarks and their characteristics.
//
//	impact profile -bench <name> [-scale 1.0]
//	    Profile a benchmark and print its weighted call graph summary.
//
//	impact layout -bench <name> [-scale 1.0] [-strategy full|natural|...]
//	    Run the placement pipeline and print the memory layout.
//
//	impact trace -bench <name> -o <file> [-scale 1.0] [-strategy ...]
//	    Write the evaluation instruction-fetch trace to a file (for
//	    icsim).
//
//	impact simulate -bench <name> [-scale 1.0] [cache flags]
//	    End to end: place, trace, and simulate one benchmark,
//	    comparing the optimized layout against the natural baseline.
//
//	impact analyze -bench <name> [-scale 1.0] [-strategy ...] [cache flags]
//	    Statically analyze a layout without decoding any trace: layout
//	    quality score, hot cache-set conflicts, and must/may miss
//	    bounds (add -measure to also simulate and verify the bracket;
//	    add -json for machine-readable output).
//
//	impact search [-scale 1.0] [-bench <name>] [-seed 1] [-budget N]
//	    [-restarts N] [-workers N] [cache flags]
//	    Run the conflict-driven layout search against the greedy
//	    pipeline and print the simulator-priced comparison (see
//	    docs/SEARCH.md). -budget is the total candidate evaluations
//	    across all climbs (> 0). The climbs race on a portfolio of
//	    incremental analyzers; the result is identical at any
//	    -workers count.
//
//	impact check -bench <name> [-all] [-scale 1.0] [-strategy ...]
//	    Run the pipeline with the internal/check verifier enabled and
//	    report every diagnostic; non-zero exit on invariant
//	    violations (see docs/VERIFICATION.md).
//
//	impact dump -bench <name> [-o <file>] [-inlined]
//	    Write the benchmark program in the textual IR format
//	    (optionally after inline expansion).
//
//	impact run -ir <file> [-seeds 1,2,3,4] [-eval 99] [-report] [cache flags]
//	    Run the whole pipeline on a user-supplied program in the
//	    textual IR format (see docs/FORMATS.md) and compare the
//	    optimized layout against the natural baseline. -report adds
//	    the per-stage locality ledger. Add -trace-out to capture the
//	    run's execution timeline.
//
// -workers N, on search, simulate and run, sets GOMAXPROCS, the worker
// count of every parallel pool: suite preparation, the sweep engine's
// trace passes and the search portfolio. Zero keeps the default, and
// one runs each pool on one worker.
//
// Every subcommand checks its flags right after parsing: a missing
// required flag, an unknown -bench, -strategy or -layout, a malformed
// -seeds list, or a geometry no simulator accepts exits with status 2
// before any benchmark is built or file opened.
package main

import (
	"flag"
	"fmt"
	"io"
	"log/slog"
	"os"
	"sort"
	"strconv"
	"strings"

	"impact/internal/check"
	"impact/internal/cliutil"
	"impact/internal/core"
	"impact/internal/experiments"
	"impact/internal/interp"
	"impact/internal/ir"
	"impact/internal/layout"
	"impact/internal/memtrace"
	"impact/internal/obs"
	"impact/internal/paging"
	"impact/internal/profile"
	"impact/internal/texttable"
	"impact/internal/workload"
)

func main() {
	if len(os.Args) < 2 {
		usage()
	}
	switch os.Args[1] {
	case "list":
		cmdList(os.Args[2:])
	case "profile":
		cmdProfile(os.Args[2:])
	case "layout":
		cmdLayout(os.Args[2:])
	case "trace":
		cmdTrace(os.Args[2:])
	case "simulate":
		cmdSimulate(os.Args[2:])
	case "analyze":
		cmdAnalyze(os.Args[2:])
	case "search":
		cmdSearch(os.Args[2:])
	case "check":
		cmdCheck(os.Args[2:])
	case "dump":
		cmdDump(os.Args[2:])
	case "run":
		cmdRun(os.Args[2:])
	default:
		usage()
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, "usage: impact {list|profile|layout|trace|simulate|analyze|search|check|dump|run} [flags]")
	os.Exit(2)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "impact:", err)
	os.Exit(1)
}

// checkGeometry rejects, with exit status 2, cache flags no simulator
// accepts and, when pf is non-nil, invalid paging flags — right after
// parsing, before any benchmark is prepared.
func checkGeometry(cf *cliutil.CacheFlags, pf *cliutil.PagingFlags) {
	if err := cf.Check(cf.Config()); err != nil {
		cliutil.ExitUsage("impact", err)
	}
	if pf != nil {
		if err := pf.Check(); err != nil {
			cliutil.ExitUsage("impact", err)
		}
	}
}

// checkCount rejects a negative count flag right after parsing: a
// usage error naming the flag, not a silently empty report or search.
func checkCount(name string, v int) {
	if v < 0 {
		cliutil.ExitUsage("impact", fmt.Errorf("invalid value %d for flag -%s: must be >= 0", v, name))
	}
}

// requireFlag rejects a missing required flag right after parsing.
func requireFlag(name, value string) {
	if value == "" {
		cliutil.ExitUsage("impact", fmt.Errorf("missing required flag -%s", name))
	}
}

func benchFlag(fs *flag.FlagSet) (*string, *float64) {
	name := fs.String("bench", "", "benchmark name (see `impact list`)")
	return name, cliutil.AddScaleFlag(fs)
}

// checkBench rejects a -bench that names no suite benchmark right
// after parsing, before anything is built; an empty name passes.
func checkBench(name string) {
	if name == "" {
		return
	}
	for _, p := range workload.SuiteParams() {
		if p.Name == name {
			return
		}
	}
	cliutil.ExitUsage("impact", cliutil.InvalidValue("bench", name,
		fmt.Errorf("unknown benchmark %q (see impact list)", name)))
}

// mustBench builds the benchmark -bench names; a missing or unknown
// name is a usage error.
func mustBench(name string, scale float64) *workload.Benchmark {
	requireFlag("bench", name)
	checkBench(name)
	return workload.ByName(name, scale)
}

// startCommon parses fs with the shared observability flags attached
// and starts the Common lifecycle.
func startCommon(fs *flag.FlagSet, args []string) *cliutil.Common {
	common := cliutil.AddFlags(fs)
	fs.Parse(args)
	if err := common.Start("impact"); err != nil {
		fatal(err)
	}
	return common
}

func cmdList(args []string) {
	fs := flag.NewFlagSet("list", flag.ExitOnError)
	common := startCommon(fs, args)
	defer common.MustClose()
	t := texttable.New("Benchmarks",
		"name", "funcs", "blocks", "static", "runs", "target instrs", "input description")
	for _, p := range workload.SuiteParams() {
		b := workload.MustBuild(p)
		t.Row(p.Name, len(b.Prog.Funcs), b.Prog.NumBlocks(),
			texttable.KB(b.Prog.Bytes()), p.ProfileRuns,
			texttable.Mega(p.TargetInstrs), p.InputDesc)
	}
	fmt.Print(t.String())
}

func cmdProfile(args []string) {
	fs := flag.NewFlagSet("profile", flag.ExitOnError)
	name, scale := benchFlag(fs)
	top := fs.Int("top", 15, "number of hottest functions to print")
	common := startCommon(fs, args)
	defer common.MustClose()
	checkCount("top", *top)
	b := mustBench(*name, *scale)

	w, _, err := profile.Profile(b.Prog, profile.Config{
		Seeds:  b.ProfileSeeds,
		Interp: b.InterpConfig(),
		Obs:    common.Registry,
	})
	if err != nil {
		fatal(err)
	}

	fmt.Printf("benchmark %s: %d runs, %d dynamic instructions, %d calls, %d branches\n",
		b.Name(), w.Runs, w.DynInstrs, w.DynCalls, w.DynBranches)
	fmt.Printf("static %s, effective %s\n\n",
		texttable.KB(b.Prog.Bytes()), texttable.KB(w.EffectiveBytes(b.Prog)))

	type fw struct {
		f ir.FuncID
		w uint64
	}
	var funcs []fw
	for _, f := range b.Prog.Funcs {
		funcs = append(funcs, fw{f.ID, w.FuncWeight(f.ID)})
	}
	sort.Slice(funcs, func(i, j int) bool {
		if funcs[i].w != funcs[j].w {
			return funcs[i].w > funcs[j].w
		}
		return funcs[i].f < funcs[j].f
	})
	t := texttable.New("Hottest functions", "function", "entries", "bytes")
	for i, e := range funcs {
		if i >= *top {
			break
		}
		t.Row(b.Prog.Funcs[e.f].Name, e.w, b.Prog.Funcs[e.f].Bytes())
	}
	fmt.Print(t.String())
}

func strategyByName(name string) (core.Strategy, error) {
	switch name {
	case "full":
		return core.FullStrategy(), nil
	case "natural":
		return core.NaturalStrategy(), nil
	case "no-inline":
		return core.Strategy{TraceLayout: true, GlobalDFS: true, SplitCold: true}, nil
	case "trace-only":
		return core.Strategy{TraceLayout: true}, nil
	case "no-split":
		return core.Strategy{Inline: true, TraceLayout: true, GlobalDFS: true}, nil
	}
	return core.Strategy{}, fmt.Errorf("unknown strategy %q (want full, natural, no-inline, trace-only, or no-split)", name)
}

// mustStrategy resolves -strategy right after parsing; an unknown name
// is a usage error.
func mustStrategy(name string) core.Strategy {
	st, err := strategyByName(name)
	if err != nil {
		cliutil.ExitUsage("impact", cliutil.InvalidValue("strategy", name, err))
	}
	return st
}

func optimize(b *workload.Benchmark, st core.Strategy, reg *obs.Registry) *core.Result {
	cfg := core.DefaultConfig(b.ProfileSeeds...)
	cfg.Interp = b.InterpConfig()
	cfg.Strategy = st
	cfg.Obs = reg
	res, err := core.Optimize(b.Prog, cfg)
	if err != nil {
		fatal(err)
	}
	return res
}

func cmdLayout(args []string) {
	fs := flag.NewFlagSet("layout", flag.ExitOnError)
	name, scale := benchFlag(fs)
	strategy := fs.String("strategy", "full", "placement strategy")
	common := startCommon(fs, args)
	defer common.MustClose()
	st := mustStrategy(*strategy)
	b := mustBench(*name, *scale)
	res := optimize(b, st, common.Registry)

	fmt.Printf("benchmark %s, strategy %s\n", b.Name(), *strategy)
	fmt.Printf("inlined %d call sites (code %+.1f%%), program %s, effective %s\n\n",
		res.InlineReport.SitesInlined, res.InlineReport.CodeIncrease()*100,
		texttable.KB(res.TotalBytes), texttable.KB(res.EffectiveBytes))

	type span struct {
		f    *ir.Function
		lo   uint32
		size int
		hot  bool
	}
	var spans []span
	for _, f := range res.Prog.Funcs {
		// A function's effective part starts at the address of its
		// first placed block.
		o := res.Orders[f.ID]
		if o.EffectiveBlocks > 0 {
			lo := res.Layout.BlockAddr(f.ID, o.Blocks[0])
			spans = append(spans, span{f, lo, o.EffectiveBytes(f), true})
		}
		if o.EffectiveBlocks < len(o.Blocks) {
			lo := res.Layout.BlockAddr(f.ID, o.Blocks[o.EffectiveBlocks])
			spans = append(spans, span{f, lo, f.Bytes() - o.EffectiveBytes(f), false})
		}
	}
	sort.Slice(spans, func(i, j int) bool { return spans[i].lo < spans[j].lo })
	t := texttable.New("Memory layout", "address", "function", "region", "bytes")
	for _, s := range spans {
		region := "effective"
		if !s.hot {
			region = "cold"
		}
		t.Row(fmt.Sprintf("0x%06x", s.lo), s.f.Name, region, s.size)
	}
	fmt.Print(t.String())
}

func cmdTrace(args []string) {
	fs := flag.NewFlagSet("trace", flag.ExitOnError)
	name, scale := benchFlag(fs)
	strategy := fs.String("strategy", "full", "placement strategy (or 'random')")
	out := fs.String("o", "", "output trace file (required)")
	common := startCommon(fs, args)
	defer common.MustClose()
	var st core.Strategy
	if *strategy != "random" {
		st = mustStrategy(*strategy)
	}
	requireFlag("o", *out)
	b := mustBench(*name, *scale)

	var lay *layout.Layout
	if *strategy == "random" {
		lay = layout.Random(b.Prog, 1)
	} else {
		lay = optimize(b, st, common.Registry).Layout
	}

	f, err := os.Create(*out)
	if err != nil {
		fatal(err)
	}
	defer f.Close()
	// The trace streams from the execution engine straight into the
	// encoder — it is never materialized, so arbitrarily long traces
	// write in constant memory.
	wr := memtrace.NewWriter(f)
	var count memtrace.RunCount
	runRes, err := layout.Stream(lay, b.EvalSeed, b.EvalConfig(), memtrace.Tee(wr, &count))
	if err != nil {
		fatal(err)
	}
	if err := wr.Close(); err != nil {
		fatal(err)
	}
	fmt.Printf("wrote %s: %d instruction fetches, %d runs (completed=%v)\n",
		*out, count.Instrs, count.Runs, runRes.Completed)
}

func cmdSimulate(args []string) {
	fs := flag.NewFlagSet("simulate", flag.ExitOnError)
	name, scale := benchFlag(fs)
	cf := cliutil.AddCacheFlags(fs)
	layoutSel := fs.String("layout", "both", "layouts to simulate: both, opt, or nat")
	usePaging := fs.Bool("paging", false, "also run the LRU demand-paging simulator on each layout")
	pf := cliutil.AddPagingFlags(fs)
	cliutil.AddWorkersFlag(fs)
	common := startCommon(fs, args)
	defer common.MustClose()
	checkGeometry(cf, pf)
	wantOpt := *layoutSel == "both" || *layoutSel == "opt"
	wantNat := *layoutSel == "both" || *layoutSel == "nat"
	if !wantOpt && !wantNat {
		cliutil.ExitUsage("impact", cliutil.InvalidValue("layout", *layoutSel,
			fmt.Errorf("unknown layout %q (want both, opt, or nat)", *layoutSel)))
	}
	b := mustBench(*name, *scale)

	cfg := cf.Config()
	type laid struct {
		label string
		tr    *memtrace.Trace
	}
	var runs []laid
	trace := func(label string, lay *layout.Layout) {
		runs = append(runs, laid{label, evalTrace(common.Registry, label, lay, b.EvalSeed, b.EvalConfig())})
	}
	if wantOpt {
		trace("optimized", optimize(b, core.FullStrategy(), common.Registry).Layout)
	}
	if wantNat {
		trace("natural", layout.Natural(b.Prog))
	}

	// The layouts measure through a sweep engine: size sweeps collapse
	// into stack passes where the organisation permits, and concurrent
	// layouts simulate on the worker pool.
	eng := experiments.NewEngine()
	eng.AttachObs(common.Registry)

	sizeList, err := cf.SizeList()
	if err != nil {
		fatal(err)
	}
	// One batch measures every layout at every size, so a size sweep
	// of both layouts is planned at once.
	sizes := sizeList
	if sizes == nil {
		sizes = []int{cfg.SizeBytes}
	}
	var reqs []experiments.SimRequest
	for _, r := range runs {
		for _, size := range sizes {
			c := cfg
			c.SizeBytes = size
			reqs = append(reqs, experiments.SimRequest{Trace: r.tr, Config: c})
		}
	}
	stats, err := eng.Batch(reqs)
	if err != nil {
		fatal(err)
	}
	if sizeList != nil {
		cols := []string{"size"}
		for _, r := range runs {
			short := r.label[:3]
			cols = append(cols, short+" miss", short+" traffic")
		}
		t := texttable.New(fmt.Sprintf("%s size sweep (%dB blocks)", b.Name(), cfg.BlockBytes), cols...)
		for i, size := range sizeList {
			row := []any{size}
			for j := range runs {
				st := stats[j*len(sizeList)+i]
				row = append(row, texttable.Pct3(st.MissRatio()), texttable.Pct(st.TrafficRatio()))
			}
			t.Row(row...)
		}
		fmt.Print(t.String())
	} else {
		t := texttable.New(fmt.Sprintf("%s on %s", b.Name(), cfg),
			"layout", "miss", "traffic", "misses", "accesses")
		for i, r := range runs {
			st := stats[i]
			t.Row(r.label, texttable.Pct3(st.MissRatio()), texttable.Pct(st.TrafficRatio()), st.Misses, st.Accesses)
		}
		fmt.Print(t.String())
	}

	// Paging does not depend on the cache size, so a size sweep
	// prints the same paging table as one size does.
	if *usePaging {
		pcfg := pf.Config()
		pt := texttable.New(fmt.Sprintf("%s paging (%s)", b.Name(), pcfg),
			"layout", "faults", "faults/M", "pages touched")
		for _, r := range runs {
			st, err := paging.Simulate(pcfg, r.tr)
			if err != nil {
				fatal(err)
			}
			pt.Row(r.label, st.Faults, fmt.Sprintf("%.1f", st.FaultRate()), st.PagesTouched)
		}
		fmt.Print(pt.String())
	}
}

// cmdCheck runs the placement pipeline with the internal/check
// verifier enabled and reports every diagnostic. The exit status is
// non-zero when any benchmark produces an error-severity diagnostic.
func cmdCheck(args []string) {
	fs := flag.NewFlagSet("check", flag.ExitOnError)
	name, scale := benchFlag(fs)
	strategy := fs.String("strategy", "full", "placement strategy")
	all := fs.Bool("all", false, "check every benchmark in the suite")
	common := startCommon(fs, args)
	defer common.MustClose()
	st := mustStrategy(*strategy)
	var benches []*workload.Benchmark
	if *all {
		benches = workload.Suite(*scale)
	} else {
		benches = []*workload.Benchmark{mustBench(*name, *scale)}
	}

	failed := false
	t := texttable.New(fmt.Sprintf("Pipeline verification (strategy %s)", *strategy),
		"benchmark", "analyzer runs", "errors", "warnings")
	for _, b := range benches {
		cfg := core.DefaultConfig(b.ProfileSeeds...)
		cfg.Interp = b.InterpConfig()
		cfg.Strategy = st
		cfg.Obs = common.Registry
		// Warn mode collects everything; strictness is applied here so
		// one broken benchmark does not hide diagnostics of the rest.
		cfg.Check = check.Warn
		res, err := core.Optimize(b.Prog, cfg)
		if err != nil {
			fatal(err)
		}
		rep := res.Checks
		t.Row(b.Name(), rep.Runs, rep.Errors(), rep.Warnings())
		if len(rep.Diags) > 0 {
			fmt.Printf("%s:\n%s", b.Name(), rep)
		}
		if rep.Errors() > 0 {
			failed = true
		}
	}
	fmt.Print(t.String())
	if failed {
		os.Exit(1)
	}
}

func cmdDump(args []string) {
	fs := flag.NewFlagSet("dump", flag.ExitOnError)
	name, scale := benchFlag(fs)
	out := fs.String("o", "", "output file (default stdout)")
	inlined := fs.Bool("inlined", false, "dump the program after inline expansion")
	common := startCommon(fs, args)
	defer common.MustClose()
	b := mustBench(*name, *scale)

	prog := b.Prog
	if *inlined {
		prog = optimize(b, core.FullStrategy(), common.Registry).Prog
	}
	w := io.Writer(os.Stdout)
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		w = f
	}
	if err := ir.Encode(w, prog); err != nil {
		fatal(err)
	}
}

// evalTrace traces the evaluation run of lay, the layout named label,
// on seed under cfg. A run the instruction cap stopped is logged with
// a structured warning, so scripted callers can detect a truncated
// evaluation, and counted in interp.eval_capped.
func evalTrace(reg *obs.Registry, label string, lay *layout.Layout, seed uint64, cfg interp.Config) *memtrace.Trace {
	tr, run, err := layout.Trace(lay, seed, cfg)
	if err != nil {
		fatal(err)
	}
	if !run.Completed {
		slog.Warn("evaluation run hit the instruction cap",
			"layout", label, "cap", cfg.MaxSteps, "executed", run.Instrs)
		reg.Counter("interp.eval_capped").Inc()
	}
	return tr
}

// cmdRun applies the pipeline to an external program: decode the IR,
// profile it on the given seeds, place it, trace a held-out input,
// and simulate both layouts.
func cmdRun(args []string) {
	fs := flag.NewFlagSet("run", flag.ExitOnError)
	irPath := fs.String("ir", "", "program in textual IR format (required)")
	seedsArg := fs.String("seeds", "1,2,3,4", "comma-separated profiling seeds")
	evalSeed := fs.Uint64("eval", 99, "evaluation input seed")
	maxSteps := fs.Uint64("maxsteps", 50_000_000, "per-run instruction cap")
	report := fs.Bool("report", false, "print the per-stage locality ledger")
	cf := cliutil.AddCacheFlags(fs)
	cliutil.AddWorkersFlag(fs)
	common := startCommon(fs, args)
	defer common.MustClose()
	checkGeometry(cf, nil)
	requireFlag("ir", *irPath)
	if *maxSteps == 0 {
		cliutil.ExitUsage("impact", fmt.Errorf("invalid value 0 for flag -maxsteps: must be > 0"))
	}
	var seeds []uint64
	for _, s := range strings.Split(*seedsArg, ",") {
		v, err := strconv.ParseUint(strings.TrimSpace(s), 10, 64)
		if err != nil {
			cliutil.ExitUsage("impact", cliutil.InvalidValue("seeds", *seedsArg,
				fmt.Errorf("seed %q is not an unsigned integer", s)))
		}
		seeds = append(seeds, v)
	}

	f, err := os.Open(*irPath)
	if err != nil {
		fatal(err)
	}
	prog, err := ir.Decode(f)
	f.Close()
	if err != nil {
		fatal(err)
	}

	cfg := core.DefaultConfig(seeds...)
	cfg.Interp = interp.Config{MaxSteps: *maxSteps}
	cfg.Obs = common.Registry
	cfg.Ledger = *report
	res, err := core.Optimize(prog, cfg)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("program %s: %d funcs, %s -> %s after inlining (%d sites), effective %s\n",
		*irPath, len(prog.Funcs), texttable.KB(prog.Bytes()),
		texttable.KB(res.TotalBytes), res.InlineReport.SitesInlined,
		texttable.KB(res.EffectiveBytes))

	optTr := evalTrace(common.Registry, "optimized", res.Layout, *evalSeed, cfg.Interp)
	natTr := evalTrace(common.Registry, "natural", layout.Natural(prog), *evalSeed, cfg.Interp)

	// Both layouts simulate through the sweep engine's worker pool, so
	// they run concurrently and land on separate timeline lanes
	// (sweep-worker-N) in the -trace-out timeline.
	ccfg := cf.Config()
	eng := experiments.NewEngine()
	eng.AttachObs(common.Registry)
	stats, err := eng.Batch([]experiments.SimRequest{
		{Trace: optTr, Config: ccfg},
		{Trace: natTr, Config: ccfg},
	})
	if err != nil {
		fatal(err)
	}
	so, sn := stats[0], stats[1]
	t := texttable.New(fmt.Sprintf("%s on %s (%d fetches)", *irPath, ccfg, optTr.Instrs),
		"layout", "miss", "traffic")
	t.Row("optimized", texttable.Pct3(so.MissRatio()), texttable.Pct(so.TrafficRatio()))
	t.Row("natural", texttable.Pct3(sn.MissRatio()), texttable.Pct(sn.TrafficRatio()))
	fmt.Print(t.String())
	if *report {
		fmt.Println()
		fmt.Print(core.RenderLedger(res.Ledger))
	}
}
