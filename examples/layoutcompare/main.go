// layoutcompare pits five placement strategies against each other on
// one benchmark from the suite, reproducing the repository's A1
// ablation interactively:
//
//	natural     declaration order (conventional compiler output)
//	random      adversarial random placement
//	trace-only  trace selection + function body layout only
//	no-inline   full layout pipeline without inline expansion
//	full        the paper's complete pipeline
//
// Run with:
//
//	go run ./examples/layoutcompare [-bench cccp] [-scale 0.3]
package main

import (
	"flag"
	"fmt"
	"log"

	"impact/internal/cache"
	"impact/internal/core"
	"impact/internal/layout"
	"impact/internal/memtrace"
	"impact/internal/texttable"
	"impact/internal/workload"
)

func main() {
	bench := flag.String("bench", "cccp", "benchmark name")
	scale := flag.Float64("scale", 0.3, "trace length multiplier")
	flag.Parse()

	b := workload.ByName(*bench, *scale)
	if b == nil {
		log.Fatalf("unknown benchmark %q", *bench)
	}
	fmt.Printf("benchmark %s: %s static code, evaluating on a held-out input\n\n",
		b.Name(), texttable.KB(b.Prog.Bytes()))

	strategies := []struct {
		name string
		st   core.Strategy
	}{
		{"trace-only", core.Strategy{TraceLayout: true}},
		{"no-inline", core.Strategy{TraceLayout: true, GlobalDFS: true, SplitCold: true}},
		{"full", core.FullStrategy()},
	}

	traces := map[string]*memtrace.Trace{}

	natTr, _, err := layout.Trace(layout.Natural(b.Prog), b.EvalSeed, b.EvalConfig())
	if err != nil {
		log.Fatal(err)
	}
	traces["natural"] = natTr

	rndTr, _, err := layout.Trace(layout.Random(b.Prog, 7), b.EvalSeed, b.EvalConfig())
	if err != nil {
		log.Fatal(err)
	}
	traces["random"] = rndTr

	// Profile once: the full strategy inlines, so the profiled value
	// holds the input and the inlined program with their weights, and
	// every strategy only places them.
	cfg := core.DefaultConfig(b.ProfileSeeds...)
	cfg.Interp = b.InterpConfig()
	prof, err := core.Profile(b.Prog, cfg)
	if err != nil {
		log.Fatal(err)
	}
	for _, s := range strategies {
		cfg.Strategy = s.st
		res, err := core.Place(prof, cfg)
		if err != nil {
			log.Fatal(err)
		}
		tr, _, err := layout.Trace(res.Layout, b.EvalSeed, b.EvalConfig())
		if err != nil {
			log.Fatal(err)
		}
		traces[s.name] = tr
	}

	order := []string{"natural", "random", "trace-only", "no-inline", "full"}
	t := texttable.New("miss / traffic by cache size (64B blocks, direct-mapped)",
		"strategy", "512B", "1K", "2K", "4K")
	for _, name := range order {
		cells := []any{name}
		for _, size := range []int{512, 1024, 2048, 4096} {
			st, err := cache.Simulate(cache.Config{SizeBytes: size, BlockBytes: 64, Assoc: 1}, traces[name])
			if err != nil {
				log.Fatal(err)
			}
			cells = append(cells, fmt.Sprintf("%.3f%%/%.1f%%", st.MissRatio()*100, st.TrafficRatio()*100))
		}
		t.Row(cells...)
	}
	fmt.Print(t.String())
	fmt.Println("\nReading the table: each pipeline stage buys locality — trace selection")
	fmt.Println("straightens the hot paths, inlining removes call-boundary breaks, the")
	fmt.Println("cold split and DFS order pack the working set into the small cache.")
}
