// codescaling reproduces the paper's code density experiment (Table 9)
// interactively for one benchmark: the instruction count of every
// basic block is scaled uniformly — simulating architectures with
// denser or sparser instruction encodings — the placement pipeline
// re-runs, and the 2KB/64B partial-loading cache is measured. The
// program is profiled once, and each scale's profile is derived from
// that one wherever the derivation is provably exact
// (core.Profiled.Scale).
//
// The paper's conclusion, which this example lets you check directly:
// "the cache performance is rather stable" across encodings, because
// the placement algorithm re-packs whatever code the encoding
// produces.
//
// Run with:
//
//	go run ./examples/codescaling [-bench yacc] [-scale 0.3]
package main

import (
	"flag"
	"fmt"
	"log"

	"impact/internal/cache"
	"impact/internal/core"
	"impact/internal/layout"
	"impact/internal/texttable"
	"impact/internal/workload"
)

func main() {
	bench := flag.String("bench", "yacc", "benchmark name")
	scale := flag.Float64("scale", 0.3, "trace length multiplier")
	flag.Parse()

	b := workload.ByName(*bench, *scale)
	if b == nil {
		log.Fatalf("unknown benchmark %q", *bench)
	}

	cfg := core.DefaultConfig(b.ProfileSeeds...)
	cfg.Interp = b.InterpConfig()
	prof, err := core.Profile(b.Prog, cfg)
	if err != nil {
		log.Fatal(err)
	}

	t := texttable.New(
		fmt.Sprintf("code scaling on %s (2KB/64B direct-mapped, partial loading)", b.Name()),
		"scale", "static code", "miss", "traffic", "avg.fetch")
	for _, factor := range []float64{0.5, 0.7, 1.0, 1.1, 1.5} {
		scaled, err := prof.Scale(factor)
		if err != nil {
			log.Fatal(err)
		}
		res, err := core.Place(scaled, cfg)
		if err != nil {
			log.Fatal(err)
		}
		tr, _, err := layout.Trace(res.Layout, b.EvalSeed, b.EvalConfig())
		if err != nil {
			log.Fatal(err)
		}
		st, err := cache.Simulate(cache.Config{
			SizeBytes: 2048, BlockBytes: 64, Assoc: 1, PartialLoad: true,
		}, tr)
		if err != nil {
			log.Fatal(err)
		}
		t.Row(fmt.Sprintf("%.1f", factor), texttable.KB(scaled.Input.Bytes()),
			texttable.Pct3(st.MissRatio()), texttable.Pct(st.TrafficRatio()),
			fmt.Sprintf("%.1f", st.AvgFetchWords()))
	}
	fmt.Print(t.String())
}
