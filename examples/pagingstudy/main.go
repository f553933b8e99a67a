// pagingstudy runs the paper's announced follow-up experiment
// interactively: instruction paging behaviour under the optimized
// layout vs the conventional one.
//
// The paper's section 4.1.3 claims the motivation: "Since the IMPACT-I
// compiler places the effective and ineffective parts of the program
// into different pages, only the effective part needs to be
// accommodated in the main and cache memories. As a result, when a
// page is transferred from the secondary memory to the main memory,
// all the bytes of that page are likely to be used."
//
// This example measures exactly that: page footprint, Denning working
// set, and demand-paging fault rates at several memory budgets.
//
// Run with:
//
//	go run ./examples/pagingstudy [-bench lex] [-scale 0.3] [-page 1024]
package main

import (
	"flag"
	"fmt"
	"log"

	"impact/internal/core"
	"impact/internal/layout"
	"impact/internal/memtrace"
	"impact/internal/paging"
	"impact/internal/texttable"
	"impact/internal/workload"
)

func main() {
	bench := flag.String("bench", "lex", "benchmark name")
	scale := flag.Float64("scale", 0.3, "trace length multiplier")
	pageBytes := flag.Int("page", 1024, "page size in bytes")
	flag.Parse()

	b := workload.ByName(*bench, *scale)
	if b == nil {
		log.Fatalf("unknown benchmark %q", *bench)
	}

	cfg := core.DefaultConfig(b.ProfileSeeds...)
	cfg.Interp = b.InterpConfig()
	res, err := core.Optimize(b.Prog, cfg)
	if err != nil {
		log.Fatal(err)
	}
	optTr, _, err := layout.Trace(res.Layout, b.EvalSeed, b.EvalConfig())
	if err != nil {
		log.Fatal(err)
	}
	natTr, _, err := layout.Trace(layout.Natural(b.Prog), b.EvalSeed, b.EvalConfig())
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("benchmark %s: %s static (%s effective after placement), %d fetches traced\n\n",
		b.Name(), texttable.KB(b.Prog.Bytes()), texttable.KB(res.EffectiveBytes), optTr.Instrs)

	report := func(label string, tr *memtrace.Trace) {
		footprint, err := paging.Simulate(paging.Config{PageBytes: *pageBytes}, tr)
		if err != nil {
			log.Fatal(err)
		}
		ws, err := paging.WorkingSet(tr, *pageBytes, 100_000)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%s layout: %d pages touched, working set %.1f pages\n",
			label, footprint.PagesTouched, ws)

		t := texttable.New("  fault rate vs resident frames",
			"frames", "faults", "faults/Minstr")
		for _, frames := range []int{4, 8, 12, 16, 24} {
			st, err := paging.Simulate(paging.Config{PageBytes: *pageBytes, Frames: frames}, tr)
			if err != nil {
				log.Fatal(err)
			}
			t.Row(frames, st.Faults, fmt.Sprintf("%.1f", st.FaultRate()))
		}
		fmt.Print(t.String())
		fmt.Println()
	}
	report("optimized", optTr)
	report("natural", natTr)

	fmt.Println("The optimized layout needs fewer resident frames for the same fault")
	fmt.Println("rate: the effective/cold split means resident pages carry only code")
	fmt.Println("that actually runs.")
}
