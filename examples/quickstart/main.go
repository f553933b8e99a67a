// Quickstart: build a small program against the IR API, run the
// IMPACT-I placement pipeline on it, and measure how the optimized
// layout changes instruction cache behaviour.
//
// Run with:
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"

	"impact/internal/cache"
	"impact/internal/core"
	"impact/internal/interp"
	"impact/internal/ir"
	"impact/internal/layout"
)

// buildProgram assembles a tiny "image filter" style program by hand:
// main runs a pixel loop that calls two helpers, with a cold
// error-handling function off the hot path.
func buildProgram() *ir.Program {
	pb := ir.NewProgramBuilder()

	clamp := pb.NewFunc("clamp")
	cb := clamp.NewBlock()
	clamp.Fill(cb, 6)
	clamp.Ret(cb)

	blend := pb.NewFunc("blend")
	bb := blend.NewBlock()
	hot := blend.NewBlock()
	rare := blend.NewBlock()
	join := blend.NewBlock()
	blend.Fill(bb, 4)
	blend.Branch(bb, ir.Arc{To: hot, Prob: 0.97}, ir.Arc{To: rare, Prob: 0.03})
	blend.Fill(hot, 5)
	blend.FallThrough(hot, join)
	blend.Fill(rare, 12)
	blend.Jump(rare, join)
	blend.Fill(join, 2)
	blend.Ret(join)

	oops := pb.NewFunc("report_error")
	ob := oops.NewBlock()
	oops.Fill(ob, 40)
	oops.Ret(ob)

	m := pb.NewFunc("main")
	entry := m.NewBlock()
	loop := m.NewBlock()
	bad := m.NewBlock()
	exit := m.NewBlock()
	m.Fill(entry, 4)
	m.FallThrough(entry, loop)
	m.Fill(loop, 3)
	m.Call(loop, clamp.ID())
	m.Fill(loop, 2)
	m.Call(loop, blend.ID())
	m.Branch(loop,
		ir.Arc{To: loop, Prob: 0.995},
		ir.Arc{To: exit, Prob: 0.0045},
		ir.Arc{To: bad, Prob: 0.0005})
	m.Call(bad, oops.ID())
	m.Jump(bad, exit)
	m.Fill(exit, 2)
	m.Ret(exit)
	pb.SetEntry(m.ID())
	return pb.Build()
}

func main() {
	prog := buildProgram()
	fmt.Printf("program: %d functions, %d blocks, %d bytes of code\n",
		len(prog.Funcs), prog.NumBlocks(), prog.Bytes())

	// Step 1-5 of the paper's pipeline: profile on a few inputs
	// (seeds), inline hot calls, select traces, lay out functions, and
	// place them globally.
	cfg := core.DefaultConfig(1, 2, 3, 4, 5)
	res, err := core.Optimize(prog, cfg)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("pipeline: inlined %d call sites, code %+.0f%%, %.0f%% of dynamic calls eliminated\n",
		res.InlineReport.SitesInlined,
		res.InlineReport.CodeIncrease()*100,
		res.CallDecrease()*100)
	fmt.Printf("layout:   %d bytes effective, %d bytes cold\n\n",
		res.EffectiveBytes, res.TotalBytes-res.EffectiveBytes)

	// Evaluate on a held-out input: trace the optimized program and
	// the natural-layout baseline through a small direct-mapped cache.
	const evalSeed = 99
	optTr, _, err := layout.Trace(res.Layout, evalSeed, interp.Config{})
	if err != nil {
		log.Fatal(err)
	}
	natTr, _, err := layout.Trace(layout.Natural(prog), evalSeed, interp.Config{})
	if err != nil {
		log.Fatal(err)
	}

	cacheCfg := cache.Config{SizeBytes: 256, BlockBytes: 32, Assoc: 1}
	so, err := cache.Simulate(cacheCfg, optTr)
	if err != nil {
		log.Fatal(err)
	}
	sn, err := cache.Simulate(cacheCfg, natTr)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("cache %s:\n", cacheCfg)
	fmt.Printf("  natural layout:   miss %6.3f%%  traffic %6.2f%%\n",
		sn.MissRatio()*100, sn.TrafficRatio()*100)
	fmt.Printf("  optimized layout: miss %6.3f%%  traffic %6.2f%%\n",
		so.MissRatio()*100, so.TrafficRatio()*100)
}
