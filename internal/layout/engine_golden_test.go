package layout_test

import (
	"encoding/binary"
	"errors"
	"flag"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"impact/internal/core"
	"impact/internal/interp"
	"impact/internal/ir"
	"impact/internal/layout"
	"impact/internal/memtrace"
	"impact/internal/profile"
	"impact/internal/workload"
)

var updateEngineGolden = flag.Bool("update", false, "rewrite the engine golden fixture instead of checking it")

// engineGoldenPath is the committed snapshot of the execution engine's
// output over the full benchmark suite.
var engineGoldenPath = filepath.Join("testdata", "engine.golden")

// engineGoldenScale keeps the 22 programs' runs short enough for the
// tier-1 suite.
const engineGoldenScale = 0.05

// TestEngineGolden pins everything the execution engine produces: for
// each of the 22 suite and extended programs, and for the inlined
// program core.Profile re-profiles (inlining creates empty head blocks
// and calls at instruction 0), the complete profile.Profile weights and
// every run's interp.Result, and the evaluation trace under the natural
// and a random layout — each also capped at half its completed length
// to pin the step guard's stopping points. A recursive program pins the
// depth-limit error text. Any change to a branch decision, a count, a
// fetch run or a stopping point fails here.
//
// Regenerate with `go test ./internal/layout -run TestEngineGolden
// -update` — only for a change meant to alter executions or their
// inputs (the suite's programs, seeds or interpreter configuration).
func TestEngineGolden(t *testing.T) {
	var b strings.Builder
	for _, bench := range workload.FullSuite(engineGoldenScale) {
		cfg := core.DefaultConfig(bench.ProfileSeeds...)
		cfg.Interp = bench.InterpConfig()
		pr, err := core.Profile(bench.Prog, cfg)
		if err != nil {
			t.Fatalf("%s: %v", bench.Name(), err)
		}
		for _, prog := range []struct {
			name string
			p    *ir.Program
		}{{"input", pr.Input}, {"inlined", pr.Inlined}} {
			tag := bench.Name() + " " + prog.name
			goldenProfile(t, &b, tag, prog.p, bench.ProfileSeeds, bench.InterpConfig())
			goldenTraces(t, &b, tag, prog.p, bench.EvalSeed, bench.EvalConfig())
		}
	}
	goldenRecursion(t, &b)
	checkGolden(t, engineGoldenPath, b.String())
}

// goldenProfile records one profiling session of p, then each of its
// runs again on its own, capped at half the instructions it completed
// with.
func goldenProfile(t *testing.T, b *strings.Builder, tag string, p *ir.Program, seeds []uint64, icfg interp.Config) {
	t.Helper()
	w, runs, err := profile.Profile(p, profile.Config{Seeds: seeds, Interp: icfg})
	if err != nil {
		t.Fatalf("%s: %v", tag, err)
	}
	fmt.Fprintf(b, "%s profile weights %016x\n", tag, weightsDigest(w))
	for i, res := range runs {
		fmt.Fprintf(b, "%s profile run %d %+v\n", tag, i, res)
	}
	for i, res := range runs {
		capped := icfg
		capped.MaxSteps = max(res.Instrs/2, 1)
		cw, cruns, err := profile.Profile(p, profile.Config{Seeds: seeds[i : i+1], Interp: capped})
		if err != nil {
			t.Fatalf("%s capped run %d: %v", tag, i, err)
		}
		fmt.Fprintf(b, "%s capped run %d maxsteps %d %+v weights %016x\n",
			tag, i, capped.MaxSteps, cruns[0], weightsDigest(cw))
	}
}

// goldenTraces records p's evaluation trace under the natural and a
// random layout, each in full and capped at half its length.
func goldenTraces(t *testing.T, b *strings.Builder, tag string, p *ir.Program, seed uint64, icfg interp.Config) {
	t.Helper()
	for _, l := range []struct {
		name string
		lay  *layout.Layout
	}{{"natural", layout.Natural(p)}, {"random", layout.Random(p, 1)}} {
		tr, res, err := layout.Trace(l.lay, seed, icfg)
		if err != nil {
			t.Fatalf("%s %s: %v", tag, l.name, err)
		}
		fmt.Fprintf(b, "%s trace %s %s %+v\n", tag, l.name, traceDigest(tr), res)
		capped := icfg
		capped.MaxSteps = max(res.Instrs/2, 1)
		tr, res, err = layout.Trace(l.lay, seed, capped)
		if err != nil {
			t.Fatalf("%s %s capped: %v", tag, l.name, err)
		}
		fmt.Fprintf(b, "%s trace %s maxsteps %d %s %+v\n", tag, l.name, capped.MaxSteps, traceDigest(tr), res)
	}
}

// recursiveIR recurses without end: a calls b, b calls a.
const recursiveIR = `program entry=0
func 0 a
block 0 entry
  alu call:1 ret
func 1 b
block 0 entry
  call:0 ret
`

// goldenRecursion records the depth-limit error of a profiling run and
// of a traced run of a program that never stops recursing.
func goldenRecursion(t *testing.T, b *strings.Builder) {
	t.Helper()
	p, err := ir.Decode(strings.NewReader(recursiveIR))
	if err != nil {
		t.Fatal(err)
	}
	icfg := interp.Config{MaxDepth: 64}
	_, _, perr := profile.Profile(p, profile.Config{Seeds: []uint64{1}, Interp: icfg})
	_, res, terr := layout.Trace(layout.Natural(p), 1, icfg)
	for _, err := range []error{perr, terr} {
		if !errors.Is(err, interp.ErrDepthExceeded) {
			t.Fatalf("recursion: err %v, want interp.ErrDepthExceeded", err)
		}
	}
	fmt.Fprintf(b, "recursion profile error: %v\n", perr)
	fmt.Fprintf(b, "recursion trace error: %v %+v\n", terr, res)
}

// weightsDigest hashes every field of w, with the Sites and Pairs maps
// in sorted order.
func weightsDigest(w *profile.Weights) uint64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "%+v\n", w.Funcs)
	sites := make([]ir.CallSite, 0, len(w.Sites))
	for s := range w.Sites {
		sites = append(sites, s)
	}
	sort.Slice(sites, func(i, j int) bool {
		a, b := sites[i], sites[j]
		if a.Func != b.Func {
			return a.Func < b.Func
		}
		if a.Block != b.Block {
			return a.Block < b.Block
		}
		return a.Instr < b.Instr
	})
	for _, s := range sites {
		fmt.Fprintf(h, "site %+v %d\n", s, w.Sites[s])
	}
	pairs := make([]profile.CallPair, 0, len(w.Pairs))
	for p := range w.Pairs {
		pairs = append(pairs, p)
	}
	sort.Slice(pairs, func(i, j int) bool {
		a, b := pairs[i], pairs[j]
		if a.Caller != b.Caller {
			return a.Caller < b.Caller
		}
		return a.Callee < b.Callee
	})
	for _, p := range pairs {
		fmt.Fprintf(h, "pair %+v %d\n", p, w.Pairs[p])
	}
	fmt.Fprintf(h, "%d %d %d %d %d %d\n", w.DynInstrs, w.DynBranches, w.DynCalls, w.DynReturns, w.Runs, w.Capped)
	return h.Sum64()
}

// traceDigest renders a trace's word count, run count and an FNV hash
// of its runs.
func traceDigest(tr *memtrace.Trace) string {
	h := fnv.New64a()
	var buf [8]byte
	for _, r := range tr.Runs {
		binary.LittleEndian.PutUint32(buf[:4], r.Addr)
		binary.LittleEndian.PutUint32(buf[4:], r.Bytes)
		h.Write(buf[:])
	}
	return fmt.Sprintf("instrs %d runs %d fnv %016x", tr.Instrs, len(tr.Runs), h.Sum64())
}

// checkGolden compares got with the fixture at path, or rewrites the
// fixture under -update.
func checkGolden(t *testing.T, path, got string) {
	t.Helper()
	if *updateEngineGolden {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to create the fixture)", err)
	}
	gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	if len(gl) != len(wl) {
		t.Fatalf("golden has %d lines, the engine produced %d", len(wl), len(gl))
	}
	bad := 0
	for i := range gl {
		if gl[i] != wl[i] {
			if bad < 10 {
				t.Errorf("line %d:\n got: %s\nwant: %s", i+1, gl[i], wl[i])
			}
			bad++
		}
	}
	if bad > 0 {
		t.Fatalf("%d of %d golden lines differ", bad, len(wl)-1)
	}
}
