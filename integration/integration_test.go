// Package integration wires the whole system together the way the
// command-line tools do — generate, dump/reload through the textual IR
// format, optimize, write traces through the binary trace format, and
// simulate — verifying that every boundary preserves results exactly.
package integration

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"impact/internal/cache"
	"impact/internal/core"
	"impact/internal/ir"
	"impact/internal/layout"
	"impact/internal/memtrace"
	"impact/internal/paging"
	"impact/internal/workload"
)

const testScale = 0.05

func optimizeBench(t *testing.T, b *workload.Benchmark) *core.Result {
	t.Helper()
	cfg := core.DefaultConfig(b.ProfileSeeds...)
	cfg.Interp = b.InterpConfig()
	res, err := core.Optimize(b.Prog, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestTraceFileBoundary: simulating a trace read back from disk gives
// byte-identical statistics to simulating the in-memory trace.
func TestTraceFileBoundary(t *testing.T) {
	b := workload.ByName("yacc", testScale)
	res := optimizeBench(t, b)
	tr, _, err := layout.Trace(res.Layout, b.EvalSeed, b.EvalConfig())
	if err != nil {
		t.Fatal(err)
	}

	path := filepath.Join(t.TempDir(), "yacc.itr")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	w := memtrace.NewWriter(f)
	tr.Replay(w)
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	rf, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer rf.Close()
	rd, err := memtrace.NewReader(rf)
	if err != nil {
		t.Fatal(err)
	}
	loaded := &memtrace.Trace{}
	if err := rd.Replay(loaded); err != nil {
		t.Fatal(err)
	}

	cfg := cache.Config{SizeBytes: 2048, BlockBytes: 64, Assoc: 1}
	direct, err := cache.Simulate(cfg, tr)
	if err != nil {
		t.Fatal(err)
	}
	viaFile, err := cache.Simulate(cfg, loaded)
	if err != nil {
		t.Fatal(err)
	}
	if direct != viaFile {
		t.Fatalf("file boundary changed results: %+v vs %+v", direct, viaFile)
	}
}

// TestTextualIRBoundary: a program dumped to the textual IR format and
// reloaded produces the identical optimized layout and cache numbers.
func TestTextualIRBoundary(t *testing.T) {
	b := workload.ByName("grep", testScale)

	var buf bytes.Buffer
	if err := ir.Encode(&buf, b.Prog); err != nil {
		t.Fatal(err)
	}
	reloaded, err := ir.Decode(&buf)
	if err != nil {
		t.Fatal(err)
	}

	cfg := core.DefaultConfig(b.ProfileSeeds...)
	cfg.Interp = b.InterpConfig()
	res1, err := core.Optimize(b.Prog, cfg)
	if err != nil {
		t.Fatal(err)
	}
	res2, err := core.Optimize(reloaded, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range res1.Prog.Funcs {
		for _, blk := range f.Blocks {
			if res1.Layout.BlockAddr(f.ID, blk.ID) != res2.Layout.BlockAddr(f.ID, blk.ID) {
				t.Fatalf("layout diverged after text round trip at %s/%d", f.Name, blk.ID)
			}
		}
	}
	tr1, _, err := layout.Trace(res1.Layout, b.EvalSeed, b.EvalConfig())
	if err != nil {
		t.Fatal(err)
	}
	tr2, _, err := layout.Trace(res2.Layout, b.EvalSeed, b.EvalConfig())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(tr1.Runs, tr2.Runs) {
		t.Fatal("evaluation traces diverged after text round trip")
	}
}

// TestAllConsumersSeeTheSameAccessCount: the cache simulator (all
// organisations) and the paging simulator must agree with the trace on
// the number of instruction fetches.
func TestAllConsumersSeeTheSameAccessCount(t *testing.T) {
	b := workload.ByName("tar", testScale)
	res := optimizeBench(t, b)
	tr, runRes, err := layout.Trace(res.Layout, b.EvalSeed, b.EvalConfig())
	if err != nil {
		t.Fatal(err)
	}
	if tr.Instrs != runRes.Instrs {
		t.Fatalf("trace %d instrs, engine %d", tr.Instrs, runRes.Instrs)
	}
	cfgs := []cache.Config{
		{SizeBytes: 512, BlockBytes: 16, Assoc: 1},
		{SizeBytes: 2048, BlockBytes: 64, Assoc: 0},
		{SizeBytes: 2048, BlockBytes: 64, Assoc: 1, SectorBytes: 8},
		{SizeBytes: 2048, BlockBytes: 64, Assoc: 1, PartialLoad: true},
		{SizeBytes: 2048, BlockBytes: 64, Assoc: 1, PrefetchNext: true},
	}
	for _, cfg := range cfgs {
		st, err := cache.Simulate(cfg, tr)
		if err != nil {
			t.Fatal(err)
		}
		if st.Accesses != tr.Instrs {
			t.Fatalf("%v: %d accesses, trace has %d", cfg, st.Accesses, tr.Instrs)
		}
	}
	pg, err := paging.Simulate(paging.Config{PageBytes: 4096}, tr)
	if err != nil {
		t.Fatal(err)
	}
	if pg.Accesses != tr.Instrs {
		t.Fatalf("paging saw %d accesses, trace has %d", pg.Accesses, tr.Instrs)
	}
}

// TestLayoutsCoverIdenticalCode: natural, random, and optimized
// layouts of the same program must produce traces with identical
// instruction counts (layout never changes what executes), and the
// optimized trace must have the longest sequential runs.
func TestLayoutsCoverIdenticalCode(t *testing.T) {
	b := workload.ByName("compress", testScale)
	res := optimizeBench(t, b)

	optTr, _, err := layout.Trace(res.Layout, b.EvalSeed, b.EvalConfig())
	if err != nil {
		t.Fatal(err)
	}
	// Natural and random layouts of the *transformed* program, so the
	// instruction streams are directly comparable.
	natTr, _, err := layout.Trace(layout.Natural(res.Prog), b.EvalSeed, b.EvalConfig())
	if err != nil {
		t.Fatal(err)
	}
	rndTr, _, err := layout.Trace(layout.Random(res.Prog, 3), b.EvalSeed, b.EvalConfig())
	if err != nil {
		t.Fatal(err)
	}
	if optTr.Instrs != natTr.Instrs || optTr.Instrs != rndTr.Instrs {
		t.Fatalf("instruction counts differ across layouts: %d / %d / %d",
			optTr.Instrs, natTr.Instrs, rndTr.Instrs)
	}
	if optTr.AvgRunWords() < natTr.AvgRunWords() {
		t.Fatalf("optimized layout has shorter sequential runs (%v) than natural (%v)",
			optTr.AvgRunWords(), natTr.AvgRunWords())
	}
	if optTr.AvgRunWords() < rndTr.AvgRunWords() {
		t.Fatalf("optimized layout has shorter sequential runs (%v) than random (%v)",
			optTr.AvgRunWords(), rndTr.AvgRunWords())
	}
}

// TestScaledPipelineEndToEnd: the Table 9 path — scale the code,
// re-run the whole pipeline, simulate — works for every benchmark at
// an aggressive scale factor.
func TestScaledPipelineEndToEnd(t *testing.T) {
	for _, name := range []string{"cmp", "tee"} {
		b := workload.ByName(name, testScale)
		scaled := ir.ScaleCode(b.Prog, 0.5)
		cfg := core.DefaultConfig(b.ProfileSeeds...)
		cfg.Interp = b.InterpConfig()
		res, err := core.Optimize(scaled, cfg)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		tr, _, err := layout.Trace(res.Layout, b.EvalSeed, b.EvalConfig())
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		st, err := cache.Simulate(cache.Config{
			SizeBytes: 2048, BlockBytes: 64, Assoc: 1, PartialLoad: true,
		}, tr)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if st.Accesses == 0 {
			t.Fatalf("%s: empty scaled simulation", name)
		}
	}
}
