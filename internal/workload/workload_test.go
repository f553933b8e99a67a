package workload

import (
	"bytes"
	"math"
	"reflect"
	"strings"
	"testing"

	"impact/internal/interp"
	"impact/internal/ir"
	"impact/internal/profile"
)

func TestSuiteBuildsTenValidBenchmarks(t *testing.T) {
	suite := Suite(0.05)
	if len(suite) != 10 {
		t.Fatalf("suite has %d benchmarks, want 10", len(suite))
	}
	wantNames := []string{"cccp", "cmp", "compress", "grep", "lex", "make", "tar", "tee", "wc", "yacc"}
	for i, b := range suite {
		if b.Name() != wantNames[i] {
			t.Fatalf("benchmark %d is %q, want %q", i, b.Name(), wantNames[i])
		}
		if err := ir.Validate(b.Prog); err != nil {
			t.Fatalf("%s: invalid program: %v", b.Name(), err)
		}
		if len(b.ProfileSeeds) != b.Params.ProfileRuns {
			t.Fatalf("%s: %d profile seeds, want %d", b.Name(), len(b.ProfileSeeds), b.Params.ProfileRuns)
		}
		for _, s := range b.ProfileSeeds {
			if s == b.EvalSeed {
				t.Fatalf("%s: eval seed collides with a profile seed", b.Name())
			}
		}
	}
}

func TestSuiteDeterministic(t *testing.T) {
	a := Suite(0.05)
	b := Suite(0.05)
	for i := range a {
		if a[i].Prog.Bytes() != b[i].Prog.Bytes() ||
			a[i].Prog.NumBlocks() != b[i].Prog.NumBlocks() ||
			a[i].EvalSeed != b[i].EvalSeed {
			t.Fatalf("%s: generation not deterministic", a[i].Name())
		}
	}
}

func TestByName(t *testing.T) {
	b := ByName("wc", 0.05)
	if b == nil || b.Name() != "wc" {
		t.Fatal("ByName(wc) failed")
	}
	if ByName("no-such-benchmark", 1) != nil {
		t.Fatal("unknown name returned a benchmark")
	}
}

func TestScaleChangesLength(t *testing.T) {
	small := ByName("wc", 0.05)
	big := ByName("wc", 0.5)
	if small.Params.TargetInstrs >= big.Params.TargetInstrs {
		t.Fatal("scale did not increase target length")
	}
	// Static code must not depend on the scale (only loop bounds do).
	if small.Prog.Bytes() != big.Prog.Bytes() {
		t.Fatal("scale changed static code size")
	}
}

func TestParamsValidate(t *testing.T) {
	good := SuiteParams()[0]
	if err := good.Validate(); err != nil {
		t.Fatalf("suite params invalid: %v", err)
	}
	cases := []func(*Params){
		func(p *Params) { p.Name = "" },
		func(p *Params) { p.Phases = 0 },
		func(p *Params) { p.WorkersPerPhase = [2]int{0, 2} },
		func(p *Params) { p.WorkersPerPhase = [2]int{3, 1} },
		func(p *Params) { p.WorkerSegments = [2]int{0, 0} },
		func(p *Params) { p.BlockInstrs = [2]int{5, 2} },
		func(p *Params) { p.WorkerLoopTrips = 0 },
		func(p *Params) { p.PhaseTrips = 0.5 },
		func(p *Params) { p.TargetInstrs = 0 },
		func(p *Params) { p.TargetInstrs = maxTargetInstrs + 1 },
		func(p *Params) { p.TargetInstrs = math.MaxUint64 },
		func(p *Params) { p.ProfileRuns = 0 },
	}
	for i, mutate := range cases {
		p := SuiteParams()[0]
		mutate(&p)
		if err := p.Validate(); err == nil {
			t.Errorf("case %d: invalid params accepted", i)
		}
		if _, err := Build(p); err == nil {
			t.Errorf("case %d: Build accepted invalid params", i)
		}
	}
}

// TestStepGuardNeverWraps: the largest valid TargetInstrs keeps its
// step guard above the target, and no scale, however hostile, yields
// parameters Validate rejects or a guard that wrapped (a NaN scale
// once capped every run at 2^20 instructions).
func TestStepGuardNeverWraps(t *testing.T) {
	p := SuiteParams()[0]
	p.TargetInstrs = maxTargetInstrs
	if err := p.Validate(); err != nil {
		t.Fatalf("largest valid TargetInstrs rejected: %v", err)
	}
	if g := (&Benchmark{Params: p}).stepGuard(); g < p.TargetInstrs {
		t.Fatalf("step guard %d wrapped below TargetInstrs %d", g, p.TargetInstrs)
	}
	for _, scale := range []float64{math.NaN(), math.Inf(1), math.Inf(-1), -3, 0, 1e300, 1e-300, 0.25} {
		s := scaled(SuiteParams()[0], scale)
		if err := s.Validate(); err != nil {
			t.Errorf("scale %v: %v", scale, err)
		}
		if g := (&Benchmark{Params: s}).stepGuard(); g < s.TargetInstrs {
			t.Errorf("scale %v: step guard %d below TargetInstrs %d", scale, g, s.TargetInstrs)
		}
	}
	base := SuiteParams()[0].TargetInstrs
	if got := scaled(SuiteParams()[0], math.NaN()).TargetInstrs; got != base {
		t.Errorf("NaN scale gave TargetInstrs %d, want the unscaled %d", got, base)
	}
}

func TestSyscallsAreNoInline(t *testing.T) {
	b := ByName("tee", 0.05)
	found := 0
	for _, f := range b.Prog.Funcs {
		if strings.HasPrefix(f.Name, "sys_") {
			found++
			if !f.NoInline {
				t.Fatalf("syscall stub %s not marked NoInline", f.Name)
			}
		}
	}
	if found != b.Params.Syscalls {
		t.Fatalf("found %d syscall stubs, want %d", found, b.Params.Syscalls)
	}
}

func TestRunsCompleteNearTarget(t *testing.T) {
	for _, name := range []string{"wc", "tee", "compress"} {
		b := ByName(name, 0.05)
		eng := interp.NewEngine(b.Prog)
		var total uint64
		const runs = 6
		for i := 0; i < runs; i++ {
			res, err := eng.Run(uint64(1000+i), b.EvalConfig(), interp.NopSink{})
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if !res.Completed {
				t.Fatalf("%s: run hit the step guard", name)
			}
			total += res.Instrs
		}
		mean := float64(total) / runs
		target := float64(b.Params.TargetInstrs)
		if mean < target/5 || mean > target*5 {
			t.Fatalf("%s: mean run length %.0f too far from target %.0f", name, mean, target)
		}
	}
}

func TestDeadFunctionsNeverExecute(t *testing.T) {
	b := ByName("grep", 0.05)
	w, _, err := profile.Profile(b.Prog, profile.Config{
		Seeds:  b.ProfileSeeds,
		Interp: b.InterpConfig(),
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range b.Prog.Funcs {
		if strings.HasPrefix(f.Name, "dead_") && w.FuncWeight(f.ID) != 0 {
			t.Fatalf("dead function %s executed %d times", f.Name, w.FuncWeight(f.ID))
		}
	}
}

func TestEffectiveBelowTotal(t *testing.T) {
	for _, b := range Suite(0.05) {
		w, _, err := profile.Profile(b.Prog, profile.Config{
			Seeds:  b.ProfileSeeds[:2],
			Interp: b.InterpConfig(),
		})
		if err != nil {
			t.Fatalf("%s: %v", b.Name(), err)
		}
		eff := w.EffectiveBytes(b.Prog)
		if eff <= 0 || eff > b.Prog.Bytes() {
			t.Fatalf("%s: effective bytes %d outside (0, %d]", b.Name(), eff, b.Prog.Bytes())
		}
	}
}

func TestStaticSizesInPaperRange(t *testing.T) {
	// Table 5: total static sizes range from ~2.8K to ~55K. Check each
	// model lands in a sane band around its calibration target.
	bands := map[string][2]int{
		"cccp":     {24_000, 44_000},
		"cmp":      {1_500, 5_000},
		"compress": {10_000, 22_000},
		"grep":     {8_000, 17_000},
		"lex":      {30_000, 52_000},
		"make":     {22_000, 44_000},
		"tar":      {18_000, 36_000},
		"tee":      {1_500, 5_500},
		"wc":       {1_200, 5_000},
		"yacc":     {22_000, 42_000},
	}
	for _, b := range Suite(0.05) {
		band := bands[b.Name()]
		if got := b.Prog.Bytes(); got < band[0] || got > band[1] {
			t.Errorf("%s: static size %d outside calibration band %v", b.Name(), got, band)
		}
	}
}

func TestMainIsEntryAndLast(t *testing.T) {
	b := ByName("yacc", 0.05)
	entry := b.Prog.EntryFunc()
	if entry.Name != "main" {
		t.Fatalf("entry function is %q", entry.Name)
	}
}

func TestSuiteTextRoundTrip(t *testing.T) {
	// Every generated benchmark must survive the textual IR format
	// bit for bit — the dump/load path of cmd/impact.
	for _, b := range Suite(0.05) {
		var buf bytes.Buffer
		if err := ir.Encode(&buf, b.Prog); err != nil {
			t.Fatalf("%s: encode: %v", b.Name(), err)
		}
		got, err := ir.Decode(&buf)
		if err != nil {
			t.Fatalf("%s: decode: %v", b.Name(), err)
		}
		if !reflect.DeepEqual(b.Prog, got) {
			t.Fatalf("%s: text round trip changed the program", b.Name())
		}
	}
}
