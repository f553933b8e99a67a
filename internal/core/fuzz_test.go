package core

import (
	"os"
	"reflect"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"impact/internal/interp"
	"impact/internal/ir"
	"impact/internal/profile"
)

// repeatCount matches the instruction repeat counts of the IR text.
var repeatCount = regexp.MustCompile(`\*(\d+)`)

// FuzzReprofile referees the derived re-profile on untrusted IR: any
// decodable program through Profile with inlining, on three profiling
// seeds under a small step cap and depth limit. Step 1's profile must
// equal interpreting the input, and the inlined program's profile and
// per-run results must equal interpreting pr.Inlined, field for field,
// whether Profile derived them or fell back to measuring them. Scale
// at a fuzzer-chosen factor in (0, 2] must fail exactly when profiling
// the scaled program does, and otherwise match it in every exported
// field.
func FuzzReprofile(f *testing.F) {
	// FuzzEngine's corpus (internal/interp).
	f.Add("program entry=0\nfunc 0 a\nblock 0 entry\n alu call:1 ret\nfunc 1 b\nblock 0 entry\n call:0 ret\n", uint64(1), uint8(0), uint8(63))
	f.Add("program entry=0\nfunc 0 main\nblock 0 entry\n alu*3\n ret\n", uint64(2), uint8(0), uint8(127))
	f.Add("program entry=1\nfunc 0 leaf\nblock 0 entry\n alu\n ret\n"+
		"func 1 main\nblock 0 entry\n call:0 alu\n jump\n -> 1 1\nblock 1\n call:0\n branch\n -> 1 0.75\n -> 2 0.25\nblock 2\n ret\n",
		uint64(3), uint8(30), uint8(140))
	f.Add("program entry=0\nfunc 0 main\nblock 0 entry\n alu\n branch\n -> 1 0\n -> 2 0\n -> 3 1\n"+
		"block 1\n ret\nblock 2\n ret\nblock 3\n alu*2\n branch\n -> 0 0.5\n -> 1 0.5\n", uint64(4), uint8(50), uint8(89))
	f.Add("program entry=0\nfunc 0 f\nblock 0 entry\n alu\n branch\n -> 1 0.4\n -> 2 0.6\nblock 1\n call:0 alu\n ret\nblock 2\n ret\n",
		uint64(5), uint8(10), uint8(255))
	// The mutual recursion that expansion unrolls six levels deep.
	cycle, err := os.ReadFile("testdata/cycle.ir")
	if err != nil {
		f.Fatal(err)
	}
	f.Add(string(cycle), uint64(6), uint8(10), uint8(114))

	f.Fuzz(func(t *testing.T, src string, seed uint64, jitter, scale uint8) {
		for _, m := range repeatCount.FindAllStringSubmatch(src, -1) {
			if n, err := strconv.Atoi(m[1]); err != nil || n > 1<<12 {
				return // keep decoded programs small
			}
		}
		p, err := ir.Decode(strings.NewReader(src))
		if err != nil {
			return
		}
		cfg := DefaultConfig(seed, seed+1, seed+2)
		cfg.Interp = interp.Config{MaxSteps: 1 << 12, MaxDepth: 64, ProbJitter: float64(jitter%100) / 100}
		pr, err := Profile(p, cfg)
		if err != nil {
			return // the engine's errors are FuzzEngine's to referee
		}
		pc := profile.Config{Seeds: cfg.ProfileSeeds, Interp: cfg.Interp}
		orig, origRuns, err := profile.Profile(p, pc)
		if err != nil {
			t.Fatalf("Profile succeeded, interpreting the input failed: %v", err)
		}
		if d := weightsDiff(pr.OrigWeights, orig); d != "" || !reflect.DeepEqual(pr.origRuns, origRuns) {
			t.Fatalf("step-1 profile differs from interpreting the input (field %q)", d)
		}
		want, wantRuns, err := profile.Profile(pr.Inlined, pc)
		if err != nil {
			t.Fatalf("Profile succeeded, interpreting the inlined program failed: %v", err)
		}
		if d := weightsDiff(pr.Weights, want); d != "" {
			t.Fatalf("inlined profile's %s differs from interpreting the inlined program", d)
		}
		if !reflect.DeepEqual(pr.inlinedRuns, wantRuns) {
			t.Fatalf("inlined runs %+v, interpreting gives %+v", pr.inlinedRuns, wantRuns)
		}
		factor := float64(int(scale)+1) / 128
		got, gerr := pr.Scale(factor)
		scaled, serr := Profile(ir.ScaleCode(p, factor), cfg)
		if (gerr == nil) != (serr == nil) {
			t.Fatalf("Scale(%g) error %v, profiling the scaled program %v", factor, gerr, serr)
		}
		if gerr == nil {
			if d := sameProfile(got, scaled); d != "" {
				t.Fatalf("Scale(%g): %s differs from profiling the scaled program", factor, d)
			}
		}
	})
}
