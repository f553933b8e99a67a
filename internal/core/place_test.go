package core

import (
	"errors"
	"reflect"
	"testing"

	"impact/internal/check"
	"impact/internal/core/inline"
	"impact/internal/interp"
	"impact/internal/ir"
	"impact/internal/layout"
)

// blockAddrs lists every block address of lay, function by function.
func blockAddrs(lay *layout.Layout) [][]uint32 {
	p := lay.Program()
	out := make([][]uint32, len(p.Funcs))
	for _, f := range p.Funcs {
		for _, b := range f.Blocks {
			out[f.ID] = append(out[f.ID], lay.BlockAddr(f.ID, b.ID))
		}
	}
	return out
}

// samePlacement reports the first field in which two pipeline results
// differ, or "".
func samePlacement(a, b *Result) string {
	for _, c := range []struct {
		what string
		a, b any
	}{
		{"layout", blockAddrs(a.Layout), blockAddrs(b.Layout)},
		{"Prog", a.Prog, b.Prog},
		{"Weights", a.Weights, b.Weights},
		{"OrigWeights", a.OrigWeights, b.OrigWeights},
		{"InlineReport", a.InlineReport, b.InlineReport},
		{"TraceStats", a.TraceStats, b.TraceStats},
		{"Traces", a.Traces, b.Traces},
		{"Orders", a.Orders, b.Orders},
		{"GlobalOrder", a.GlobalOrder, b.GlobalOrder},
		{"EffectiveBytes", a.EffectiveBytes, b.EffectiveBytes},
		{"TotalBytes", a.TotalBytes, b.TotalBytes},
		{"Checks", a.Checks, b.Checks},
		{"Ledger", a.Ledger, b.Ledger},
	} {
		if !reflect.DeepEqual(c.a, c.b) {
			return c.what
		}
	}
	return ""
}

// TestPlaceMatchesOptimize: placing a profiled value returns what
// Optimize returns for the same configuration, verifier diagnostics
// and ledger rows included, for every strategy the value can serve.
func TestPlaceMatchesOptimize(t *testing.T) {
	p := testProgram(t)
	cfg := DefaultConfig(seeds(4)...)
	cfg.Check = check.Warn
	cfg.Ledger = true
	prof, err := Profile(p, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, st := range []Strategy{
		FullStrategy(),
		NaturalStrategy(),
		{TraceLayout: true},
		{TraceLayout: true, GlobalDFS: true, SplitCold: true},
		{Inline: true, TraceLayout: true, GlobalDFS: true, PettisHansen: true, SplitCold: true},
	} {
		for _, minProb := range []float64{0, 0.5, 0.9} {
			c := cfg
			c.Strategy = st
			c.MinProb = minProb
			placed, err := Place(prof, c)
			if err != nil {
				t.Fatalf("%+v at %g: Place: %v", st, minProb, err)
			}
			want, err := Optimize(p, c)
			if err != nil {
				t.Fatalf("%+v at %g: Optimize: %v", st, minProb, err)
			}
			if diff := samePlacement(placed, want); diff != "" {
				t.Errorf("%+v at %g: placed %s differs from Optimize", st, minProb, diff)
			}
		}
	}
}

// TestPlaceRejectsMismatchedProfile: Place refuses, rather than
// silently reuses, a profiled value measured under another profiling
// configuration than the one it is asked to place with, or one that
// lacks the inlined program the strategy needs.
func TestPlaceRejectsMismatchedProfile(t *testing.T) {
	p := testProgram(t)
	base := DefaultConfig(seeds(3)...)
	base.Interp = interp.Config{MaxSteps: 1 << 20, ProbJitter: 0.1}
	inlined, err := Profile(p, base)
	if err != nil {
		t.Fatal(err)
	}
	natural := base
	natural.Strategy = NaturalStrategy()
	uninlined, err := Profile(p, natural)
	if err != nil {
		t.Fatal(err)
	}
	if uninlined.Inlined != nil || uninlined.Weights != nil {
		t.Fatal("profiling without inlining produced an inlined program")
	}

	tests := []struct {
		name    string
		prof    *Profiled
		tweak   func(*Config)
		wantErr bool
	}{
		{
			name:  "recorded configuration",
			prof:  inlined,
			tweak: func(*Config) {},
		},
		{
			name:  "default inline config left zero",
			prof:  inlined,
			tweak: func(c *Config) { c.Inline = inline.Config{} },
		},
		{
			name:  "un-inlined strategy on an inlined value",
			prof:  inlined,
			tweak: func(c *Config) { c.Strategy.Inline = false },
		},
		{
			name:    "other profiling seeds",
			prof:    inlined,
			tweak:   func(c *Config) { c.ProfileSeeds = []uint64{1, 2, 4} },
			wantErr: true,
		},
		{
			name:    "fewer profiling seeds",
			prof:    inlined,
			tweak:   func(c *Config) { c.ProfileSeeds = seeds(2) },
			wantErr: true,
		},
		{
			name:    "other interp MaxSteps",
			prof:    inlined,
			tweak:   func(c *Config) { c.Interp.MaxSteps = 1 << 19 },
			wantErr: true,
		},
		{
			name:    "other interp ProbJitter",
			prof:    inlined,
			tweak:   func(c *Config) { c.Interp.ProbJitter = 0.2 },
			wantErr: true,
		},
		{
			name:    "other inline config",
			prof:    inlined,
			tweak:   func(c *Config) { c.Inline.MaxGrowth = 1.1 },
			wantErr: true,
		},
		{
			name:    "inlining strategy on an un-inlined value",
			prof:    uninlined,
			tweak:   func(*Config) {},
			wantErr: true,
		},
		{
			name:    "no profiling seeds",
			prof:    inlined,
			tweak:   func(c *Config) { c.ProfileSeeds = nil },
			wantErr: true,
		},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			cfg := base
			tt.tweak(&cfg)
			res, err := Place(tt.prof, cfg)
			if tt.wantErr {
				if err == nil {
					t.Fatal("Place accepted a mismatched configuration")
				}
				if res != nil {
					t.Error("Place returned a result with its error")
				}
				if len(cfg.ProfileSeeds) > 0 && !errors.Is(err, ErrProfileMismatch) {
					t.Errorf("error %v does not wrap ErrProfileMismatch", err)
				}
				return
			}
			if err != nil {
				t.Fatalf("Place: %v", err)
			}
			want, err := Optimize(p, cfg)
			if err != nil {
				t.Fatalf("Optimize: %v", err)
			}
			if diff := samePlacement(res, want); diff != "" {
				t.Errorf("placed %s differs from Optimize", diff)
			}
		})
	}
}

// TestProfileRecordsItsConfiguration: the profiled value records the
// normalized configuration it was measured with and owns its seeds.
func TestProfileRecordsItsConfiguration(t *testing.T) {
	p := testProgram(t)
	s := seeds(3)
	cfg := Config{ProfileSeeds: s, Strategy: FullStrategy()}
	prof, err := Profile(p, cfg)
	if err != nil {
		t.Fatal(err)
	}
	s[0] = 99
	if prof.ProfileSeeds[0] != 1 {
		t.Error("the profiled value shares the caller's seed slice")
	}
	if prof.Inline != DefaultConfig().Inline {
		t.Errorf("recorded inline config %+v, want the default", prof.Inline)
	}
	if prof.Input != p || prof.Inlined == nil || prof.Inlined == p {
		t.Error("profiled value does not hold the input and a separate inlined program")
	}
	if err := ir.Validate(prof.Inlined); err != nil {
		t.Errorf("inlined program invalid: %v", err)
	}
	if _, err := Profile(p, Config{}); err == nil {
		t.Error("Profile accepted a config without seeds")
	}
}
