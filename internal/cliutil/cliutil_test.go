package cliutil

import (
	"flag"
	"io"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"impact/internal/cache"
)

func parseCache(t *testing.T, args ...string) *CacheFlags {
	t.Helper()
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	cf := AddCacheFlags(fs)
	if err := fs.Parse(args); err != nil {
		t.Fatalf("parse %v: %v", args, err)
	}
	return cf
}

func TestCacheFlagsDefaults(t *testing.T) {
	cf := parseCache(t)
	cfg := cf.Config()
	if cfg.SizeBytes != 2048 || cfg.BlockBytes != 64 || cfg.Assoc != 1 {
		t.Fatalf("default geometry = %+v, want 2048/64/1", cfg)
	}
	if cfg.SectorBytes != 0 || cfg.PartialLoad {
		t.Fatalf("default fill policy = %+v, want whole-block", cfg)
	}
	list, err := cf.SizeList()
	if err != nil || list != nil {
		t.Fatalf("SizeList without -sizes = %v, %v; want nil, nil", list, err)
	}
}

func TestCacheFlagsParse(t *testing.T) {
	cf := parseCache(t, "-size", "512", "-block", "16", "-assoc", "0", "-sector", "8", "-partial")
	cfg := cf.Config()
	if cfg.SizeBytes != 512 || cfg.BlockBytes != 16 || cfg.Assoc != 0 ||
		cfg.SectorBytes != 8 || !cfg.PartialLoad {
		t.Fatalf("parsed config = %+v", cfg)
	}
}

func TestCacheFlagsSizeList(t *testing.T) {
	cf := parseCache(t, "-sizes", "512, 1024,2048")
	list, err := cf.SizeList()
	if err != nil {
		t.Fatal(err)
	}
	if want := []int{512, 1024, 2048}; !reflect.DeepEqual(list, want) {
		t.Fatalf("SizeList = %v, want %v", list, want)
	}
	cf = parseCache(t, "-sizes", "512,x")
	if _, err := cf.SizeList(); err == nil {
		t.Fatal("bad -sizes entry not rejected")
	}
}

// TestGeometryCheck pins the flag-level geometry checks: every
// geometry the simulators reject fails Check with an error naming the
// flags and the simulator's reason, and valid ones pass.
func TestGeometryCheck(t *testing.T) {
	tests := []struct {
		name    string
		cache   []string // cache flags
		paging  []string // paging flags
		latency int      // policy extension applied by the caller
		wantErr string   // "" = valid
	}{
		{name: "defaults"},
		{name: "fully associative sweep", cache: []string{"-sizes", "512,4096", "-assoc", "0"}},
		{name: "unbounded frames", paging: []string{"-frames", "0"}},
		{name: "size not a power of two", cache: []string{"-size", "1000"},
			wantErr: "invalid cache geometry (-size 1000 -block 64 -assoc 1): cache: size 1000 is not a positive power of two"},
		{name: "negative associativity", cache: []string{"-assoc", "-2"},
			wantErr: "invalid cache geometry (-size 2048 -block 64 -assoc -2): cache: associativity -2 incompatible with 32 blocks"},
		{name: "block too small", cache: []string{"-block", "2"},
			wantErr: "invalid cache geometry (-size 2048 -block 2 -assoc 1): cache: block size 2 is not a power of two >= 4"},
		{name: "bad sweep entry", cache: []string{"-sizes", "512,768"},
			wantErr: "invalid cache geometry (-sizes entry 768 -block 64 -assoc 1): cache: size 768"},
		{name: "malformed sweep entry", cache: []string{"-sizes", "512,x"}, wantErr: `bad -sizes entry "x"`},
		{name: "sector and partial", cache: []string{"-sector", "8", "-partial"},
			wantErr: "(-size 2048 -block 64 -assoc 1 -sector 8 -partial): cache: sectoring and partial loading are mutually exclusive"},
		{name: "negative latency", latency: -1, wantErr: "cache: negative initial latency -1"},
		{name: "page size", paging: []string{"-page-bytes", "100"},
			wantErr: "invalid paging geometry (-page-bytes 100 -frames 8): paging: page size 100 is not a power of two >= 64"},
		{name: "negative frames", paging: []string{"-frames", "-1"},
			wantErr: "invalid paging geometry (-page-bytes 4096 -frames -1): paging: negative frame count -1"},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			fs := flag.NewFlagSet("test", flag.ContinueOnError)
			cf := AddCacheFlags(fs)
			pf := AddPagingFlags(fs)
			if err := fs.Parse(append(append([]string{}, tt.cache...), tt.paging...)); err != nil {
				t.Fatal(err)
			}
			cfg := cf.Config()
			if tt.latency != 0 {
				cfg.Timing = &cache.TimingConfig{InitialLatency: tt.latency}
			}
			err := cf.Check(cfg)
			if err == nil {
				err = pf.Check()
			}
			switch {
			case tt.wantErr == "" && err != nil:
				t.Fatalf("valid geometry rejected: %v", err)
			case tt.wantErr != "" && err == nil:
				t.Fatalf("invalid geometry accepted, want %q", tt.wantErr)
			case tt.wantErr != "" && !strings.Contains(err.Error(), tt.wantErr):
				t.Fatalf("error %q, want it to contain %q", err, tt.wantErr)
			}
		})
	}
}

// TestWorkersFlag pins the -workers contract: a positive count sets
// GOMAXPROCS when the flag is parsed, zero leaves it alone, and a
// negative or non-numeric count is rejected at parse time with an
// error that names the flag and leaves GOMAXPROCS alone.
func TestWorkersFlag(t *testing.T) {
	procs := runtime.GOMAXPROCS(0)
	t.Cleanup(func() { runtime.GOMAXPROCS(procs) })
	tests := []struct {
		name    string
		args    []string
		want    int // GOMAXPROCS after parsing
		wantErr string
	}{
		{"default", nil, procs, ""},
		{"zero", []string{"-workers", "0"}, procs, ""},
		{"serial", []string{"-workers", "1"}, 1, ""},
		{"four", []string{"-workers=4"}, 4, ""},
		{"negative", []string{"-workers", "-3"}, procs, `invalid value "-3" for flag -workers: worker count must be >= 0`},
		{"not a number", []string{"-workers", "many"}, procs, `invalid value "many" for flag -workers`},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			runtime.GOMAXPROCS(procs)
			fs := flag.NewFlagSet("test", flag.ContinueOnError)
			fs.SetOutput(io.Discard)
			AddWorkersFlag(fs)
			err := fs.Parse(tt.args)
			if got := runtime.GOMAXPROCS(0); got != tt.want {
				t.Errorf("parse %v: GOMAXPROCS = %d, want %d", tt.args, got, tt.want)
			}
			if tt.wantErr == "" {
				if err != nil {
					t.Fatalf("parse %v: %v", tt.args, err)
				}
				return
			}
			if err == nil || !strings.Contains(err.Error(), tt.wantErr) {
				t.Fatalf("parse %v error = %v, want one containing %q", tt.args, err, tt.wantErr)
			}
		})
	}
}

// TestScaleFlag pins the -scale contract: a finite number above zero
// parses; zero, negatives, NaN, infinities (spelled out or overflowing)
// and non-numbers are rejected at parse time with an error that names
// the flag, instead of running some other scale.
func TestScaleFlag(t *testing.T) {
	tests := []struct {
		name    string
		args    []string
		want    float64
		wantErr string // "" means the parse succeeds
	}{
		{"default", nil, 1, ""},
		{"quarter", []string{"-scale", "0.25"}, 0.25, ""},
		{"exponent", []string{"-scale=2e-2"}, 0.02, ""},
		{"zero", []string{"-scale", "0"}, 0, `invalid value "0" for flag -scale: scale must be a finite number > 0`},
		{"negative", []string{"-scale", "-3"}, 0, `invalid value "-3" for flag -scale: scale must be a finite number > 0`},
		{"nan", []string{"-scale", "nan"}, 0, `invalid value "nan" for flag -scale: scale must be a finite number > 0`},
		{"inf", []string{"-scale", "inf"}, 0, `invalid value "inf" for flag -scale: scale must be a finite number > 0`},
		{"negative inf", []string{"-scale", "-Inf"}, 0, `invalid value "-Inf" for flag -scale: scale must be a finite number > 0`},
		{"overflow", []string{"-scale", "1e400"}, 0, `invalid value "1e400" for flag -scale: scale must be a finite number > 0`},
		{"underflow", []string{"-scale", "1e-400"}, 0, `invalid value "1e-400" for flag -scale: scale must be a finite number > 0`},
		{"not a number", []string{"-scale", "big"}, 0, `invalid value "big" for flag -scale: not a number`},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			fs := flag.NewFlagSet("test", flag.ContinueOnError)
			fs.SetOutput(io.Discard)
			s := AddScaleFlag(fs)
			err := fs.Parse(tt.args)
			if tt.wantErr == "" {
				if err != nil || *s != tt.want {
					t.Fatalf("parse %v = %g, %v; want %g", tt.args, *s, err, tt.want)
				}
				return
			}
			if err == nil || !strings.Contains(err.Error(), tt.wantErr) {
				t.Fatalf("parse %v error = %v, want one containing %q", tt.args, err, tt.wantErr)
			}
		})
	}
}
