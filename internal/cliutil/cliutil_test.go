package cliutil

import (
	"flag"
	"io"
	"reflect"
	"strings"
	"testing"
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

// TestWorkersFlag pins the -workers contract: zero and positive counts
// parse, and a negative or non-numeric count is rejected at parse time
// with an error that names the flag.
func TestWorkersFlag(t *testing.T) {
	tests := []struct {
		name    string
		args    []string
		want    int
		wantErr string // "" means the parse succeeds
	}{
		{"default", nil, 0, ""},
		{"serial", []string{"-workers", "1"}, 1, ""},
		{"four", []string{"-workers=4"}, 4, ""},
		{"negative", []string{"-workers", "-3"}, 0, `invalid value "-3" for flag -workers: worker count must be >= 0`},
		{"not a number", []string{"-workers", "many"}, 0, `invalid value "many" for flag -workers`},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			fs := flag.NewFlagSet("test", flag.ContinueOnError)
			fs.SetOutput(io.Discard)
			n := AddWorkersFlag(fs)
			err := fs.Parse(tt.args)
			if tt.wantErr == "" {
				if err != nil || *n != tt.want {
					t.Fatalf("parse %v = %d, %v; want %d", tt.args, *n, err, tt.want)
				}
				return
			}
			if err == nil || !strings.Contains(err.Error(), tt.wantErr) {
				t.Fatalf("parse %v error = %v, want one containing %q", tt.args, err, tt.wantErr)
			}
		})
	}
}
