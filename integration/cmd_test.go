package integration

// End-to-end tests of the command-line tools: the binaries are built
// once into a temp dir and driven exactly as a user would drive them.

import (
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"testing"
)

var (
	buildOnce sync.Once
	binDir    string
	buildErr  error
)

func binaries(t *testing.T) string {
	t.Helper()
	buildOnce.Do(func() {
		dir, err := os.MkdirTemp("", "impact-bin")
		if err != nil {
			buildErr = err
			return
		}
		binDir = dir
		for _, tool := range []string{"impact", "icsim", "icexp"} {
			cmd := exec.Command("go", "build", "-o", filepath.Join(dir, tool), "impact/cmd/"+tool)
			if out, err := cmd.CombinedOutput(); err != nil {
				buildErr = err
				t.Logf("build %s: %s", tool, out)
				return
			}
		}
	})
	if buildErr != nil {
		t.Fatal(buildErr)
	}
	return binDir
}

func runTool(t *testing.T, name string, args ...string) string {
	t.Helper()
	cmd := exec.Command(filepath.Join(binaries(t), name), args...)
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("%s %v: %v\n%s", name, args, err, out)
	}
	return string(out)
}

func TestImpactList(t *testing.T) {
	out := runTool(t, "impact", "list")
	for _, name := range []string{"cccp", "wc", "yacc", "tee"} {
		if !strings.Contains(out, name) {
			t.Errorf("list output missing %s:\n%s", name, out)
		}
	}
}

func TestImpactProfile(t *testing.T) {
	out := runTool(t, "impact", "profile", "-bench", "wc", "-scale", "0.05")
	if !strings.Contains(out, "Hottest functions") || !strings.Contains(out, "main") {
		t.Errorf("profile output incomplete:\n%s", out)
	}
}

func TestImpactLayout(t *testing.T) {
	out := runTool(t, "impact", "layout", "-bench", "tee", "-scale", "0.05")
	if !strings.Contains(out, "Memory layout") || !strings.Contains(out, "effective") {
		t.Errorf("layout output incomplete:\n%s", out)
	}
	if !strings.Contains(out, "cold") {
		t.Errorf("layout output missing cold regions:\n%s", out)
	}
}

func TestImpactTraceThenIcsim(t *testing.T) {
	trace := filepath.Join(t.TempDir(), "tee.itr")
	out := runTool(t, "impact", "trace", "-bench", "tee", "-scale", "0.05", "-o", trace)
	if !strings.Contains(out, "instruction fetches") {
		t.Errorf("trace output incomplete:\n%s", out)
	}
	sim := runTool(t, "icsim", "-trace", trace, "-size", "2048", "-block", "64")
	if !strings.Contains(sim, "miss:") || !strings.Contains(sim, "traffic:") {
		t.Errorf("icsim output incomplete:\n%s", sim)
	}
	simPartial := runTool(t, "icsim", "-trace", trace, "-partial")
	if !strings.Contains(simPartial, "avg.fetch") {
		t.Errorf("icsim -partial output missing avg.fetch:\n%s", simPartial)
	}
}

func TestImpactSimulate(t *testing.T) {
	out := runTool(t, "impact", "simulate", "-bench", "cmp", "-scale", "0.05")
	if !strings.Contains(out, "optimized") || !strings.Contains(out, "natural") {
		t.Errorf("simulate output incomplete:\n%s", out)
	}
}

func TestImpactDumpRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wc.ir")
	runTool(t, "impact", "dump", "-bench", "wc", "-scale", "0.05", "-o", path)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), "program entry=") {
		t.Errorf("dump output missing header:\n%.200s", data)
	}
	if !strings.Contains(string(data), "func") || !strings.Contains(string(data), "ret") {
		t.Error("dump output missing program body")
	}
}

func TestIcexpSmallRun(t *testing.T) {
	out := runTool(t, "icexp", "-scale", "0.03", "-tables", "4,5")
	if !strings.Contains(out, "Table 4") || !strings.Contains(out, "Table 5") {
		t.Errorf("icexp output incomplete:\n%s", out)
	}
	if strings.Contains(out, "Table 6") {
		t.Error("icexp produced unrequested tables")
	}
}

func TestIcsimRejectsGarbageTrace(t *testing.T) {
	bad := filepath.Join(t.TempDir(), "bad.itr")
	if err := os.WriteFile(bad, []byte("not a trace"), 0o644); err != nil {
		t.Fatal(err)
	}
	cmd := exec.Command(filepath.Join(binaries(t), "icsim"), "-trace", bad)
	if out, err := cmd.CombinedOutput(); err == nil {
		t.Fatalf("icsim accepted garbage:\n%s", out)
	}
}

// TestImpactSearchRejectsNegativeWorkers: a negative -workers count
// is a usage error naming the flag, not a silent GOMAXPROCS run or a
// panic.
func TestImpactSearchRejectsNegativeWorkers(t *testing.T) {
	cmd := exec.Command(filepath.Join(binaries(t), "impact"), "search", "-bench", "grep", "-workers", "-1")
	out, err := cmd.CombinedOutput()
	if err == nil {
		t.Fatalf("impact search -workers -1 succeeded:\n%s", out)
	}
	if !strings.Contains(string(out), `invalid value "-1" for flag -workers`) {
		t.Errorf("missing flag error:\n%s", out)
	}
	if strings.Contains(string(out), "panic") {
		t.Errorf("impact search panicked:\n%s", out)
	}
}

// TestCommandsRejectGarbageFlags: a -scale that is not a finite
// number above zero, an unknown table number, or a cache or paging
// geometry no simulator accepts is a usage error (exit status 2)
// naming the flag — not a silently truncated or substituted run, not
// a failure after minutes of work, and not a panic.
func TestCommandsRejectGarbageFlags(t *testing.T) {
	tests := []struct {
		name    string
		tool    string
		args    []string
		wantMsg string
	}{
		{"simulate nan scale", "impact", []string{"simulate", "-bench", "grep", "-scale", "nan"},
			`invalid value "nan" for flag -scale: scale must be a finite number > 0`},
		{"simulate inf scale", "impact", []string{"simulate", "-bench", "grep", "-scale", "inf"},
			`invalid value "inf" for flag -scale: scale must be a finite number > 0`},
		{"simulate negative scale", "impact", []string{"simulate", "-bench", "grep", "-scale", "-3"},
			`invalid value "-3" for flag -scale: scale must be a finite number > 0`},
		{"search nan scale", "impact", []string{"search", "-bench", "grep", "-scale", "nan"},
			`invalid value "nan" for flag -scale: scale must be a finite number > 0`},
		{"icexp zero scale", "icexp", []string{"-scale", "0"},
			`invalid value "0" for flag -scale: scale must be a finite number > 0`},
		{"icexp unknown table", "icexp", []string{"-scale", "0.02", "-tables", "nosuch"},
			`invalid value "nosuch" for flag -tables: unknown table "nosuch"`},
		{"icexp table out of range", "icexp", []string{"-scale", "0.02", "-tables", "1,10"},
			`invalid value "1,10" for flag -tables: unknown table "10"`},
		// Geometry flags are checked right after parsing, before any
		// benchmark is prepared or file opened, whether or not the
		// requested sections read them.
		{"icexp negative frames", "icexp", []string{"-scale", "0.02", "-tables", "1", "-frames", "-1"},
			"icexp: invalid paging geometry (-page-bytes 4096 -frames -1): paging: negative frame count -1"},
		{"icexp analyze bad page size", "icexp", []string{"-tables", "none", "-analyze", "-page-bytes", "100"},
			"icexp: invalid paging geometry (-page-bytes 100 -frames 8): paging: page size 100 is not a power of two >= 64"},
		{"icexp extensions bad page size", "icexp", []string{"-scale", "0.02", "-tables", "none", "-extensions", "-page-bytes", "100"},
			"icexp: invalid paging geometry (-page-bytes 100 -frames 8)"},
		{"simulate negative assoc", "impact", []string{"simulate", "-bench", "grep", "-assoc", "-2"},
			"impact: invalid cache geometry (-size 2048 -block 64 -assoc -2): cache: associativity -2 incompatible with 32 blocks"},
		{"simulate bad sweep entry", "impact", []string{"simulate", "-bench", "grep", "-sizes", "512,1000"},
			"impact: invalid cache geometry (-sizes entry 1000 -block 64 -assoc 1)"},
		{"analyze bad page size", "impact", []string{"analyze", "-bench", "grep", "-pages", "-page-bytes", "100"},
			"impact: invalid paging geometry (-page-bytes 100 -frames 8)"},
		{"search bad block", "impact", []string{"search", "-bench", "grep", "-block", "3"},
			"impact: invalid cache geometry (-size 2048 -block 3 -assoc 1)"},
		{"run bad size", "impact", []string{"run", "-ir", "no-such.ir", "-size", "1000"},
			"impact: invalid cache geometry (-size 1000 -block 64 -assoc 1)"},
		{"icsim bad size", "icsim", []string{"-trace", "no-such.itr", "-size", "1000"},
			"icsim: invalid cache geometry (-size 1000 -block 64 -assoc 1)"},
		{"icsim bad frames", "icsim", []string{"-trace", "no-such.itr", "-paging", "-frames", "-3"},
			"icsim: invalid paging geometry (-page-bytes 4096 -frames -3)"},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			cmd := exec.Command(filepath.Join(binaries(t), tt.tool), tt.args...)
			out, err := cmd.CombinedOutput()
			var exit *exec.ExitError
			if !errors.As(err, &exit) || exit.ExitCode() != 2 {
				t.Fatalf("%s %v: err %v, want exit status 2:\n%s", tt.tool, tt.args, err, out)
			}
			if !strings.Contains(string(out), tt.wantMsg) {
				t.Errorf("missing %q:\n%s", tt.wantMsg, out)
			}
			if strings.Contains(string(out), "panic") {
				t.Errorf("%s panicked:\n%s", tt.tool, out)
			}
		})
	}
}

func TestImpactRunOnExternalIR(t *testing.T) {
	// Dump a program, then feed it back through `impact run` — the
	// external-program path a downstream user would take.
	dir := t.TempDir()
	irPath := filepath.Join(dir, "prog.ir")
	runTool(t, "impact", "dump", "-bench", "tee", "-scale", "0.05", "-o", irPath)
	out := runTool(t, "impact", "run", "-ir", irPath, "-seeds", "1,2,3", "-eval", "42")
	if !strings.Contains(out, "optimized") || !strings.Contains(out, "natural") {
		t.Errorf("run output incomplete:\n%s", out)
	}
	if !strings.Contains(out, "after inlining") {
		t.Errorf("run output missing pipeline summary:\n%s", out)
	}
}
