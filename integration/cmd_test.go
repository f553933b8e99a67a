package integration

// End-to-end tests of the command-line tools: the binaries are built
// once into a temp dir and driven exactly as a user would drive them.

import (
	"encoding/json"
	"errors"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"strconv"
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

// TestSizeSweepsMatchSingleSize: a -sizes sweep prints, for every
// size, the numbers the single-size command prints. icsim runs four
// templates over one trace file — fully associative and 16-way ones,
// which stack, and direct-mapped and 4-way FIFO ones, which replay
// (512B holds only 8 blocks, so the 16-way sweep starts at 1024B) — and
// impact simulate sweeps both layouts.
func TestSizeSweepsMatchSingleSize(t *testing.T) {
	trace := filepath.Join(t.TempDir(), "cccp.itr")
	runTool(t, "impact", "trace", "-bench", "cccp", "-scale", "0.05", "-strategy", "random", "-o", trace)
	all := []string{"512", "1024", "2048", "4096", "8192"}
	for _, tmpl := range []struct {
		args  []string
		sizes []string
	}{
		{[]string{"-assoc", "0"}, all},
		{[]string{"-assoc", "1"}, all},
		{[]string{"-assoc", "4", "-replacement", "fifo"}, all},
		{[]string{"-assoc", "16"}, all[1:]},
	} {
		sweep := runTool(t, "icsim", append([]string{"-trace", trace, "-sizes", strings.Join(tmpl.sizes, ",")}, tmpl.args...)...)
		rows := tableRows(sweep)
		if len(rows) != len(tmpl.sizes) {
			t.Fatalf("icsim %v: %d rows for %d sizes:\n%s", tmpl.args, len(rows), len(tmpl.sizes), sweep)
		}
		for i, size := range tmpl.sizes {
			single := runTool(t, "icsim", append([]string{"-trace", trace, "-size", size}, tmpl.args...)...)
			// Sweep row: size, misses, miss, traffic, avg.exec. The
			// single-size report prints the ratios with more decimals.
			row := rows[i]
			avgExec := "0.0"
			if v := lineField(single, "avg.exec:"); v != "" {
				avgExec = v
			}
			if row[0] != size || row[1] != lineField(single, "misses:") || row[4] != avgExec ||
				!samePct(row[2], lineField(single, "miss:"), 0.0005+0.00005) ||
				!samePct(row[3], lineField(single, "traffic:"), 0.005+0.00005) {
				t.Errorf("icsim %v size %s: sweep row %v, single-size report:\n%s", tmpl.args, size, row, single)
			}
		}
	}

	// simulate returns the rows of impact simulate's cache table and of
	// its paging table.
	simulate := func(args ...string) (rows, pages [][]string) {
		out := runTool(t, "impact", append([]string{"simulate", "-bench", "cmp", "-scale", "0.05", "-paging"}, args...)...)
		i := strings.Index(out, "cmp paging (")
		if i < 0 {
			return tableRows(out), nil
		}
		return tableRows(out[:i]), tableRows(out[i:])
	}
	sizes := []string{"512", "1024", "2048", "4096"}
	sweep, sweepPages := simulate("-sizes", strings.Join(sizes, ","))
	if len(sweep) != len(sizes) {
		t.Fatalf("impact simulate: %d rows for %d sizes", len(sweep), len(sizes))
	}
	// Paging does not depend on the cache size: a sweep prints the
	// paging rows every single size prints.
	if len(sweepPages) != 2 {
		t.Fatalf("impact simulate -sizes -paging: paging rows %v, want one per layout", sweepPages)
	}
	for i, size := range sizes {
		// Single-size rows: layout, miss, traffic, misses, accesses.
		single, singlePages := simulate("-size", size)
		want := []string{size, single[0][1], single[0][2], single[1][1], single[1][2]}
		if single[0][0] != "optimized" || single[1][0] != "natural" || strings.Join(sweep[i], " ") != strings.Join(want, " ") {
			t.Errorf("impact simulate size %s: sweep row %v, single-size rows %v", size, sweep[i], single)
		}
		if !reflect.DeepEqual(singlePages, sweepPages) {
			t.Errorf("impact simulate size %s: paging rows %v, sweep's %v", size, singlePages, sweepPages)
		}
	}
}

// tableRows returns the fields of the body rows of the first text table
// in out: the lines after its dashed rule, up to a blank line.
func tableRows(out string) [][]string {
	var rows [][]string
	in := false
	for _, line := range strings.Split(out, "\n") {
		switch {
		case !in:
			in = strings.HasPrefix(line, "---")
		case strings.TrimSpace(line) == "":
			return rows
		default:
			rows = append(rows, strings.Fields(line))
		}
	}
	return rows
}

// lineField returns the first field after prefix on the line of out
// that starts with it, or "".
func lineField(out, prefix string) string {
	for _, line := range strings.Split(out, "\n") {
		if rest, ok := strings.CutPrefix(line, prefix); ok {
			if f := strings.Fields(rest); len(f) > 0 {
				return f[0]
			}
		}
	}
	return ""
}

// samePct reports whether two printed percentages agree within tol
// percentage points: the sum of their rounding steps' halves.
func samePct(a, b string, tol float64) bool {
	x, errA := strconv.ParseFloat(strings.TrimSuffix(a, "%"), 64)
	y, errB := strconv.ParseFloat(strings.TrimSuffix(b, "%"), 64)
	return errA == nil && errB == nil && math.Abs(x-y) <= tol+1e-9
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
// TestImpactSearchPreparesOneBenchmark: impact search -bench prepares
// the benchmark it searches and no other.
func TestImpactSearchPreparesOneBenchmark(t *testing.T) {
	path := filepath.Join(t.TempDir(), "m.json")
	out := runTool(t, "impact", "search", "-bench", "grep", "-scale", "0.05", "-budget", "8", "-metrics-out", path)
	if !strings.Contains(out, "grep") {
		t.Errorf("no grep row:\n%s", out)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var m metricsSnapshot
	if err := json.Unmarshal(data, &m); err != nil {
		t.Fatal(err)
	}
	if got := m.Spans["prepare/benchmark"].Count; got != 1 {
		t.Errorf("prepare/benchmark entered %d times, want 1", got)
	}
}

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
// number above zero, an unknown table number, a cache or paging
// geometry no simulator accepts, a negative report size or search
// budget, a value outside a flag's fixed set, an unknown or missing
// benchmark, or a missing required flag is a usage error (exit status
// 2) naming the flag — not a silently truncated or substituted run,
// not a failure after minutes of work, and not a panic.
func TestCommandsRejectGarbageFlags(t *testing.T) {
	type garbage struct {
		name    string
		tool    string
		args    []string
		wantMsg string
	}
	tests := []garbage{
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
		// A valid page geometry without -search moves nothing, so it
		// is refused rather than ignored.
		{"icexp page flags without search", "icexp", []string{"-scale", "0.05", "-tables", "none", "-extensions", "-page-bytes", "4096", "-frames", "8"},
			"icexp: -frames without -search: -page-bytes and -frames set only -search's page term"},
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
		// Sizes past 1<<31 bytes overflow the simulator's and the
		// analyzer's uint32 geometry: rejected, not a divide-by-zero
		// panic or an allocation that exhausts memory.
		{"simulate terabyte size", "impact", []string{"simulate", "-bench", "grep", "-size", "1099511627776"},
			"impact: invalid cache geometry (-size 1099511627776 -block 64 -assoc 1): cache: size 1099511627776 exceeds 2147483648 bytes"},
		{"simulate 16GB size", "impact", []string{"simulate", "-bench", "grep", "-size", "17179869184"},
			"impact: invalid cache geometry (-size 17179869184 -block 64 -assoc 1): cache: size 17179869184 exceeds 2147483648 bytes"},
		{"icsim terabyte size", "icsim", []string{"-trace", "no-such.itr", "-size", "1099511627776"},
			"icsim: invalid cache geometry (-size 1099511627776 -block 64 -assoc 1)"},
		{"icsim terabyte sweep entry", "icsim", []string{"-trace", "no-such.itr", "-sizes", "512,1099511627776"},
			"icsim: invalid cache geometry (-sizes entry 1099511627776 -block 64 -assoc 1)"},
		{"analyze terabyte size", "impact", []string{"analyze", "-bench", "grep", "-size", "1099511627776"},
			"impact: invalid cache geometry (-size 1099511627776 -block 64 -assoc 1)"},
		{"analyze pages 4GB page", "impact", []string{"analyze", "-bench", "grep", "-pages", "-page-bytes", "4294967296"},
			"impact: invalid paging geometry (-page-bytes 4294967296 -frames 8): paging: page size 4294967296 exceeds 2147483648 bytes"},
		{"search paging 4GB page", "impact", []string{"search", "-bench", "grep", "-paging", "-page-bytes", "4294967296"},
			"impact: invalid paging geometry (-page-bytes 4294967296 -frames 8)"},
		{"icexp search 4GB page", "icexp", []string{"-tables", "none", "-search", "-page-bytes", "4294967296"},
			"icexp: invalid paging geometry (-page-bytes 4294967296 -frames 8)"},
		// Report sizes and the search budget are counts: a negative one
		// is a usage error, not a panic or a silently empty run.
		{"analyze negative top sets", "impact", []string{"analyze", "-bench", "wc", "-scale", "0.02", "-top-sets", "-1"},
			"impact: invalid value -1 for flag -top-sets: must be >= 0"},
		{"analyze pages negative top sets", "impact", []string{"analyze", "-bench", "wc", "-scale", "0.02", "-pages", "-top-sets", "-1"},
			"impact: invalid value -1 for flag -top-sets: must be >= 0"},
		{"analyze negative top pairs", "impact", []string{"analyze", "-bench", "wc", "-scale", "0.02", "-top-pairs", "-1"},
			"impact: invalid value -1 for flag -top-pairs: must be >= 0"},
		{"analyze pages negative top pairs", "impact", []string{"analyze", "-bench", "wc", "-scale", "0.02", "-pages", "-top-pairs", "-1"},
			"impact: invalid value -1 for flag -top-pairs: must be >= 0"},
		{"analyze negative top funcs", "impact", []string{"analyze", "-bench", "wc", "-scale", "0.02", "-top-funcs", "-1"},
			"impact: invalid value -1 for flag -top-funcs: must be >= 0"},
		{"search negative budget", "impact", []string{"search", "-bench", "wc", "-scale", "0.02", "-budget", "-5"},
			"impact: invalid value -5 for flag -budget: must be >= 0"},
		{"search zero budget", "impact", []string{"search", "-bench", "wc", "-scale", "0.02", "-budget", "0"},
			"impact: invalid value 0 for flag -budget: must be > 0"},
		{"profile negative top", "impact", []string{"profile", "-bench", "wc", "-scale", "0.02", "-top", "-1"},
			"impact: invalid value -1 for flag -top: must be >= 0"},
		// A latency below zero is no timing model, and a zero step cap
		// is the interpreter's own 2^40: neither is what the flag says.
		{"icsim negative latency", "icsim", []string{"-trace", "no-such.itr", "-latency", "-5"},
			"icsim: invalid value -5 for flag -latency: must be >= 0"},
		{"run zero maxsteps", "impact", []string{"run", "-ir", "no-such.ir", "-maxsteps", "0"},
			"impact: invalid value 0 for flag -maxsteps: must be > 0"},
		// Flags with a fixed set of values and required flags are
		// checked right after parsing too, before any benchmark is
		// built or file opened.
		{"icexp unknown check mode", "icexp", []string{"-check", "bogus"},
			`icexp: invalid value "bogus" for flag -check: check: unknown mode "bogus"`},
		{"icsim unknown replacement", "icsim", []string{"-trace", "no-such.itr", "-replacement", "bogus"},
			`icsim: invalid value "bogus" for flag -replacement: cache: unknown replacement policy "bogus"`},
		{"layout unknown strategy", "impact", []string{"layout", "-bench", "wc", "-strategy", "bogus"},
			`impact: invalid value "bogus" for flag -strategy: unknown strategy "bogus"`},
		{"trace unknown strategy", "impact", []string{"trace", "-bench", "wc", "-o", os.DevNull, "-strategy", "bogus"},
			`impact: invalid value "bogus" for flag -strategy: unknown strategy "bogus"`},
		{"analyze unknown strategy", "impact", []string{"analyze", "-bench", "wc", "-strategy", "bogus"},
			`impact: invalid value "bogus" for flag -strategy: unknown strategy "bogus"`},
		{"check unknown strategy", "impact", []string{"check", "-bench", "wc", "-strategy", "bogus"},
			`impact: invalid value "bogus" for flag -strategy: unknown strategy "bogus"`},
		{"simulate unknown layout", "impact", []string{"simulate", "-bench", "wc", "-layout", "bogus"},
			`impact: invalid value "bogus" for flag -layout: unknown layout "bogus"`},
		{"trace missing output", "impact", []string{"trace", "-bench", "wc"},
			"impact: missing required flag -o"},
		{"run missing ir", "impact", []string{"run"},
			"impact: missing required flag -ir"},
		{"run bad seeds", "impact", []string{"run", "-ir", "no-such.ir", "-seeds", "a,b"},
			`impact: invalid value "a,b" for flag -seeds: seed "a" is not an unsigned integer`},
		{"search unknown bench", "impact", []string{"search", "-bench", "bogus"},
			`impact: invalid value "bogus" for flag -bench: unknown benchmark "bogus"`},
	}
	// Every subcommand that runs one benchmark needs -bench to name a
	// suite benchmark.
	for _, sub := range []string{"profile", "layout", "trace", "simulate", "analyze", "check", "dump"} {
		var extra []string
		if sub == "trace" {
			extra = []string{"-o", os.DevNull}
		}
		tests = append(tests,
			garbage{sub + " unknown bench", "impact", append([]string{sub, "-bench", "bogus"}, extra...),
				`impact: invalid value "bogus" for flag -bench: unknown benchmark "bogus"`},
			garbage{sub + " missing bench", "impact", append([]string{sub}, extra...),
				"impact: missing required flag -bench"})
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
