package integration

// End-to-end tests of the observability surface: metrics JSON from a
// real icexp run, the icsim simulator knobs, structured capped-run
// warnings, and the pprof flags.

import (
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// toolCmd builds (but does not run) a command for one of the tools,
// for tests that expect a non-zero exit.
func toolCmd(t *testing.T, name string, args ...string) *exec.Cmd {
	t.Helper()
	return exec.Command(filepath.Join(binaries(t), name), args...)
}

// metricsSnapshot mirrors the obs JSON schema (docs/OBSERVABILITY.md)
// closely enough to validate it from the outside, as a consumer would.
type metricsSnapshot struct {
	Schema   string             `json:"schema"`
	Counters map[string]uint64  `json:"counters"`
	Gauges   map[string]float64 `json:"gauges"`
	Spans    map[string]struct {
		Count   uint64 `json:"count"`
		TotalNS int64  `json:"total_ns"`
	} `json:"spans"`
}

func TestIcexpMetricsOut(t *testing.T) {
	path := filepath.Join(t.TempDir(), "m.json")
	runTool(t, "icexp", "-scale", "0.02", "-tables", "6", "-metrics-out", path)

	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var m metricsSnapshot
	if err := json.Unmarshal(data, &m); err != nil {
		t.Fatalf("metrics JSON does not parse: %v\n%.400s", err, data)
	}
	if m.Schema != "impact.metrics/v2" {
		t.Errorf("schema = %q, want impact.metrics/v2", m.Schema)
	}

	// All five pipeline stages must report durations.
	for _, stage := range []string{"profile", "inline", "traceselect", "funclayout", "globallayout"} {
		sp, ok := m.Spans["pipeline/"+stage]
		if !ok {
			t.Errorf("span pipeline/%s missing", stage)
			continue
		}
		if sp.Count == 0 {
			t.Errorf("span pipeline/%s never entered", stage)
		}
	}
	// One pipeline run per benchmark in the ten-benchmark suite.
	if got := m.Counters["pipeline.runs"]; got != 10 {
		t.Errorf("pipeline.runs = %d, want 10", got)
	}

	// Per-benchmark prepare times and worker utilization.
	for _, bench := range []string{"cccp", "wc", "yacc", "tee"} {
		if v, ok := m.Gauges["prepare."+bench+".seconds"]; !ok || v <= 0 {
			t.Errorf("prepare.%s.seconds = %v (present=%v), want > 0", bench, v, ok)
		}
	}
	if u := m.Gauges["prepare.worker_utilization"]; u <= 0 || u > 1 {
		t.Errorf("prepare.worker_utilization = %v, want in (0, 1]", u)
	}
	if sp := m.Spans["prepare/benchmark"]; sp.Count != 10 || sp.TotalNS <= 0 {
		t.Errorf("prepare/benchmark span = %+v, want 10 entries and a positive total", sp)
	}

	// Table 6 replays traces into caches, so simulator counters are live.
	for _, name := range []string{"cache.simulations", "cache.accesses", "cache.misses", "interp.instrs"} {
		if m.Counters[name] == 0 {
			t.Errorf("counter %s is zero", name)
		}
	}
	if m.Counters["cache.misses"] > m.Counters["cache.accesses"] {
		t.Errorf("misses %d exceed accesses %d", m.Counters["cache.misses"], m.Counters["cache.accesses"])
	}
}

func TestIcsimSimulatorKnobs(t *testing.T) {
	trace := filepath.Join(t.TempDir(), "tee.itr")
	runTool(t, "impact", "trace", "-bench", "tee", "-scale", "0.05", "-o", trace)

	out := runTool(t, "icsim", "-trace", trace, "-assoc", "4", "-replacement", "fifo",
		"-prefetch", "-latency", "8")
	for _, want := range []string{"fifo", "prefetch", "stall cycles:", "eff. access:", "prefetches:"} {
		if !strings.Contains(out, want) {
			t.Errorf("icsim output missing %q:\n%s", want, out)
		}
	}

	// Unknown policy must be rejected, not silently defaulted.
	if _, err := toolCmd(t, "icsim", "-trace", trace, "-replacement", "bogus").CombinedOutput(); err == nil {
		t.Error("icsim accepted unknown replacement policy")
	}
}

func TestImpactRunCappedWarningIsStructured(t *testing.T) {
	dir := t.TempDir()
	irPath := filepath.Join(dir, "prog.ir")
	metrics := filepath.Join(dir, "m.json")
	runTool(t, "impact", "dump", "-bench", "wc", "-scale", "0.05", "-o", irPath)
	// A tiny step cap guarantees both evaluation runs are truncated.
	out := runTool(t, "impact", "run", "-ir", irPath, "-seeds", "1,2", "-maxsteps", "2000",
		"-metrics-out", metrics)
	for _, want := range []string{"level=WARN", "instruction cap", "cap=2000", "executed=",
		"layout=optimized", "layout=natural"} {
		if !strings.Contains(out, want) {
			t.Errorf("capped-run warning missing %q:\n%s", want, out)
		}
	}
	data, err := os.ReadFile(metrics)
	if err != nil {
		t.Fatal(err)
	}
	var m metricsSnapshot
	if err := json.Unmarshal(data, &m); err != nil {
		t.Fatal(err)
	}
	if n := m.Counters["interp.eval_capped"]; n != 2 {
		t.Errorf("interp.eval_capped = %d, want 2 (both layouts):\n%s", n, data)
	}
}

func TestPprofFlagsWriteProfiles(t *testing.T) {
	dir := t.TempDir()
	cpu := filepath.Join(dir, "cpu.pb.gz")
	mem := filepath.Join(dir, "mem.pb.gz")
	runTool(t, "impact", "simulate", "-bench", "cmp", "-scale", "0.05",
		"-cpuprofile", cpu, "-memprofile", mem)
	for _, p := range []string{cpu, mem} {
		st, err := os.Stat(p)
		if err != nil {
			t.Fatalf("profile not written: %v", err)
		}
		if st.Size() == 0 {
			t.Errorf("profile %s is empty", p)
		}
	}
}

func TestIcexpVerboseLoggingAndProgress(t *testing.T) {
	out := runTool(t, "icexp", "-scale", "0.02", "-tables", "4", "-v")
	if !strings.Contains(out, "prepared in") {
		t.Errorf("missing per-benchmark progress lines:\n%s", out)
	}
	if !strings.Contains(out, "level=DEBUG") {
		t.Errorf("-v did not enable debug logging:\n%s", out)
	}
	if !strings.Contains(out, "spans:") || !strings.Contains(out, "pipeline") {
		t.Errorf("-v did not print the text metrics report:\n%s", out)
	}
}
