package integration

// End-to-end tests of the timeline tracing surface (-trace-out) and
// the per-stage locality ledger (-report): the Chrome trace JSON a
// real command run writes must be valid, lane-attributed, and
// monotonic, and the ledger must walk every pipeline stage.

import (
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// chromeEvent mirrors the Chrome trace-event JSON schema
// (docs/OBSERVABILITY.md) closely enough to validate it from the
// outside, as Perfetto would.
type chromeEvent struct {
	Ph   string            `json:"ph"`
	Pid  int               `json:"pid"`
	Tid  int               `json:"tid"`
	Cat  string            `json:"cat"`
	Name string            `json:"name"`
	TS   float64           `json:"ts"`
	Dur  float64           `json:"dur"`
	S    string            `json:"s"`
	Args map[string]string `json:"args"`
}

// loadTrace parses a -trace-out file and returns (lane name by tid,
// timed events).
func loadTrace(t *testing.T, path string) (map[int]string, []chromeEvent) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var evs []chromeEvent
	if err := json.Unmarshal(data, &evs); err != nil {
		t.Fatalf("trace JSON does not parse: %v\n%.400s", err, data)
	}
	lanes := make(map[int]string)
	var timed []chromeEvent
	for _, ev := range evs {
		switch ev.Ph {
		case "M":
			if ev.Name == "thread_name" {
				lanes[ev.Tid] = ev.Args["name"]
			}
		case "X", "i":
			timed = append(timed, ev)
		default:
			t.Errorf("unexpected event phase %q", ev.Ph)
		}
	}
	return lanes, timed
}

// TestImpactRunTraceOutAndReport drives the headline workflow: one
// `impact run` with the timeline and the stage ledger enabled.
func TestImpactRunTraceOutAndReport(t *testing.T) {
	dir := t.TempDir()
	irPath := filepath.Join(dir, "prog.ir")
	tracePath := filepath.Join(dir, "t.json")
	runTool(t, "impact", "dump", "-bench", "cmp", "-scale", "0.1", "-o", irPath)
	out := runTool(t, "impact", "run", "-ir", irPath, "-seeds", "1,2",
		"-trace-out", tracePath, "-report", "-workers", "2")

	lanes, timed := loadTrace(t, tracePath)

	// The two layout simulations run on the engine's worker pool, two
	// workers wide, so the timeline must carry at least two
	// sweep-worker lanes.
	var sweepLanes int
	for _, name := range lanes {
		if strings.HasPrefix(name, "sweep-worker-") {
			sweepLanes++
		}
	}
	if sweepLanes < 2 {
		t.Errorf("trace has %d sweep-worker lanes, want >= 2 (lanes: %v)", sweepLanes, lanes)
	}

	// Every timed event sits on a named lane; per lane, timestamps
	// never go backwards.
	lastTS := make(map[int]float64)
	taskLanes := make(map[int]bool)
	var sawPipeline bool
	for _, ev := range timed {
		if _, ok := lanes[ev.Tid]; !ok {
			t.Errorf("event %q on unnamed lane tid=%d", ev.Name, ev.Tid)
		}
		if ev.TS < lastTS[ev.Tid] {
			t.Errorf("lane %d: event %q ts %.3f before %.3f", ev.Tid, ev.Name, ev.TS, lastTS[ev.Tid])
		}
		lastTS[ev.Tid] = ev.TS
		switch ev.Name {
		case "pipeline":
			sawPipeline = true
		case "sweep/task":
			taskLanes[ev.Tid] = true
			if k := ev.Args["kind"]; k != "stack" && k != "forest" && k != "replay" {
				t.Errorf("sweep/task kind = %q", k)
			}
		}
	}
	if !sawPipeline {
		t.Error("no pipeline span in the timeline")
	}
	if len(taskLanes) < 2 {
		t.Errorf("sweep tasks ran on %d lanes, want 2 (one per layout)", len(taskLanes))
	}

	// The ledger walks all five pipeline stages, in order, and its
	// scores are sane ratios. (Exact agreement with
	// internal/analysis.ScoreLayout is pinned by the core unit tests.)
	idx := -1
	for _, stage := range []string{"input", "inline", "traceselect", "funclayout", "globallayout"} {
		at := strings.Index(out, "\n"+stage)
		if at < 0 {
			t.Fatalf("ledger missing stage %q:\n%s", stage, out)
		}
		if at < idx {
			t.Errorf("ledger stage %q out of order", stage)
		}
		idx = at
	}
	for _, m := range regexp.MustCompile(`(?m)^(?:input|inline|traceselect|funclayout|globallayout)\s.*`).
		FindAllString(out, -1) {
		f := strings.Fields(m)
		// stage funcs blocks bytes [Δbytes] fall-thru [Δft] ext-tsp
		// [Δtsp]; the first row has no delta cells.
		posFT, posTSP := len(f)-4, len(f)-2
		if len(f) == 6 {
			posFT, posTSP = 4, 5
		}
		for _, pos := range []int{posFT, posTSP} {
			v, err := strconv.ParseFloat(f[pos], 64)
			if err != nil || v < 0 || v > 1 {
				t.Errorf("ledger row %q: score %q not a ratio", m, f[pos])
			}
		}
	}
}

// TestIcexpReportAndTraceOut checks the suite-level surface: icexp
// -report prints one ledger per benchmark and the timeline shows the
// prepare workers (two at -workers 2) as parallel lanes.
func TestIcexpReportAndTraceOut(t *testing.T) {
	tracePath := filepath.Join(t.TempDir(), "t.json")
	out := runTool(t, "icexp", "-scale", "0.02", "-tables", "5", "-report", "-trace-out", tracePath, "-workers", "2")

	if got := strings.Count(out, "Per-stage locality ledger"); got != 10 {
		t.Errorf("%d benchmark ledgers printed, want 10", got)
	}
	for _, bench := range []string{"benchmark cccp", "benchmark wc", "benchmark yacc"} {
		if !strings.Contains(out, bench) {
			t.Errorf("ledger section %q missing", bench)
		}
	}

	lanes, timed := loadTrace(t, tracePath)
	var prepareLanes int
	for _, name := range lanes {
		if strings.HasPrefix(name, "prepare-worker-") {
			prepareLanes++
		}
	}
	if prepareLanes < 2 {
		t.Errorf("trace has %d prepare-worker lanes, want >= 2 (lanes: %v)", prepareLanes, lanes)
	}
	benches := make(map[string]bool)
	for _, ev := range timed {
		if ev.Name == "prepare/benchmark" {
			benches[ev.Args["benchmark"]] = true
		}
	}
	if len(benches) != 10 {
		t.Errorf("prepare/benchmark spans cover %d benchmarks, want 10: %v", len(benches), benches)
	}
}
