// Command icbench is the repository's end-to-end benchmark. One
// invocation runs one workload in one process, as a closed loop with a
// single client: one goroutine calls the library and waits for each
// call to return. It
//
//   - builds the paper's programs with inputs drawn from -seed (seed 0
//     is the paper's suite; any other seed re-derives every profiling
//     and evaluation input seed);
//   - runs rounds of set-up and a timed phase for about -seconds, each
//     round on freshly derived inputs so no memoized result carries
//     over;
//   - checks every output against an independent referee;
//   - prints each end-to-end metric as "name value unit" and, as its
//     last line, one JSON result.
//
// With -trace 1 it then runs one more round with spans around its library calls and the
// program's own counters attached, times each layer's entry points
// from outside (the layer probe), writes the spans as Chrome trace
// JSON, and reports the per-layer metrics instead. -compare contrasts
// two sets of saved results against the bounds in BENCHMARK.json.
// README.md documents the workloads and metrics.
//
// Usage:
//
//	icbench -workload tables|simulate|search|analyze [-seed N]
//	        [-seconds S] [-trace 0|1] [-trace-out t.json] [-scale X]
//	icbench -compare A.out... -- B.out...
//
// Run it from the repository root (cmd/icbench/run.sh builds and runs
// it there): the tables workload at seed 0 and scale 1 reads
// docs/results-full.txt, and -compare reads BENCHMARK.json.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
)

// metricDef names one reported metric and its unit. BENCHMARK.json
// lists the same metrics with each one's direction and, end to end,
// its bound; a test keeps the two in step.
type metricDef struct {
	name, unit string
}

// endToEnd lists the metrics a run without tracing reports. Both times
// are CPU seconds.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"run_cpu_s", "s"},
	{"opt_miss_pct", "%"},
}

// perLayer lists the metrics a traced run reports. A layer the
// workload does not exercise reports zero.
var perLayer = func() []metricDef {
	defs := []metricDef{
		{"proc.setup_wall_s", "s"},
		{"proc.wall_s", "s"},
		{"proc.cpu_util", "ratio"},
		{"proc.gc_cpu_frac", "ratio"},
		{"proc.alloc_gb", "GB"},
		{"proc.peak_rss_mb", "MB"},
		{"workload.build_s", "s"},
		{"profile.busy_s", "s"},
		{"profile.ns_per_instr", "ns"},
		{"inline.busy_s", "s"},
		{"inline.sites_inlined", "count"},
		{"traceselect.busy_s", "s"},
		{"funclayout.busy_s", "s"},
		{"globallayout.busy_s", "s"},
		{"core.optimize_s", "s"},
		{"layout.trace_s", "s"},
		{"layout.ns_per_instr", "ns"},
		{"memtrace.accesses_m", "M"},
		{"memtrace.avg_run_words", "words"},
		{"cache.ns_per_access", "ns"},
		{"cache.shard_speedup", "x"},
		{"sweep.ns_per_access", "ns"},
		{"sweep.band_speedup", "x"},
		{"paging.ns_per_access", "ns"},
	}
	for _, s := range sectionNames {
		defs = append(defs, metricDef{"experiments." + s + "_s", "s"})
	}
	return append(defs,
		metricDef{"experiments.sims_run", "count"},
		metricDef{"experiments.memo_hit_ratio", "ratio"},
		metricDef{"experiments.trace_passes", "count"},
		metricDef{"experiments.stack_share", "ratio"},
		metricDef{"experiments.sharded_sims", "count"},
		metricDef{"experiments.banded_passes", "count"},
		metricDef{"analysis.full_ms", "ms"},
		metricDef{"analysis.pages_ms", "ms"},
		metricDef{"analysis.nc_frac", "ratio"},
		metricDef{"analysis.bound_ratio", "ratio"},
		metricDef{"analysis.incr_us", "us"},
		metricDef{"analysis.dirty_frac", "ratio"},
		metricDef{"search.busy_s", "s"},
		metricDef{"search.evals_per_s", "1/s"},
		metricDef{"search.accept_ratio", "ratio"},
		metricDef{"search.miss_ratio", "ratio"},
		metricDef{"search.fault_ratio", "ratio"},
		metricDef{"trace.overhead_s", "s"},
	)
}()

// metric is one reported value in the result JSON.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the JSON object a run prints as its last line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// headerPrefix starts the first line of a run's output; -compare reads
// the workload and the trace mode from it.
const headerPrefix = "# icbench"

func main() {
	name := flag.String("workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
	seed := flag.Uint64("seed", 0, "input seed; 0 is the paper's suite")
	seconds := flag.Float64("seconds", 10, "time budget of the timed rounds, in seconds")
	trace := flag.Int("trace", 0, "1 adds a traced round and the layer probe and reports the per-layer metrics")
	traceOut := flag.String("trace-out", "", "Chrome trace file of a traced run (default .bench_build/icbench-<workload>.trace.json)")
	scale := flag.Float64("scale", 0, "dynamic trace scale (default: the workload's own)")
	compare := flag.Bool("compare", false, "compare saved results: icbench -compare A... -- B...")
	flag.Parse()

	if *compare {
		ok, err := compareFiles(flag.Args(), "BENCHMARK.json", os.Stdout)
		if err != nil {
			fatal(err)
		}
		if !ok {
			os.Exit(1)
		}
		return
	}
	w, ok := workloadByName(*name)
	if !ok {
		fatal(fmt.Errorf("unknown workload %q (want one of %s)", *name, strings.Join(workloadNames(), ", ")))
	}
	if *trace != 0 && *trace != 1 {
		fatal(fmt.Errorf("-trace is %d, want 0 or 1", *trace))
	}
	if flag.NArg() > 0 {
		fatal(fmt.Errorf("unexpected arguments %q", flag.Args()))
	}
	cfg := runConfig{
		w:         w,
		seed:      *seed,
		scale:     w.scale,
		seconds:   *seconds,
		minRounds: 3,
		trace:     *trace == 1,
		traceOut:  *traceOut,
	}
	if *scale > 0 {
		cfg.scale = *scale
	}
	if cfg.trace && cfg.traceOut == "" {
		cfg.traceOut = filepath.Join(".bench_build", "icbench-"+w.name+".trace.json")
	}
	rep, err := run(cfg)
	if err != nil {
		fatal(err)
	}
	if err := rep.print(os.Stdout); err != nil {
		fatal(err)
	}
}

// report is a finished run: what it measured and how it went.
type report struct {
	cfg    runConfig
	rounds int
	// items counts the timed items (sections, requests, programs or
	// program layouts); itemP50 and itemP75 are their time percentiles.
	items            int
	itemP50, itemP75 float64
	attempted        int
	failed           int
	e2e              map[string]float64
	layers           map[string]float64 // nil unless traced
}

// print writes the header, one "name value unit" line per metric and
// the JSON result: the end-to-end metrics without tracing, the
// per-layer ones with it.
func (rep *report) print(w io.Writer) error {
	var b strings.Builder
	fmt.Fprintf(&b, "%s workload=%s seed=%d trace=%t scale=%g nproc=%d rounds=%d\n",
		headerPrefix, rep.cfg.w.name, rep.cfg.seed, rep.cfg.trace, rep.cfg.scale,
		runtime.GOMAXPROCS(0), rep.rounds)
	fmt.Fprintf(&b, "# items n=%d p50=%.6fs p75=%.6fs\n", rep.items, rep.itemP50, rep.itemP75)
	defs, values := endToEnd, rep.e2e
	if rep.cfg.trace {
		writeLines(&b, endToEnd, rep.e2e)
		defs, values = perLayer, rep.layers
	}
	writeLines(&b, defs, values)
	res := result{
		Correct:   rep.failed == 0,
		Attempted: rep.attempted,
		Failed:    rep.failed,
		Metrics:   make(map[string]metric, len(defs)),
	}
	for _, d := range defs {
		res.Metrics[d.name] = metric{Value: values[d.name], Unit: d.unit}
	}
	data, err := json.Marshal(res)
	if err != nil {
		return err
	}
	b.Write(data)
	b.WriteByte('\n')
	_, err = io.WriteString(w, b.String())
	return err
}

func writeLines(b *strings.Builder, defs []metricDef, values map[string]float64) {
	for _, d := range defs {
		fmt.Fprintf(b, "%s %s %s\n", d.name, strconv.FormatFloat(values[d.name], 'g', -1, 64), d.unit)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "icbench:", err)
	os.Exit(1)
}
