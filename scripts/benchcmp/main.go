// Command benchcmp is the repository's performance-regression gate:
// it compares two bench.sh JSON result files (a committed baseline
// and a fresh run) benchmark by benchmark on ns/op.
//
// Usage:
//
//	go run ./scripts/benchcmp -base BENCH_PR6.json -new /tmp/bench.json \
//	    [-warn 10] [-fail 25]
//
// Per benchmark the regression is (new-base)/base in percent. Below
// -warn it is noise; at or above -warn it prints a WARN; at or above
// -fail it prints a FAIL and the command exits non-zero. Improvements
// never fail, however large. Benchmarks present on only one side are
// warned about but do not fail the gate (the suite grows; a vanished
// benchmark should be caught by review, not by a numeric gate).
//
// The files must come from the same scale and benchtime — ns/op at
// different trace scales are not comparable — so a mismatch fails
// immediately.
//
// With -ab it compares two builds run alternately on one host instead
// (scripts/bench.sh -ab writes the inputs):
//
//	go run ./scripts/benchcmp -ab BASE1 HEAD1 BASE2 HEAD2 ...
//
// Each (BASE, HEAD) pair is one round of raw `go test -bench` output
// from the two test binaries. Per benchmark it prints the median ns/op
// of each side, their ratio (head/base) and the number of rounds HEAD
// was faster in. It applies no fail rule.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strconv"
	"strings"
)

// results mirrors the JSON written by scripts/bench.sh.
type results struct {
	Scale      float64                       `json:"scale"`
	Benchtime  string                        `json:"benchtime"`
	Benchmarks map[string]map[string]float64 `json:"benchmarks"`
}

func load(path string) (*results, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r results
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if len(r.Benchmarks) == 0 {
		return nil, fmt.Errorf("%s: no benchmarks recorded", path)
	}
	return &r, nil
}

func main() {
	basePath := flag.String("base", "", "baseline bench JSON (required)")
	newPath := flag.String("new", "", "fresh bench JSON (required)")
	warnPct := flag.Float64("warn", 10, "warn at this ns/op regression percentage")
	failPct := flag.Float64("fail", 25, "fail (non-zero exit) at this ns/op regression percentage")
	ab := flag.Bool("ab", false, "compare rounds of raw go test -bench output given as BASE HEAD file pairs")
	flag.Parse()
	if *ab {
		if err := abCompare(os.Stdout, flag.Args()); err != nil {
			fatal(err)
		}
		return
	}
	if *basePath == "" || *newPath == "" {
		flag.Usage()
		os.Exit(2)
	}

	base, err := load(*basePath)
	if err != nil {
		fatal(err)
	}
	fresh, err := load(*newPath)
	if err != nil {
		fatal(err)
	}
	if base.Scale != fresh.Scale || base.Benchtime != fresh.Benchtime {
		fatal(fmt.Errorf("incomparable runs: base scale=%g benchtime=%s, new scale=%g benchtime=%s",
			base.Scale, base.Benchtime, fresh.Scale, fresh.Benchtime))
	}

	var names []string
	for name := range base.Benchmarks {
		names = append(names, name)
	}
	sort.Strings(names)

	fmt.Printf("benchcmp: %s -> %s (scale %g, benchtime %s; warn %+.0f%%, fail %+.0f%%)\n",
		*basePath, *newPath, base.Scale, base.Benchtime, *warnPct, *failPct)
	failed := false
	for _, name := range names {
		b := base.Benchmarks[name]["ns/op"]
		n, ok := fresh.Benchmarks[name]
		if !ok {
			fmt.Printf("  WARN  %-24s missing from new run\n", name)
			continue
		}
		nv := n["ns/op"]
		if b <= 0 {
			fmt.Printf("  WARN  %-24s baseline ns/op is %g; skipping\n", name, b)
			continue
		}
		delta := (nv - b) / b * 100
		verdict := "ok"
		switch {
		case delta >= *failPct:
			verdict = "FAIL"
			failed = true
		case delta >= *warnPct:
			verdict = "WARN"
		}
		fmt.Printf("  %-4s  %-24s %12.0f -> %12.0f ns/op  %+7.1f%%\n", verdict, name, b, nv, delta)
	}
	var added []string
	for name := range fresh.Benchmarks {
		if _, ok := base.Benchmarks[name]; !ok {
			added = append(added, name)
		}
	}
	sort.Strings(added)
	for _, name := range added {
		fmt.Printf("  note  %-24s not in baseline\n", name)
	}
	if failed {
		fmt.Printf("benchcmp: FAIL — at least one benchmark regressed >= %.0f%%\n", *failPct)
		os.Exit(1)
	}
	fmt.Println("benchcmp: ok")
}

// abCompare writes the -ab summary of (base, head) round pairs to w.
func abCompare(w io.Writer, paths []string) error {
	if len(paths) == 0 || len(paths)%2 != 0 {
		return fmt.Errorf("-ab wants BASE HEAD file pairs, got %d files", len(paths))
	}
	rounds := len(paths) / 2
	base, head := map[string][]float64{}, map[string][]float64{}
	wins := map[string]int{}
	for r := 0; r < rounds; r++ {
		b, err := readRaw(paths[2*r])
		if err != nil {
			return err
		}
		h, err := readRaw(paths[2*r+1])
		if err != nil {
			return err
		}
		for name, bv := range b {
			hv, ok := h[name]
			if !ok {
				continue
			}
			base[name] = append(base[name], bv)
			head[name] = append(head[name], hv)
			if hv < bv {
				wins[name]++
			}
		}
	}
	if len(base) == 0 {
		return fmt.Errorf("-ab: no benchmark ran on both sides")
	}
	var names []string
	for name := range base {
		names = append(names, name)
	}
	sort.Strings(names)
	fmt.Fprintf(w, "benchcmp -ab: %d rounds, median ns/op\n", rounds)
	fmt.Fprintf(w, "  %-28s %14s %14s %8s %6s\n", "benchmark", "base", "head", "head/base", "wins")
	for _, name := range names {
		mb, mh := median(base[name]), median(head[name])
		fmt.Fprintf(w, "  %-28s %14.0f %14.0f %8.3f %3d/%d\n", name, mb, mh, mh/mb, wins[name], len(base[name]))
	}
	return nil
}

// readRaw reads the ns/op of every benchmark line of one raw
// `go test -bench` output, keyed by name without the Benchmark prefix
// and the -GOMAXPROCS suffix. A benchmark listed twice keeps its last
// value.
func readRaw(path string) (map[string]float64, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	out := map[string]float64{}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) < 4 || !strings.HasPrefix(fields[0], "Benchmark") || fields[3] != "ns/op" {
			continue
		}
		v, err := strconv.ParseFloat(fields[2], 64)
		if err != nil {
			return nil, fmt.Errorf("%s: %q: %w", path, sc.Text(), err)
		}
		name := strings.TrimPrefix(fields[0], "Benchmark")
		if i := strings.LastIndexByte(name, '-'); i > 0 {
			if _, err := strconv.Atoi(name[i+1:]); err == nil {
				name = name[:i]
			}
		}
		out[name] = v
	}
	return out, sc.Err()
}

func median(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchcmp:", err)
	os.Exit(1)
}
