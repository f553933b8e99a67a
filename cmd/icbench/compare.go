package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"sort"
	"strconv"
	"strings"
	"text/tabwriter"
)

// benchSpec is BENCHMARK.json.
type benchSpec struct {
	Command    []string     `json:"command"`
	Paths      []string     `json:"paths"`
	RunSeconds int          `json:"run_seconds"`
	Workloads  []specLoad   `json:"workloads"`
	EndToEnd   []specMetric `json:"end_to_end"`
	PerLayer   []specMetric `json:"per_layer"`
}

type specLoad struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

// specMetric is one listed metric; only end-to-end metrics carry a
// bound, the share of the parent's median by which the metric may
// worsen.
type specMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"`
}

func loadSpec(path string) (*benchSpec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var s benchSpec
	if err := dec.Decode(&s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

// savedRun is one run's saved output: its header and result line.
type savedRun struct {
	file     string
	workload string
	traced   bool
	res      result
}

func readRun(path string) (savedRun, error) {
	run := savedRun{file: path}
	data, err := os.ReadFile(path)
	if err != nil {
		return run, err
	}
	lines := strings.Split(strings.TrimSpace(string(data)), "\n")
	for _, l := range lines {
		rest, ok := strings.CutPrefix(l, headerPrefix+" ")
		if !ok {
			continue
		}
		for _, field := range strings.Fields(rest) {
			k, v, _ := strings.Cut(field, "=")
			switch k {
			case "workload":
				run.workload = v
			case "trace":
				run.traced = v == "true"
			}
		}
		break
	}
	if run.workload == "" {
		return run, fmt.Errorf("%s: no %q header line", path, headerPrefix)
	}
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &run.res); err != nil {
		return run, fmt.Errorf("%s: last line is not a result: %w", path, err)
	}
	return run, nil
}

// runKey groups saved runs that are comparable.
type runKey struct {
	workload string
	traced   bool
}

// compareFiles implements -compare: args are A's files, "--", then B's.
// It prints each metric's median and quartiles per workload on both
// sides and, for end-to-end metrics, a verdict against the bound. It
// reports false when B regressed beyond a bound, a run is incorrect,
// or a workload appears on one side only.
func compareFiles(args []string, specPath string, out io.Writer) (bool, error) {
	i := indexOf(args, "--")
	if i <= 0 || i == len(args)-1 {
		return false, errors.New("usage: icbench -compare A... -- B...")
	}
	spec, err := loadSpec(specPath)
	if err != nil {
		return false, err
	}
	groups := [2]map[runKey][]savedRun{{}, {}}
	agree := true
	for side, files := range [2][]string{args[:i], args[i+1:]} {
		for _, f := range files {
			run, err := readRun(f)
			if err != nil {
				return false, err
			}
			if !run.res.Correct {
				fmt.Fprintf(out, "%s: incorrect, %d of %d operations failed\n", f, run.res.Failed, run.res.Attempted)
				agree = false
			}
			k := runKey{run.workload, run.traced}
			groups[side][k] = append(groups[side][k], run)
		}
	}

	var keys []runKey
	for _, g := range groups {
		for k := range g {
			if indexOfKey(keys, k) < 0 {
				keys = append(keys, k)
			}
		}
	}
	order := workloadNames()
	sort.Slice(keys, func(a, b int) bool {
		x, y := keys[a], keys[b]
		if x.workload != y.workload {
			return indexOf(order, x.workload) < indexOf(order, y.workload)
		}
		return !x.traced && y.traced
	})

	tw := tabwriter.NewWriter(out, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tA median\tA q1–q3\tB median\tB q1–q3\tchange\tbound\tverdict\t")
	for _, k := range keys {
		a, b := groups[0][k], groups[1][k]
		if len(a) == 0 || len(b) == 0 {
			fmt.Fprintf(tw, "%s\t(only %d A and %d B runs)\t\t\t\t\t\t\tmissing\t\n", k.workload, len(a), len(b))
			agree = false
			continue
		}
		defs := spec.EndToEnd
		if k.traced {
			defs = spec.PerLayer
		}
		for _, d := range defs {
			av, bv := values(a, d.Name), values(b, d.Name)
			if len(av) == 0 || len(bv) == 0 {
				continue
			}
			v, ok := verdict(d, av, bv)
			agree = agree && ok
			aq1, am, aq3 := quartiles(av)
			bq1, bm, bq3 := quartiles(bv)
			change, bound := "n/a", "-"
			if am != 0 {
				change = fmt.Sprintf("%+.1f%%", 100*(bm-am)/am)
			}
			if d.Bound != nil {
				bound = fmt.Sprintf("%.0f%%", 100**d.Bound)
			}
			fmt.Fprintf(tw, "%s\t%s\t%s\t%s–%s\t%s\t%s–%s\t%s\t%s\t%s\t\n", k.workload, d.Name,
				num(am), num(aq1), num(aq3), num(bm), num(bq1), num(bq3), change, bound, v)
		}
	}
	return agree, tw.Flush()
}

// verdict judges B against A for one metric. Without a bound there is
// nothing to judge. A median worse by more than the bound regresses;
// a spread of A wider than the bound leaves the comparison unresolved
// unless every B run beats every A run.
func verdict(d specMetric, a, b []float64) (string, bool) {
	if d.Bound == nil {
		return "-", true
	}
	aq1, am, aq3 := quartiles(a)
	_, bm, _ := quartiles(b)
	worse := (bm - am) / am
	if d.Better == "higher" {
		worse = -worse
	}
	switch {
	case am == 0:
		return "n/a", true
	case worse > *d.Bound:
		return "REGRESSED", false
	case (aq3-aq1)/am > *d.Bound && !allBetter(d.Better, a, b):
		return "unresolved", true
	}
	return "ok", true
}

// allBetter reports whether every value of b beats every value of a.
func allBetter(better string, a, b []float64) bool {
	amin, amax := minMax(a)
	bmin, bmax := minMax(b)
	if better == "higher" {
		return bmin > amax
	}
	return bmax < amin
}

func minMax(xs []float64) (lo, hi float64) {
	lo, hi = xs[0], xs[0]
	for _, x := range xs {
		lo, hi = min(lo, x), max(hi, x)
	}
	return lo, hi
}

func values(runs []savedRun, name string) []float64 {
	var out []float64
	for _, r := range runs {
		if m, ok := r.res.Metrics[name]; ok {
			out = append(out, m.Value)
		}
	}
	return out
}

func num(v float64) string { return strconv.FormatFloat(v, 'g', 4, 64) }

func indexOf(xs []string, x string) int {
	for i, v := range xs {
		if v == x {
			return i
		}
	}
	return -1
}

func indexOfKey(keys []runKey, k runKey) int {
	for i, v := range keys {
		if v == k {
			return i
		}
	}
	return -1
}

// quartiles returns the three quartiles of xs as Python's
// statistics.quantiles(xs, n=4) computes them (its default exclusive
// method); the middle one is the median. One value is all three.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	if len(xs) == 0 {
		return 0, 0, 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 1 {
		return s[0], s[0], s[0]
	}
	q := func(i int) float64 {
		j := min(max(i*(n+1)/4, 1), n-1)
		delta := float64(i*(n+1) - 4*j)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return q(1), q(2), q(3)
}

func median(xs []float64) float64 {
	_, m, _ := quartiles(xs)
	return m
}
