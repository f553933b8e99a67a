package main

import (
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// writeRaw writes one raw `go test -bench` output file into a fresh
// directory and returns its path.
func writeRaw(t *testing.T, name, body string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), name)
	if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestReadRaw(t *testing.T) {
	for _, tc := range []struct {
		name, body string
		want       map[string]float64
	}{
		{"numeric suffix stripped", "BenchmarkFoo-8 \t 100\t 1234 ns/op\n", map[string]float64{"Foo": 1234}},
		{"no suffix", "BenchmarkFoo 100 12.5 ns/op\n", map[string]float64{"Foo": 12.5}},
		{"other suffixes kept", "BenchmarkFoo/size-1KB-2 10 7 ns/op\nBenchmarkBar/mode-x 10 9 ns/op\n",
			map[string]float64{"Foo/size-1KB": 7, "Bar/mode-x": 9}},
		{"non-benchmark lines ignored",
			"goos: linux\ngoarch: amd64\npkg: impact\nBenchmarkFoo-2 10 5 ns/op\nPASS\nok  \timpact\t1.2s\n",
			map[string]float64{"Foo": 5}},
		{"custom metrics ignored",
			"BenchmarkFoo-2 10 300 ns/op 12.00 MB/s 4 allocs/op 1.5 runs/op\nBenchmarkBar-2 10 2.0 widgets/op\n",
			map[string]float64{"Foo": 300}},
		{"repeated name keeps last", "BenchmarkFoo-2 10 1 ns/op\nBenchmarkFoo-2 10 2 ns/op\n", map[string]float64{"Foo": 2}},
		{"empty", "", map[string]float64{}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			got, err := readRaw(writeRaw(t, "raw.txt", tc.body))
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, tc.want) {
				t.Errorf("readRaw = %v, want %v", got, tc.want)
			}
		})
	}
}

func TestMedian(t *testing.T) {
	for _, tc := range []struct {
		in   []float64
		want float64
	}{
		{[]float64{5}, 5},
		{[]float64{3, 1, 2}, 2},
		{[]float64{4, 1, 3, 2}, 2.5},
		{[]float64{10, 2}, 6},
	} {
		in := append([]float64(nil), tc.in...)
		if got := median(tc.in); got != tc.want {
			t.Errorf("median(%v) = %v, want %v", in, got, tc.want)
		}
		if !reflect.DeepEqual(tc.in, in) {
			t.Errorf("median reordered its input to %v", tc.in)
		}
	}
}

// TestABCompare checks the -ab summary: per benchmark the median of
// each side, their ratio and the rounds head was faster in, a tie not
// counting as a win; a benchmark missing on one side is skipped.
func TestABCompare(t *testing.T) {
	rounds := [][2]string{
		{"BenchmarkA-2 1 100 ns/op\nBenchmarkB-2 1 50 ns/op\nBenchmarkOnlyBase-2 1 1 ns/op\n",
			"BenchmarkA-2 1 80 ns/op\nBenchmarkB-2 1 50 ns/op\nBenchmarkOnlyHead-2 1 1 ns/op\n"},
		{"BenchmarkA-2 1 120 ns/op\nBenchmarkB-2 1 40 ns/op\n", "BenchmarkA-2 1 130 ns/op\nBenchmarkB-2 1 60 ns/op\n"},
		{"BenchmarkA-2 1 110 ns/op\nBenchmarkB-2 1 60 ns/op\n", "BenchmarkA-2 1 90 ns/op\nBenchmarkB-2 1 70 ns/op\n"},
	}
	var paths []string
	for _, r := range rounds {
		paths = append(paths, writeRaw(t, "base", r[0]), writeRaw(t, "head", r[1]))
	}
	var out strings.Builder
	if err := abCompare(&out, paths); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	if len(lines) != 4 || lines[0] != "benchcmp -ab: 3 rounds, median ns/op" {
		t.Fatalf("summary:\n%s", out.String())
	}
	// A: base median 110, head 90, faster in rounds 1 and 3.
	// B: base median 50, head 60, one tie and no win.
	for i, want := range [][]string{{"A", "110", "90", "0.818", "2/3"}, {"B", "50", "60", "1.200", "0/3"}} {
		if got := strings.Fields(lines[2+i]); !reflect.DeepEqual(got, want) {
			t.Errorf("row %d = %v, want %v", i, got, want)
		}
	}
}

func TestABCompareRejectsOddFileCount(t *testing.T) {
	path := writeRaw(t, "base", "BenchmarkA-2 1 100 ns/op\n")
	for _, paths := range [][]string{nil, {path}, {path, path, path}} {
		var out strings.Builder
		if err := abCompare(&out, paths); err == nil {
			t.Errorf("abCompare accepted %d files", len(paths))
		}
	}
}
