package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// inventorySource registers one name of every form rule 6 resolves.
const inventorySource = `package a

import "fmt"

func f(r R, name string, w int) {
	r.Counter("a.runs")
	r.Counter("check." + name + ".runs")
	r.Gauge("a.level")
	r.Gauge("a.latency")
	r.NewLane(fmt.Sprintf("a-worker-%d", w))
	r.NewLane("a-worker-0")
}
`

// inventoryTable documents exactly inventorySource's names.
const inventoryTable = "| name | meaning |\n|---|---|\n" +
	"| `a.runs` / `check.<analyzer>.runs` | counters |\n" +
	"| `a.level` | gauge |\n" +
	"| `a.latency` | gauge |\n"

const laneTable = "| lane | owner |\n|---|---|\n" +
	"| `main` | lane 0 |\n" +
	"| `a-worker-N` | the pool |\n"

// inventoryTree writes a repository with the given source and
// inventory document and returns its root.
func inventoryTree(t *testing.T, src, doc string) string {
	t.Helper()
	root := t.TempDir()
	files := map[string]string{
		"internal/a/a.go":      src,
		"internal/a/a_test.go": "package a\n\nfunc g(r R) { r.Counter(\"test.only\") }\n",
		inventoryDoc:           doc,
	}
	for _, dir := range inventoryDirs[1:] {
		files[dir+"/main.go"] = "package main\n"
	}
	for path, body := range files {
		full := filepath.Join(root, path)
		if err := os.MkdirAll(filepath.Dir(full), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(full, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return root
}

func TestObsInventory(t *testing.T) {
	tests := []struct {
		name string
		src  string
		doc  string
		want []string // substrings, one per expected problem
	}{
		{
			name: "complete",
			src:  inventorySource,
			doc:  "# Obs\n\n" + inventoryTable + "\nLanes:\n\n" + laneTable,
		},
		{
			name: "undocumented counter",
			src:  strings.Replace(inventorySource, `r.Gauge("a.level")`, `r.Gauge("a.level")`+"\n\tr.Counter(\"a.new\")", 1),
			doc:  inventoryTable + "\n" + laneTable,
			want: []string{`internal/a/a.go:9: metric "a.new" is registered but not listed`},
		},
		{
			name: "documented name nothing registers",
			src:  inventorySource,
			doc:  inventoryTable + "| `a.gone` | removed |\n\n" + laneTable,
			want: []string{`docs/OBSERVABILITY.md:6: metric "a.gone" is listed but no code registers it`},
		},
		{
			name: "lane listed as a metric",
			src:  inventorySource,
			doc:  inventoryTable + "| `a-worker-N` | misplaced |\n\n" + "| lane | owner |\n|---|---|\n| `main` | lane 0 |\n",
			want: []string{
				`lane "a-worker-N" is registered but not listed`,
				`metric "a-worker-N" is listed but no code registers it`,
			},
		},
		{
			name: "Sprintf verb other than %d",
			src:  strings.Replace(inventorySource, `"a-worker-%d", w`, `"a-worker-%s", name`, 1),
			doc:  inventoryTable + "\n" + laneTable,
			want: []string{
				"internal/a/a.go:10: lane name passed to NewLane is not a literal",
			},
		},
		{
			name: "unresolvable name",
			src:  strings.Replace(inventorySource, `r.Counter("a.runs")`, `r.Counter(name)`, 1),
			doc:  inventoryTable + "\n" + laneTable,
			want: []string{
				"internal/a/a.go:6: metric name passed to Counter is not a literal",
				`metric "a.runs" is listed but no code registers it`,
			},
		},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			got := lintObsInventory(inventoryTree(t, tt.src, tt.doc))
			if len(got) != len(tt.want) {
				t.Fatalf("problems = %q, want %d matching %q", got, len(tt.want), tt.want)
			}
			for _, w := range tt.want {
				found := false
				for _, p := range got {
					found = found || strings.Contains(p, w)
				}
				if !found {
					t.Errorf("no problem contains %q in %q", w, got)
				}
			}
		})
	}
}

// TestObsInventoryTree runs rule 6 on this repository.
func TestObsInventoryTree(t *testing.T) {
	if got := lintObsInventory(filepath.Join("..", "..")); len(got) != 0 {
		t.Errorf("rule 6 on the repository:\n%s", strings.Join(got, "\n"))
	}
}
