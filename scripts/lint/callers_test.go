package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// callersTree writes a module "a" with the given files and returns its
// root.
func callersTree(t *testing.T, files map[string]string) string {
	t.Helper()
	root := t.TempDir()
	files["go.mod"] = "module a\n\ngo 1.22\n"
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

// callersLib declares one exported function per way of being called,
// plus an exported method and an unexported function, which rule 7
// ignores.
const callersLib = `package p

func FromCmd()   {}
func FromPeer()  {}
func ViaAlias()  {}
func AsValue()   {}
func FromBench() {}

type T struct{}

func (T) Method() {}

func helper() {}
`

// callersUses calls every function of callersLib from outside package
// p: a command, a peer package, an aliased import, a function value,
// and a nested module like cmd/icbench.
var callersUses = map[string]string{
	"internal/p/p.go": callersLib,
	"cmd/x/main.go": `package main

import (
	"a/internal/p"
	pp "a/internal/p"
)

func main() {
	p.FromCmd()
	pp.ViaAlias()
	f := p.AsValue
	f()
}
`,
	"internal/q/q.go":        "package q\n\nimport \"a/internal/p\"\n\nfunc G() { p.FromPeer() }\n",
	"cmd/q/main.go":          "package main\n\nimport \"a/internal/q\"\n\nfunc main() { q.G() }\n",
	"cmd/bench/go.mod":       "module a/cmd/bench\n",
	"cmd/bench/main.go":      "package main\n\nimport \"a/internal/p\"\n\nfunc main() { p.FromBench() }\n",
	"internal/p/p_test.go":   "package p\n\nfunc init() { helper() }\n",
	"internal/q/q_x_test.go": "package q_test\n",
}

func TestCallers(t *testing.T) {
	with := func(extra map[string]string) map[string]string {
		files := map[string]string{}
		for k, v := range callersUses {
			files[k] = v
		}
		for k, v := range extra {
			files[k] = v
		}
		return files
	}
	tests := []struct {
		name  string
		files map[string]string
		want  []string // substrings, one per expected problem
	}{
		{name: "every way of calling", files: with(nil)},
		{
			name: "only its own package calls it",
			files: with(map[string]string{
				"internal/p/own.go": "package p\n\nfunc Own() {}\n\nfunc use() { Own() }\n",
			}),
			want: []string{"internal/p/own.go:3: exported function p.Own has no non-test caller outside its package"},
		},
		{
			name: "only a test calls it",
			files: with(map[string]string{
				"internal/p/tested.go":     "package p\n\nfunc Tested() {}\n",
				"internal/q/q_ext_test.go": "package q\n\nimport \"a/internal/p\"\n\nfunc init() { p.Tested() }\n",
			}),
			want: []string{"exported function p.Tested has no non-test caller"},
		},
		{
			name: "waived with a reason",
			files: with(map[string]string{
				"internal/p/waived.go": "package p\n\n// Waived is test API.\n//\n//lint:testapi TestWaived calls it\nfunc Waived() {}\n",
			}),
		},
		{
			name: "waiver without a reason",
			files: with(map[string]string{
				"internal/p/bare.go": "package p\n\n//lint:testapi\nfunc Bare() {}\n",
			}),
			want: []string{"internal/p/bare.go:4: exported function p.Bare has no non-test caller"},
		},
		{
			name: "caller under testdata",
			files: with(map[string]string{
				"internal/p/data.go":        "package p\n\nfunc Data() {}\n",
				"cmd/x/testdata/fixture.go": "package fixture\n\nimport \"a/internal/p\"\n\nfunc F() { p.Data() }\n",
			}),
			want: []string{"exported function p.Data has no non-test caller"},
		},
		{
			name: "local name shadowing the package",
			files: with(map[string]string{
				"internal/p/shadow.go": "package p\n\nfunc Shadow() {}\n",
				"cmd/y/main.go":        "package main\n\nimport \"a/internal/p\"\n\ntype s struct{ Shadow func() }\n\nfunc main() {\n\tp.FromCmd()\n\t{\n\t\tp := s{}\n\t\tp.Shadow()\n\t}\n}\n",
			}),
			want: []string{"exported function p.Shadow has no non-test caller"},
		},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			got := lintCallers(callersTree(t, tt.files))
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

// TestCallersTree runs rule 7 on this repository.
func TestCallersTree(t *testing.T) {
	if got := lintCallers(filepath.Join("..", "..")); len(got) != 0 {
		t.Errorf("rule 7 on the repository:\n%s", strings.Join(got, "\n"))
	}
}
