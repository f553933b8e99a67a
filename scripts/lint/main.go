// Command lint is the repository's stdlib-only source linter, run in
// CI next to gofmt and go vet. It enforces seven local conventions:
//
//   - fmt.Print/Printf/Println are forbidden outside cmd/, examples/,
//     scripts/, and test files: library packages report through
//     internal/obs and log/slog, never by writing to stdout.
//   - every exported function, method, and type in internal/check must
//     carry a doc comment: the verifier is the repo's specification of
//     pipeline invariants, and an undocumented invariant is no
//     specification at all.
//   - the same doc-comment rule covers internal/analysis and
//     internal/paging — including exported constants and variables:
//     the analyzer's bounds and the paging model are the claims the
//     differential tests certify, so every exported identifier states
//     what it guarantees.
//   - `for range` over a map is forbidden in non-test internal/ code
//     unless the site sorts its keys or carries a
//     //lint:maprange <reason> waiver declaring it order-insensitive:
//     map iteration order is randomised, and silent nondeterminism in
//     library code undermines the repo's reproducibility guarantees
//     (see maprange.go).
//   - time.Now() and math/rand imports are forbidden in non-test
//     internal/ code: library passes — the layout search above all —
//     must be deterministic functions of their inputs and seeds.
//     Randomness comes from seeded internal/xrand; a time.Now() used
//     for timing spans or progress carries a //lint:walltime <reason>
//     waiver (see walltime.go).
//   - docs/OBSERVABILITY.md lists exactly the metric and lane names
//     the code registers: an undocumented counter and a documented
//     name nothing registers are both errors (see obsnames.go).
//   - an exported package-level function in non-test internal/ code
//     must have a non-test caller outside its package, or carry a
//     //lint:testapi <reason> waiver naming its test callers (see
//     callers.go).
//
// Usage: go run ./scripts/lint [root]  (root defaults to ".")
package main

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
)

func main() {
	root := "."
	if len(os.Args) > 1 {
		root = os.Args[1]
	}
	var problems []string
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			name := d.Name()
			if name == "testdata" || strings.HasPrefix(name, ".") && path != root {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") {
			return nil
		}
		rel, err := filepath.Rel(root, path)
		if err != nil {
			return err
		}
		rel = filepath.ToSlash(rel)
		problems = append(problems, lintFile(root, rel)...)
		return nil
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "lint:", err)
		os.Exit(1)
	}
	problems = append(problems, lintMapRange(root)...)
	problems = append(problems, lintObsInventory(root)...)
	problems = append(problems, lintCallers(root)...)
	for _, p := range problems {
		fmt.Println(p)
	}
	if len(problems) > 0 {
		fmt.Fprintf(os.Stderr, "lint: %d problem(s)\n", len(problems))
		os.Exit(1)
	}
}

// printAllowed reports whether fmt.Print* is acceptable in this file:
// command mains, examples, scripts (including this one), and tests.
func printAllowed(rel string) bool {
	return strings.HasPrefix(rel, "cmd/") ||
		strings.HasPrefix(rel, "examples/") ||
		strings.HasPrefix(rel, "scripts/") ||
		strings.HasSuffix(rel, "_test.go")
}

// docRequired reports whether exported declarations in this file must
// have doc comments. internal/check is the pipeline's invariant
// specification; internal/analysis and internal/paging carry the
// bound guarantees the differential tests certify.
func docRequired(rel string) bool {
	if strings.HasSuffix(rel, "_test.go") {
		return false
	}
	return strings.HasPrefix(rel, "internal/check/") ||
		strings.HasPrefix(rel, "internal/analysis/") ||
		strings.HasPrefix(rel, "internal/paging/")
}

func lintFile(root, rel string) []string {
	checkPrints := !printAllowed(rel)
	checkDocs := docRequired(rel)
	checkTime := walltimeChecked(rel)
	if !checkPrints && !checkDocs && !checkTime {
		return nil
	}
	fset := token.NewFileSet()
	file, err := parser.ParseFile(fset, filepath.Join(root, rel), nil, parser.ParseComments)
	if err != nil {
		return []string{fmt.Sprintf("%s: parse error: %v", rel, err)}
	}
	var problems []string
	if checkTime {
		problems = append(problems, lintWalltime(fset, file, rel)...)
	}
	report := func(pos token.Pos, format string, args ...any) {
		p := fset.Position(pos)
		problems = append(problems, fmt.Sprintf("%s:%d: %s", rel, p.Line, fmt.Sprintf(format, args...)))
	}

	if checkPrints {
		ast.Inspect(file, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			sel, ok := call.Fun.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			pkg, ok := sel.X.(*ast.Ident)
			if !ok || pkg.Name != "fmt" {
				return true
			}
			switch sel.Sel.Name {
			case "Print", "Printf", "Println":
				report(call.Pos(), "fmt.%s outside cmd/: library code must not write to stdout", sel.Sel.Name)
			}
			return true
		})
	}

	if checkDocs {
		for _, decl := range file.Decls {
			switch d := decl.(type) {
			case *ast.FuncDecl:
				if d.Name.IsExported() && d.Doc == nil {
					report(d.Pos(), "exported %s %s has no doc comment", declKind(d), d.Name.Name)
				}
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					switch ts := spec.(type) {
					case *ast.TypeSpec:
						if !ts.Name.IsExported() {
							continue
						}
						if d.Doc == nil && ts.Doc == nil {
							report(ts.Pos(), "exported type %s has no doc comment", ts.Name.Name)
						}
					case *ast.ValueSpec:
						// A doc comment on the const/var block covers
						// every spec in it; a per-spec doc or trailing
						// line comment covers that spec alone.
						if d.Doc != nil || ts.Doc != nil || ts.Comment != nil {
							continue
						}
						for _, n := range ts.Names {
							if n.IsExported() {
								report(n.Pos(), "exported %s %s has no doc comment",
									strings.ToLower(d.Tok.String()), n.Name)
							}
						}
					}
				}
			}
		}
	}
	return problems
}

func declKind(d *ast.FuncDecl) string {
	if d.Recv != nil {
		return "method"
	}
	return "function"
}
