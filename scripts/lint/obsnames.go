package main

// Rule 6: the observability inventory. docs/OBSERVABILITY.md is the
// reference for every metric and timeline lane a run can emit, so the
// rule checks it against the code in both directions: every name the
// code passes to Counter, Gauge or NewLane must be listed, and every
// listed name must be registered somewhere.
//
// Code side: non-test files under internal/, cmd/impact, cmd/icexp and
// cmd/icsim. A name argument must be one of
//
//   - a string literal: "sweep.sims_run";
//   - a + concatenation, where every operand that is not a literal
//     becomes the placeholder *: "check." + a.Name + ".runs" is
//     check.*.runs;
//   - fmt.Sprintf with a literal format whose only verbs are %d, each
//     of which becomes N: Sprintf("search-worker-%d", w) is
//     search-worker-N.
//
// A lane name ending in a dash and digits is one worker of a pool and
// takes the same N form: NewLane("sweep-worker-0") is sweep-worker-N.
//
// Any other argument is reported, so no registration escapes the
// inventory. The tracer names lane 0 "main" itself, without NewLane;
// it counts as registered.
//
// Doc side: markdown tables whose header's first cell is "name" list
// metrics, and tables whose header's first cell is "lane" list lanes.
// Every backquoted name in a row's first cell is an entry, and each
// <word> in it is the placeholder *, so `check.<analyzer>.runs`
// documents "check." + a.Name + ".runs".

import (
	"bufio"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
)

// inventoryDoc is the document rule 6 checks, relative to the root.
const inventoryDoc = "docs/OBSERVABILITY.md"

// inventoryDirs are the root-relative trees whose registrations the
// document must cover.
var inventoryDirs = []string{"internal", "cmd/impact", "cmd/icexp", "cmd/icsim"}

// builtinLanes are registered by the tracer itself.
var builtinLanes = []string{"main"}

// obsKind separates the two namespaces the document lists.
type obsKind string

const (
	kindMetric obsKind = "metric"
	kindLane   obsKind = "lane"
)

// registrars maps the registry methods that take a name to the kind of
// name they register.
var registrars = map[string]obsKind{
	"Counter": kindMetric,
	"Gauge":   kindMetric,
	"NewLane": kindLane,
}

// obsName is one registered or documented name.
type obsName struct {
	kind obsKind
	name string
}

// lintObsInventory runs rule 6 over root and returns the problems.
func lintObsInventory(root string) []string {
	var problems []string
	registered := map[obsName]string{} // name -> first registering position
	for _, l := range builtinLanes {
		registered[obsName{kindLane, l}] = "internal/obs (tracer lane 0)"
	}
	for _, dir := range inventoryDirs {
		err := filepath.WalkDir(filepath.Join(root, dir), func(path string, d fs.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if d.IsDir() {
				if d.Name() == "testdata" {
					return filepath.SkipDir
				}
				return nil
			}
			if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
				return nil
			}
			rel, err := filepath.Rel(root, path)
			if err != nil {
				return err
			}
			problems = append(problems, registeredNames(root, filepath.ToSlash(rel), registered)...)
			return nil
		})
		if err != nil {
			problems = append(problems, fmt.Sprintf("lint: obs inventory: %v", err))
		}
	}

	documented, err := documentedNames(filepath.Join(root, inventoryDoc))
	if err != nil {
		return append(problems, fmt.Sprintf("lint: obs inventory: %v", err))
	}
	for _, n := range sortedNames(registered) {
		if _, ok := documented[n]; !ok {
			problems = append(problems, fmt.Sprintf("%s: %s %q is registered but not listed in %s",
				registered[n], n.kind, n.name, inventoryDoc))
		}
	}
	for _, n := range sortedNames(documented) {
		if _, ok := registered[n]; !ok {
			problems = append(problems, fmt.Sprintf("%s:%s: %s %q is listed but no code registers it",
				inventoryDoc, documented[n], n.kind, n.name))
		}
	}
	return problems
}

// registeredNames parses one file and records every name it registers
// (position "rel:line"), returning problems for unresolvable names.
func registeredNames(root, rel string, into map[obsName]string) []string {
	fset := token.NewFileSet()
	file, err := parser.ParseFile(fset, filepath.Join(root, rel), nil, 0)
	if err != nil {
		return []string{fmt.Sprintf("%s: parse error: %v", rel, err)}
	}
	var problems []string
	ast.Inspect(file, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || len(call.Args) != 1 {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		kind, ok := registrars[sel.Sel.Name]
		if !ok {
			return true
		}
		pos := fmt.Sprintf("%s:%d", rel, fset.Position(call.Pos()).Line)
		name, ok := nameForm(call.Args[0])
		if !ok {
			problems = append(problems, fmt.Sprintf("%s: %s name passed to %s is not a literal, a + concatenation or fmt.Sprintf", pos, kind, sel.Sel.Name))
			return true
		}
		if kind == kindLane {
			name = laneIndex.ReplaceAllString(name, "-N")
		}
		key := obsName{kind, name}
		if _, seen := into[key]; !seen {
			into[key] = pos
		}
		return true
	})
	return problems
}

// nameForm resolves a name argument to its inventory form (see the
// rule comment).
func nameForm(e ast.Expr) (string, bool) {
	switch x := e.(type) {
	case *ast.BasicLit:
		if x.Kind != token.STRING {
			return "", false
		}
		s, err := strconv.Unquote(x.Value)
		return s, err == nil
	case *ast.ParenExpr:
		return nameForm(x.X)
	case *ast.BinaryExpr:
		if x.Op != token.ADD {
			return "", false
		}
		return concatOperand(x.X) + concatOperand(x.Y), true
	case *ast.CallExpr:
		sel, ok := x.Fun.(*ast.SelectorExpr)
		if !ok || sel.Sel.Name != "Sprintf" || len(x.Args) == 0 {
			return "", false
		}
		if pkg, ok := sel.X.(*ast.Ident); !ok || pkg.Name != "fmt" {
			return "", false
		}
		format, ok := nameForm(x.Args[0])
		if !ok {
			return "", false
		}
		name := strings.ReplaceAll(format, "%d", "N")
		return name, !strings.Contains(name, "%")
	}
	return "", false
}

// concatOperand is one side of a + concatenation: literals and nested
// concatenations resolve, anything else is the placeholder *.
func concatOperand(e ast.Expr) string {
	switch e.(type) {
	case *ast.BasicLit, *ast.BinaryExpr, *ast.ParenExpr:
		if s, ok := nameForm(e); ok {
			return s
		}
	}
	return "*"
}

var (
	backquoted  = regexp.MustCompile("`([^`]+)`")
	placeholder = regexp.MustCompile(`<[^<>]+>`)
	laneIndex   = regexp.MustCompile(`-[0-9]+$`)
)

// documentedNames reads the metric and lane tables of the inventory
// document, returning each entry with its line number.
func documentedNames(path string) (map[obsName]string, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	out := map[obsName]string{}
	var table obsKind // kind of the table being read, "" outside one
	inTable := false
	sc := bufio.NewScanner(f)
	for line := 1; sc.Scan(); line++ {
		text := strings.TrimSpace(sc.Text())
		if !strings.HasPrefix(text, "|") {
			inTable = false
			continue
		}
		cells := strings.Split(text, "|")
		first := strings.TrimSpace(cells[1])
		if !inTable {
			// Header row: its first cell names the table's kind.
			inTable = true
			switch first {
			case "name":
				table = kindMetric
			case "lane":
				table = kindLane
			default:
				table = ""
			}
			continue
		}
		if table == "" || strings.Trim(first, "-: ") == "" {
			continue // another table, or the header separator
		}
		for _, m := range backquoted.FindAllStringSubmatch(first, -1) {
			key := obsName{table, placeholder.ReplaceAllString(m[1], "*")}
			if _, seen := out[key]; !seen {
				out[key] = strconv.Itoa(line)
			}
		}
	}
	return out, sc.Err()
}

// sortedNames returns the keys of m in kind, then name order.
func sortedNames(m map[obsName]string) []obsName {
	out := make([]obsName, 0, len(m))
	for n := range m {
		out = append(out, n)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].kind != out[j].kind {
			return out[i].kind < out[j].kind
		}
		return out[i].name < out[j].name
	})
	return out
}
