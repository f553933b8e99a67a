package main

// Rule 7: an exported function with no caller outside its package. An
// exported package-level function in non-test internal/ code is API,
// and API that only its own package or tests use is surface without a
// client: unexport it, or delete it with the feature it served.
//
// Callers are resolved through imports. Every non-test file in the
// tree — cmd/, examples/, scripts/ and cmd/icbench, a module of its
// own, included — maps the names it imports internal packages under to
// their import paths, and a selector pkg.Name on such a name counts as
// a call of Name. A function value counts as well as a call.
//
// A function whose only callers are tests carries a waiver in its doc
// comment that names them:
//
//	//lint:testapi <reason>
//
// The check is syntactic, like rule 4: a local identifier that shadows
// an imported package name is skipped, because the parser resolves it
// to its declaration.

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path"
	"path/filepath"
	"sort"
	"strings"
)

// lintCallers runs rule 7 over root and returns the problems.
func lintCallers(root string) []string {
	module, err := moduleName(root)
	if err != nil {
		return []string{fmt.Sprintf("go.mod: %v", err)}
	}
	internal := module + "/internal/"
	fset := token.NewFileSet()
	type parsed struct {
		rel, pkg string // pkg is the import path; "" outside internal/
		file     *ast.File
	}
	var files []parsed
	pkgNames := map[string]string{} // import path -> package name
	err = filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if name := d.Name(); name == "testdata" || strings.HasPrefix(name, ".") && p != root {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(p, ".go") || strings.HasSuffix(p, "_test.go") {
			return nil
		}
		rel, err := filepath.Rel(root, p)
		if err != nil {
			return err
		}
		rel = filepath.ToSlash(rel)
		f, err := parser.ParseFile(fset, p, nil, parser.ParseComments)
		if err != nil {
			return fmt.Errorf("%s: %v", rel, err)
		}
		pf := parsed{rel: rel, file: f}
		if strings.HasPrefix(rel, "internal/") {
			pf.pkg = module + "/" + path.Dir(rel)
			pkgNames[pf.pkg] = f.Name.Name
		}
		files = append(files, pf)
		return nil
	})
	if err != nil {
		return []string{fmt.Sprintf("lint: callers: %v", err)}
	}

	funcs := map[string]string{} // unwaived "import/path.Name" -> "rel:line"
	called := map[string]bool{}
	for _, pf := range files {
		for _, decl := range pf.file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || pf.pkg == "" || fd.Recv != nil || !fd.Name.IsExported() || testAPIWaiver(fd.Doc) {
				continue
			}
			funcs[pf.pkg+"."+fd.Name.Name] = fmt.Sprintf("%s:%d", pf.rel, fset.Position(fd.Pos()).Line)
		}
		imported := map[string]string{} // local name -> import path
		for _, imp := range pf.file.Imports {
			ip := strings.Trim(imp.Path.Value, `"`)
			if !strings.HasPrefix(ip, internal) || ip == pf.pkg {
				continue
			}
			name := pkgNames[ip]
			if imp.Name != nil {
				name = imp.Name.Name
			}
			imported[name] = ip
		}
		ast.Inspect(pf.file, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			if id, ok := sel.X.(*ast.Ident); ok && id.Obj == nil {
				if ip, ok := imported[id.Name]; ok {
					called[ip+"."+sel.Sel.Name] = true
				}
			}
			return true
		})
	}

	var problems []string
	for name, pos := range funcs {
		if !called[name] {
			problems = append(problems, fmt.Sprintf("%s: exported function %s has no non-test caller outside its package; unexport it or waive with //lint:testapi <reason>",
				pos, strings.TrimPrefix(name, internal)))
		}
	}
	sort.Strings(problems)
	return problems
}

// testAPIWaiver reports whether a doc comment carries a
// //lint:testapi waiver with a reason.
func testAPIWaiver(doc *ast.CommentGroup) bool {
	if doc == nil {
		return false
	}
	for _, c := range doc.List {
		txt := strings.TrimSpace(strings.TrimPrefix(c.Text, "//"))
		if rest, ok := strings.CutPrefix(txt, "lint:testapi"); ok && strings.TrimSpace(rest) != "" {
			return true
		}
	}
	return false
}
