package main

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
)

// lintRoot lints the non-test Go files of every package directory
// under root, returning one finding per violation in file order.
func lintRoot(root string) ([]string, error) {
	m, err := loadModule(root)
	if err != nil {
		return nil, err
	}
	return m.lint(root), nil
}

// lint applies the determinism checks to the loaded packages at or
// below dir, which is named the way the module's root is.
func (m *module) lint(dir string) []string {
	var findings []string
	for _, mp := range m.pkgs {
		if rel, err := filepath.Rel(dir, mp.dir); err == nil && rel != ".." && !strings.HasPrefix(rel, "../") {
			for _, f := range mp.files {
				findings = append(findings, lintFile(m.fset, f, mp.info)...)
			}
		}
	}
	return findings
}

// pkgDir is one package directory's parsed non-test Go files.
type pkgDir struct {
	dir   string
	files []*ast.File
}

// parseTree parses the non-test Go files of every directory under root
// in lexical order, skipping the directories the go command ignores
// (testdata, and names starting with "." or "_").
func parseTree(fset *token.FileSet, root string) ([]pkgDir, error) {
	var dirs []pkgDir
	err := filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		if n := d.Name(); p != root && (n == "testdata" || strings.HasPrefix(n, ".") || strings.HasPrefix(n, "_")) {
			return filepath.SkipDir
		}
		ents, err := os.ReadDir(p)
		if err != nil {
			return err
		}
		pd := pkgDir{dir: p}
		for _, e := range ents {
			if n := e.Name(); !e.IsDir() && strings.HasSuffix(n, ".go") && !strings.HasSuffix(n, "_test.go") {
				f, err := parser.ParseFile(fset, filepath.Join(p, n), nil, parser.ParseComments)
				if err != nil {
					return err
				}
				pd.files = append(pd.files, f)
			}
		}
		if len(pd.files) > 0 {
			dirs = append(dirs, pd)
		}
		return nil
	})
	return dirs, err
}

// randConstructors are the package-level math/rand functions that build
// owned generators rather than touching the shared global one.
var randConstructors = map[string]bool{
	"New": true, "NewSource": true, "NewZipf": true, "NewPCG": true, "NewChaCha8": true,
}

// kernelDir reports whether the file lives in a package that IS the
// deterministic kernel (internal/sim) or runs entirely inside it
// (internal/cluster). Both run on their caller's goroutine alone, so
// concurrency there is not merely a hazard to an output path: any
// goroutine or lock breaks the kernel's event order directly, and no
// annotation exempts it.
func kernelDir(path string) bool {
	dir := filepath.ToSlash(filepath.Dir(path))
	return strings.HasSuffix(dir, "internal/sim") || strings.HasSuffix(dir, "internal/cluster")
}

// lintFile applies the determinism checks to one parsed file and
// returns its findings.
func lintFile(fset *token.FileSet, f *ast.File, info *types.Info) []string {
	allowed := allowedLines(fset, f)
	kernel := kernelDir(fset.Position(f.Package).Filename)
	// Map the file's import names so selector checks are grounded in the
	// imported path, not a coincidental identifier.
	imports := map[string]string{} // local name -> import path
	for _, imp := range f.Imports {
		path, err := strconv.Unquote(imp.Path.Value)
		if err != nil {
			continue
		}
		name := path[strings.LastIndex(path, "/")+1:]
		if imp.Name != nil {
			name = imp.Name.Name
		}
		imports[name] = path
	}
	pkgCall := func(call *ast.CallExpr) (path, fn string, ok bool) {
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok {
			return "", "", false
		}
		id, ok := sel.X.(*ast.Ident)
		if !ok || id.Obj != nil { // shadowed: a local variable, not the package
			return "", "", false
		}
		path, ok = imports[id.Name]
		return path, sel.Sel.Name, ok
	}

	var findings []string
	flag := func(pos token.Pos, msg string) {
		findings = append(findings, fmt.Sprintf("%s: %s", fset.Position(pos), msg))
	}
	report := func(pos token.Pos, msg string) {
		if !allowed[fset.Position(pos).Line] {
			flag(pos, msg)
		}
	}
	ast.Inspect(f, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.GoStmt:
			if kernel {
				flag(n.Pos(), "goroutine launched inside the deterministic kernel (internal/sim, internal/cluster), which runs every event on its caller's goroutine in the kernel's own order")
			}
		case *ast.SelectorExpr:
			if !kernel {
				break
			}
			if id, ok := n.X.(*ast.Ident); ok && id.Obj == nil {
				if path := imports[id.Name]; path == "sync" || path == "sync/atomic" {
					flag(n.Pos(), fmt.Sprintf("%s.%s inside the deterministic kernel (internal/sim, internal/cluster), whose state is touched by one goroutine only and never guarded by locks", id.Name, n.Sel.Name))
				}
			}
		case *ast.CallExpr:
			path, fn, ok := pkgCall(n)
			if !ok {
				break
			}
			switch {
			case path == "time" && (fn == "Now" || fn == "Since"):
				report(n.Pos(), fmt.Sprintf("time.%s reads the wall clock; simulation code must use the virtual clock (sim.Env.Now)", fn))
			case (path == "math/rand" || path == "math/rand/v2") && !randConstructors[fn]:
				report(n.Pos(), fmt.Sprintf("rand.%s uses the shared global generator; build an owned, seeded one with rand.New(rand.NewSource(seed))", fn))
			}
		case *ast.RangeStmt:
			tv, ok := info.Types[n.X]
			if !ok || tv.Type == nil {
				break
			}
			if _, isMap := tv.Type.Underlying().(*types.Map); isMap {
				report(n.Pos(), "range over a map iterates in randomized order; sort the keys first, fold commutatively, or use a slice")
			}
		}
		return true
	})
	sort.Strings(findings)
	return findings
}

// allowedLines collects the lines exempted by //detlint:allow comments:
// the comment's own line and the line below it (so the annotation can
// sit above the offending statement). An unused-pass annotation
// (//detlint:allow unused) exempts nothing here.
func allowedLines(fset *token.FileSet, f *ast.File) map[int]bool {
	allowed := map[int]bool{}
	for _, cg := range f.Comments {
		for _, c := range cg.List {
			if !strings.HasPrefix(c.Text, "//detlint:allow") || strings.HasPrefix(c.Text, "//detlint:allow unused") {
				continue
			}
			line := fset.Position(c.Pos()).Line
			allowed[line] = true
			allowed[line+1] = true
		}
	}
	return allowed
}
