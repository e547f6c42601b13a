package main

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
)

// lintRoot walks every package directory under root and lints its
// non-test Go files, returning one finding per violation, sorted by
// position.
func lintRoot(root string) ([]string, error) {
	byDir := map[string][]string{}
	err := filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() || !strings.HasSuffix(p, ".go") || strings.HasSuffix(p, "_test.go") {
			return nil
		}
		byDir[filepath.Dir(p)] = append(byDir[filepath.Dir(p)], p)
		return nil
	})
	if err != nil {
		return nil, err
	}
	dirs := make([]string, 0, len(byDir))
	for dir := range byDir {
		dirs = append(dirs, dir)
	}
	sort.Strings(dirs)
	var findings []string
	for _, dir := range dirs {
		sort.Strings(byDir[dir])
		fs, err := lintPackage(byDir[dir])
		if err != nil {
			return nil, err
		}
		findings = append(findings, fs...)
	}
	return findings, nil
}

// lintPackage parses and type-checks one directory's files together (so
// map-typed range expressions resolve) and applies the checks. Type
// errors are tolerated — build breakage is the compiler's job; the lint
// still reports what it can resolve.
func lintPackage(files []string) ([]string, error) {
	fset := token.NewFileSet()
	var parsed []*ast.File
	for _, f := range files {
		af, err := parser.ParseFile(fset, f, nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		parsed = append(parsed, af)
	}
	info := &types.Info{Types: map[ast.Expr]types.TypeAndValue{}}
	conf := types.Config{
		Importer: importer.ForCompiler(fset, "source", nil),
		Error:    func(error) {},
	}
	// The package path is only a label here; resolution happens through
	// the source importer.
	conf.Check(filepath.Dir(files[0]), fset, parsed, info)

	var findings []string
	for _, af := range parsed {
		findings = append(findings, lintFile(fset, af, info)...)
	}
	return findings, nil
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
// sit above the offending statement).
func allowedLines(fset *token.FileSet, f *ast.File) map[int]bool {
	allowed := map[int]bool{}
	for _, cg := range f.Comments {
		for _, c := range cg.List {
			if !strings.HasPrefix(c.Text, "//detlint:allow") {
				continue
			}
			line := fset.Position(c.Pos()).Line
			allowed[line] = true
			allowed[line+1] = true
		}
	}
	return allowed
}
