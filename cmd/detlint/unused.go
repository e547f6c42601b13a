package main

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/token"
	"go/types"
	"os"
	"path"
	"path/filepath"
	"strings"
)

// moduleOf returns the nearest directory at or above dir that holds a
// go.mod, with that file's module path.
func moduleOf(dir string) (string, string, error) {
	for {
		if src, err := os.ReadFile(filepath.Join(dir, "go.mod")); err == nil {
			for _, line := range strings.Split(string(src), "\n") {
				if mod, ok := strings.CutPrefix(strings.TrimSpace(line), "module "); ok {
					return dir, strings.Trim(strings.TrimSpace(mod), `"`), nil
				}
			}
		}
		if filepath.Dir(dir) == dir {
			return "", "", fmt.Errorf("no module at or above %s", dir)
		}
		dir = filepath.Dir(dir)
	}
}

// module is a source tree type-checked from source, each package once:
// an import of a package inside the tree — bench/'s imports of
// internal/ included — resolves to its checked copy, and anything else
// goes to the source importer. Type errors are tolerated: build
// breakage is the compiler's job, and the lints report what resolves.
type module struct {
	root     string
	fset     *token.FileSet
	pkgs     []*modPackage
	byPath   map[string]*modPackage
	fallback types.ImporterFrom
}

type modPackage struct {
	pkgDir
	path string
	pkg  *types.Package
	info *types.Info
}

// Import implements types.Importer.
func (m *module) Import(path string) (*types.Package, error) {
	mp := m.byPath[path]
	if mp == nil {
		return m.fallback.ImportFrom(path, m.root, 0)
	}
	if mp.info == nil {
		m.check(mp)
	}
	return mp.pkg, nil
}

func (m *module) check(mp *modPackage) {
	mp.info = &types.Info{
		Types: map[ast.Expr]types.TypeAndValue{},
		Defs:  map[*ast.Ident]types.Object{},
		Uses:  map[*ast.Ident]types.Object{},
	}
	conf := types.Config{Importer: m, Error: func(error) {}}
	mp.pkg, _ = conf.Check(mp.path, m.fset, mp.files, mp.info)
}

// loadModule parses and type-checks every package under root, nested
// modules included. A package's path is that of the nearest go.mod at
// or above its directory joined with its place below it; outside any
// module it is the directory, a label only.
func loadModule(root string) (*module, error) {
	m := &module{root: root, fset: token.NewFileSet(), byPath: map[string]*modPackage{}}
	m.fallback = importer.ForCompiler(m.fset, "source", nil).(types.ImporterFrom)
	dirs, err := parseTree(m.fset, root)
	if err != nil {
		return nil, err
	}
	for _, d := range dirs {
		mp := &modPackage{pkgDir: d, path: d.dir}
		if mod, modPath, err := moduleOf(d.dir); err == nil {
			rel, _ := filepath.Rel(mod, d.dir)
			mp.path = path.Join(modPath, filepath.ToSlash(rel))
		}
		m.pkgs = append(m.pkgs, mp)
		m.byPath[mp.path] = mp
	}
	for _, mp := range m.pkgs {
		if mp.info == nil {
			m.check(mp)
		}
	}
	return m, nil
}

// typeKey names a named type by package path and name.
func typeKey(named *types.Named) string {
	return named.Obj().Pkg().Path() + "." + named.Obj().Name()
}

// objKey names a package-level object or a concrete method by (package
// path, receiver type, name), so same-named methods of different types
// never mask each other.
func objKey(obj types.Object) (string, bool) {
	if obj == nil || obj.Pkg() == nil {
		return "", false
	}
	if fn, ok := obj.(*types.Func); ok {
		if recv := fn.Origin().Type().(*types.Signature).Recv(); recv != nil {
			named := recvNamed(recv.Type())
			if named == nil || types.IsInterface(named) {
				return "", false // an interface method
			}
			return typeKey(named) + "." + fn.Name(), true
		}
	}
	return obj.Pkg().Path() + "." + obj.Name(), obj.Parent() == obj.Pkg().Scope()
}

// recvNamed returns a method receiver's named type (of T or *T).
func recvNamed(t types.Type) *types.Named {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	if named, ok := t.(*types.Named); ok {
		return named.Origin()
	}
	return nil
}

// decl is one checked top-level declaration.
type decl struct {
	key, kind, name string
	node            ast.Node     // references inside it do not count
	recv            *types.Named // a method's receiver type
	method          string
	allowed         bool // annotated //detlint:allow unused
}

// unused is the unused pass over the module: it reports every
// top-level func, method, type, const and var declared in non-test code
// under the root's internal/ that no non-test code in the module,
// bench/ included, refers to from outside the declaration itself or a
// method's receiver list. Exempt are methods of the types the facade
// re-exports by alias (api.txt pins them), methods implementing an
// interface method callable out of the pass's sight (see interfaces),
// and declarations annotated `//detlint:allow unused <reason>`.
func (m *module) unused() []string {
	var decls []decl
	for _, mp := range m.pkgs {
		if rel, _ := filepath.Rel(m.root, mp.dir); strings.HasPrefix(filepath.ToSlash(rel), "internal/") {
			for _, f := range mp.files {
				decls = appendDecls(decls, f, mp.info)
			}
		}
	}
	spans := map[string][]ast.Node{}
	for _, d := range decls {
		spans[d.key] = append(spans[d.key], d.node)
	}
	used, called := map[string]bool{}, map[*types.Func]bool{}
	for _, mp := range m.pkgs {
		var recvs []ast.Node
		for _, f := range mp.files {
			for _, fd := range f.Decls {
				if fd, ok := fd.(*ast.FuncDecl); ok && fd.Recv != nil {
					recvs = append(recvs, fd.Recv)
				}
			}
		}
		for id, obj := range mp.info.Uses {
			if key, ok := objKey(obj); !ok {
				if fn, isFn := obj.(*types.Func); isFn {
					called[fn.Origin()] = true // an interface method
				}
			} else if !within(id, recvs) && !within(id, spans[key]) {
				used[key] = true
			}
		}
	}
	public, ifaces := m.aliased(), m.interfaces()
	// callable reports whether an interface method may be called where
	// the pass cannot see it: non-test code calls it, it is error's or
	// fmt.Stringer's (declared without a package), or the facade
	// re-exports its interface.
	callable := func(fn *types.Func) bool {
		if called[fn] || fn.Pkg() == nil {
			return true
		}
		named := recvNamed(fn.Type().(*types.Signature).Recv().Type())
		return named != nil && public[typeKey(named)]
	}
	var findings []string
	for _, d := range decls {
		if used[d.key] || d.allowed || d.recv != nil && (public[typeKey(d.recv)] || implementsAny(d.recv, d.method, ifaces, callable)) {
			continue
		}
		findings = append(findings, fmt.Sprintf("%s: unused %s %s: no non-test code in the module refers to it; delete it, move it to its package's export_test.go if only its tests need it, or annotate //detlint:allow unused <reason>",
			m.fset.Position(d.node.Pos()), d.kind, d.name))
	}
	return findings
}

// appendDecls appends the file's top-level declarations, leaving out
// init, main and blank names.
func appendDecls(decls []decl, f *ast.File, info *types.Info) []decl {
	add := func(id *ast.Ident, kind string, doc *ast.CommentGroup, node ast.Node) {
		key, ok := objKey(info.Defs[id])
		if !ok || id.Name == "_" {
			return
		}
		d := decl{key: key, kind: kind, name: id.Name, node: node, allowed: allowsUnused(doc)}
		if fd, ok := node.(*ast.FuncDecl); ok && fd.Recv != nil {
			d.recv = recvNamed(info.Defs[id].Type().(*types.Signature).Recv().Type())
			d.method, d.name = id.Name, d.recv.Obj().Name()+"."+id.Name
		}
		decls = append(decls, d)
	}
	for _, dcl := range f.Decls {
		switch dcl := dcl.(type) {
		case *ast.FuncDecl:
			if dcl.Recv != nil {
				add(dcl.Name, "method", dcl.Doc, dcl)
			} else if dcl.Name.Name != "init" && dcl.Name.Name != "main" {
				add(dcl.Name, "func", dcl.Doc, dcl)
			}
		case *ast.GenDecl:
			for _, spec := range dcl.Specs {
				switch spec := spec.(type) {
				case *ast.TypeSpec:
					add(spec.Name, "type", docOf(spec.Doc, dcl), spec)
				case *ast.ValueSpec:
					for _, n := range spec.Names {
						add(n, dcl.Tok.String(), docOf(spec.Doc, dcl), spec)
					}
				}
			}
		}
	}
	return decls
}

// docOf returns a spec's own doc comment, else its declaration's.
func docOf(doc *ast.CommentGroup, dcl *ast.GenDecl) *ast.CommentGroup {
	if doc != nil {
		return doc
	}
	return dcl.Doc
}

func allowsUnused(doc *ast.CommentGroup) bool {
	if doc == nil {
		return false
	}
	for _, c := range doc.List {
		if strings.HasPrefix(c.Text, "//detlint:allow unused ") {
			return true
		}
	}
	return false
}

func within(id *ast.Ident, nodes []ast.Node) bool {
	for _, n := range nodes {
		if n.Pos() <= id.Pos() && id.Pos() < n.End() {
			return true
		}
	}
	return false
}

// aliased keys the named types the facade re-exports by alias.
func (m *module) aliased() map[string]bool {
	out := map[string]bool{}
	for _, mp := range m.pkgs {
		if mp.dir != m.root || mp.pkg == nil {
			continue
		}
		for _, name := range mp.pkg.Scope().Names() {
			if tn, ok := mp.pkg.Scope().Lookup(name).(*types.TypeName); ok && tn.IsAlias() {
				if named, ok := types.Unalias(tn.Type()).(*types.Named); ok {
					out[typeKey(named.Origin())] = true
				}
			}
		}
	}
	return out
}

// interfaces returns error, fmt.Stringer and the interfaces the
// module's own code handles: those an expression of its packages has (a
// type assertion's anonymous one included) and those its packages
// declare. Imports are not walked, so an interface no module code
// touches exempts nothing.
func (m *module) interfaces() []*types.Interface {
	str := types.NewTuple(types.NewVar(token.NoPos, nil, "", types.Typ[types.String]))
	stringer := types.NewInterfaceType([]*types.Func{
		types.NewFunc(token.NoPos, nil, "String", types.NewSignatureType(nil, nil, nil, nil, str, false)),
	}, nil).Complete()
	out := []*types.Interface{types.Universe.Lookup("error").Type().Underlying().(*types.Interface), stringer}
	for _, mp := range m.pkgs {
		for _, tv := range mp.info.Types {
			if it, ok := tv.Type.Underlying().(*types.Interface); ok && it.NumMethods() > 0 {
				out = append(out, it)
			}
		}
		for _, name := range mp.pkg.Scope().Names() {
			if tn, ok := mp.pkg.Scope().Lookup(name).(*types.TypeName); ok {
				if it, ok := tn.Type().Underlying().(*types.Interface); ok && it.NumMethods() > 0 {
					out = append(out, it)
				}
			}
		}
	}
	return out
}

// implementsAny reports whether the named type, or a pointer to it,
// implements one of the interfaces whose method of this name is
// callable.
func implementsAny(named *types.Named, method string, ifaces []*types.Interface, callable func(*types.Func) bool) bool {
	for _, it := range ifaces {
		for i := 0; i < it.NumMethods(); i++ {
			if m := it.Method(i); m.Name() == method && callable(m) && (types.Implements(named, it) || types.Implements(types.NewPointer(named), it)) {
				return true
			}
		}
	}
	return false
}
