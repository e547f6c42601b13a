package coserve_test

import (
	"flag"
	"fmt"
	"go/importer"
	"go/token"
	"go/types"
	"os"
	"slices"
	"strings"
	"testing"
)

// update rewrites the API golden instead of comparing:
//
//	go test . -run TestAPIGolden -update
var update = flag.Bool("update", false, "rewrite api.txt from the current facade")

// apiGolden pins the facade's exported surface, one item per line in
// the style of the Go distribution's api/ files.
const apiGolden = "api.txt"

// TestAPIGolden type-checks the facade from source and compares its
// exported surface — every exported const, var, func and type, and for
// each type (aliased ones included) its exported fields and methods —
// with api.txt. Growing or shrinking the public API is then a visible
// diff of that file.
func TestAPIGolden(t *testing.T) {
	got := facadeAPI(t)
	if *update {
		if err := os.WriteFile(apiGolden, []byte(strings.Join(got, "\n")+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	raw, err := os.ReadFile(apiGolden)
	if err != nil {
		t.Fatal(err)
	}
	if diff := apiDiff(strings.Split(strings.TrimSuffix(string(raw), "\n"), "\n"), got); len(diff) > 0 {
		t.Errorf("the facade's API differs from %s (+ added, - removed); if intended, rerun with -update and say so in CHANGES.md:\n%s",
			apiGolden, strings.Join(diff, "\n"))
	}
}

// TestAPIDiffNamesAddedAndRemoved pins what TestAPIGolden reports: an
// added method (Sketch.Sum, deleted for having no caller) shows as a
// "+" line, a removed one as "-".
func TestAPIDiffNamesAddedAndRemoved(t *testing.T) {
	raw, err := os.ReadFile(apiGolden)
	if err != nil {
		t.Fatal(err)
	}
	golden := strings.Split(strings.TrimSuffix(string(raw), "\n"), "\n")
	sum := "pkg coserve, method (*Sketch) Sum() float64"
	if slices.Contains(golden, sum) {
		t.Fatalf("%q is in %s", sum, apiGolden)
	}
	grown := slices.Clone(golden)
	grown = append(grown, sum)
	slices.Sort(grown)
	if diff := apiDiff(golden, grown); !slices.Equal(diff, []string{"+ " + sum}) {
		t.Errorf("diff after re-adding Sketch.Sum = %q, want one added line", diff)
	}
	if diff := apiDiff(grown, golden); !slices.Equal(diff, []string{"- " + sum}) {
		t.Errorf("diff after removing Sketch.Sum = %q, want one removed line", diff)
	}
}

// apiDiff lists the lines only in got ("+") or only in want ("-"), in
// sorted order; both inputs are sorted.
func apiDiff(want, got []string) []string {
	var out []string
	i, j := 0, 0
	for i < len(want) || j < len(got) {
		switch {
		case j == len(got) || i < len(want) && want[i] < got[j]:
			out = append(out, "- "+want[i])
			i++
		case i == len(want) || got[j] < want[i]:
			out = append(out, "+ "+got[j])
			j++
		default:
			i++
			j++
		}
	}
	return out
}

// facadeAPI returns the facade's exported surface, sorted. Types from
// the facade print unqualified (aliases by their facade name), others
// by package name; parameter names are left out.
func facadeAPI(t *testing.T) []string {
	t.Helper()
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	imp := importer.ForCompiler(token.NewFileSet(), "source", nil).(types.ImporterFrom)
	pkg, err := imp.ImportFrom("repro", wd, 0)
	if err != nil {
		t.Fatal(err)
	}
	qual := func(p *types.Package) string {
		if p == pkg {
			return ""
		}
		return p.Name()
	}
	typ := func(t types.Type) string { return types.TypeString(t, qual) }
	prefix := "pkg " + pkg.Name() + ", "
	var lines []string
	add := func(format string, args ...any) { lines = append(lines, prefix+fmt.Sprintf(format, args...)) }
	scope := pkg.Scope()
	for _, name := range scope.Names() {
		obj := scope.Lookup(name)
		if !obj.Exported() {
			continue
		}
		switch obj := obj.(type) {
		case *types.Const:
			add("const %s %s = %s", name, typ(obj.Type()), obj.Val().ExactString())
		case *types.Var:
			add("var %s %s", name, typ(obj.Type()))
		case *types.Func:
			add("func %s%s", name, signature(obj.Type().(*types.Signature), typ))
		case *types.TypeName:
			target := types.Unalias(obj.Type())
			if obj.IsAlias() {
				add("type %s = %s", name, types.TypeString(target, func(p *types.Package) string { return p.Name() }))
			} else {
				add("type %s %s", name, kindOf(target.Underlying()))
			}
			for _, m := range members(target, typ) {
				add("%s", strings.ReplaceAll(m, "$T", name))
			}
		}
	}
	slices.Sort(lines)
	return lines
}

// members lists a type's exported struct fields, interface methods and
// method set (a pointer's, so value and pointer methods both appear),
// with $T standing for the type's facade name.
func members(t types.Type, typ func(types.Type) string) []string {
	var out []string
	switch u := t.Underlying().(type) {
	case *types.Struct:
		for i := 0; i < u.NumFields(); i++ {
			if f := u.Field(i); f.Exported() {
				out = append(out, fmt.Sprintf("type $T struct, %s %s", f.Name(), typ(f.Type())))
			}
		}
	case *types.Interface:
		for i := 0; i < u.NumMethods(); i++ {
			if m := u.Method(i); m.Exported() {
				out = append(out, fmt.Sprintf("type $T interface, %s%s", m.Name(), signature(m.Type().(*types.Signature), typ)))
			}
		}
		return out
	}
	if _, ok := t.(*types.Named); !ok {
		return out
	}
	ms := types.NewMethodSet(types.NewPointer(t))
	for i := 0; i < ms.Len(); i++ {
		m := ms.At(i).Obj().(*types.Func)
		if !m.Exported() {
			continue
		}
		sig := m.Type().(*types.Signature)
		recv := "$T"
		if _, ptr := sig.Recv().Type().(*types.Pointer); ptr {
			recv = "*$T"
		}
		out = append(out, fmt.Sprintf("method (%s) %s%s", recv, m.Name(), signature(sig, typ)))
	}
	return out
}

// kindOf names a defined type's underlying kind as the api/ files do.
func kindOf(u types.Type) string {
	switch u.(type) {
	case *types.Struct:
		return "struct"
	case *types.Interface:
		return "interface"
	}
	return types.TypeString(u, func(p *types.Package) string { return p.Name() })
}

// signature renders a func signature without parameter names.
func signature(sig *types.Signature, typ func(types.Type) string) string {
	params := make([]string, sig.Params().Len())
	for i := range params {
		p := sig.Params().At(i).Type()
		if sig.Variadic() && i == len(params)-1 {
			params[i] = "..." + typ(p.(*types.Slice).Elem())
			continue
		}
		params[i] = typ(p)
	}
	s := "(" + strings.Join(params, ", ") + ")"
	switch res := sig.Results(); res.Len() {
	case 0:
	case 1:
		s += " " + typ(res.At(0).Type())
	default:
		rs := make([]string, res.Len())
		for i := range rs {
			rs[i] = typ(res.At(i).Type())
		}
		s += " (" + strings.Join(rs, ", ") + ")"
	}
	return s
}
