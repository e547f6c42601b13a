package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// lintFixture writes the source as a single-file package in a temp dir
// and lints it.
func lintFixture(t *testing.T, src string) []string {
	t.Helper()
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "fixture.go"), []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	findings, err := lintRoot(dir)
	if err != nil {
		t.Fatal(err)
	}
	return findings
}

func TestLintFlagsWallClock(t *testing.T) {
	findings := lintFixture(t, `package fixture

import "time"

func now() time.Time { return time.Now() }

func since(t0 time.Time) time.Duration { return time.Since(t0) }
`)
	if len(findings) != 2 {
		t.Fatalf("findings = %v, want time.Now and time.Since flagged", findings)
	}
	for _, f := range findings {
		if !strings.Contains(f, "wall clock") {
			t.Errorf("finding %q does not name the wall clock", f)
		}
	}
}

func TestLintFlagsGlobalRandButNotConstructors(t *testing.T) {
	findings := lintFixture(t, `package fixture

import "math/rand"

func bad() int { return rand.Intn(10) }

func good() *rand.Rand { return rand.New(rand.NewSource(1)) }

func alsoGood() *rand.Zipf {
	r := rand.New(rand.NewSource(2))
	return rand.NewZipf(r, 1.1, 1, 100)
}
`)
	if len(findings) != 1 || !strings.Contains(findings[0], "rand.Intn") {
		t.Fatalf("findings = %v, want exactly the rand.Intn call flagged", findings)
	}
}

func TestLintFlagsMapRangeButNotSliceRange(t *testing.T) {
	findings := lintFixture(t, `package fixture

func mapRange(m map[string]int) int {
	n := 0
	for _, v := range m {
		n += v
	}
	return n
}

func sliceRange(s []int) int {
	n := 0
	for _, v := range s {
		n += v
	}
	return n
}
`)
	if len(findings) != 1 || !strings.Contains(findings[0], "range over a map") {
		t.Fatalf("findings = %v, want exactly the map range flagged", findings)
	}
}

func TestLintAllowAnnotationSilencesFinding(t *testing.T) {
	findings := lintFixture(t, `package fixture

func folded(m map[string]int) int {
	n := 0
	//detlint:allow commutative fold
	for _, v := range m {
		n += v
	}
	return n
}
`)
	if len(findings) != 0 {
		t.Fatalf("findings = %v, want the annotated range exempted", findings)
	}
}

func TestLintIgnoresShadowedPackageNames(t *testing.T) {
	findings := lintFixture(t, `package fixture

type clock struct{}

func (clock) Now() int { return 0 }

func local() int {
	var time clock
	return time.Now()
}
`)
	if len(findings) != 0 {
		t.Fatalf("findings = %v, want shadowed identifier ignored", findings)
	}
}

func TestLintSkipsTestFiles(t *testing.T) {
	dir := t.TempDir()
	src := `package fixture

import "time"

var t0 = time.Now()
`
	if err := os.WriteFile(filepath.Join(dir, "fixture_test.go"), []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	findings, err := lintRoot(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(findings) != 0 {
		t.Fatalf("findings = %v, want _test.go files skipped", findings)
	}
}

// kernelFixture writes the source as a single-file package under an
// internal/sim directory — the concurrency-restricted kernel tree —
// and lints it.
func kernelFixture(t *testing.T, src string) []string {
	t.Helper()
	dir := filepath.Join(t.TempDir(), "internal", "sim")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "fixture.go"), []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	findings, err := lintRoot(dir)
	if err != nil {
		t.Fatal(err)
	}
	return findings
}

func TestLintFlagsKernelConcurrency(t *testing.T) {
	findings := kernelFixture(t, `package fixture

import "sync"

var mu sync.Mutex

func launch(fn func()) {
	go fn()
}
`)
	if len(findings) != 2 {
		t.Fatalf("findings = %v, want the goroutine launch and the sync.Mutex flagged", findings)
	}
	var goStmt, syncUse bool
	for _, f := range findings {
		goStmt = goStmt || strings.Contains(f, "goroutine launched")
		syncUse = syncUse || strings.Contains(f, "sync.Mutex")
	}
	if !goStmt || !syncUse {
		t.Fatalf("findings = %v, want one goroutine and one sync finding", findings)
	}
}

func TestLintKernelConcurrencyScopedToKernelDirs(t *testing.T) {
	// The identical source outside internal/sim and internal/cluster is
	// legal: ordinary packages may use goroutines and locks freely.
	findings := lintFixture(t, `package fixture

import "sync"

var mu sync.Mutex

func launch(fn func()) {
	go fn()
}
`)
	if len(findings) != 0 {
		t.Fatalf("findings = %v, want concurrency outside the kernel dirs unflagged", findings)
	}
}

func TestLintKernelConcurrencyNotExemptable(t *testing.T) {
	findings := kernelFixture(t, `package fixture

import "sync"

//detlint:allow an annotation cannot exempt kernel concurrency
var mu sync.Mutex

func launch(fn func()) {
	//detlint:allow an annotation cannot exempt kernel concurrency
	go fn()
}
`)
	if len(findings) != 2 {
		t.Fatalf("findings = %v, want the annotated launch and sync.Mutex still flagged", findings)
	}
}

// moduleFixture writes files (slash paths relative to the module root)
// under a temp dir, with a go.mod for module "fixture" at its root, and
// runs the unused pass over it.
func moduleFixture(t *testing.T, files map[string]string) []string {
	t.Helper()
	root := t.TempDir()
	files["go.mod"] = "module fixture\n\ngo 1.24\n"
	for name, src := range files {
		p := filepath.Join(root, filepath.FromSlash(name))
		if err := os.MkdirAll(filepath.Dir(p), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(p, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	m, err := loadModule(root)
	if err != nil {
		t.Fatal(err)
	}
	return m.unused()
}

// facadeFixture is a facade package at the module root: it re-exports
// p.Public by alias and calls p.Called.
const facadeFixture = `package fixture

import "fixture/internal/p"

type Public = p.Public

func Use() p.T { return p.Called() }
`

// unusedFindings runs the pass over a module whose internal/p holds src
// (after the package clause) and whose p_test.go calls T.TestOnly.
func unusedFindings(t *testing.T, src string, extra map[string]string) []string {
	t.Helper()
	files := map[string]string{
		"fixture.go": facadeFixture,
		"internal/p/p.go": `package p

type T struct{}

type Public struct{}

func Called() T { return T{} }
` + src,
		"internal/p/p_test.go": `package p

import "testing"

func TestOnly(t *testing.T) { T{}.TestOnly() }
`,
	}
	for name, body := range extra {
		files[name] = body
	}
	return moduleFixture(t, files)
}

// wantUnused fails unless findings are exactly one unused finding per
// name, in order.
func wantUnused(t *testing.T, findings []string, names ...string) {
	t.Helper()
	if len(findings) != len(names) {
		t.Fatalf("findings = %v, want unused %v", findings, names)
	}
	for i, name := range names {
		if !strings.Contains(findings[i], "unused") || !strings.Contains(findings[i], " "+name+":") {
			t.Errorf("finding %q does not flag %s as unused", findings[i], name)
		}
	}
}

func TestUnusedFlagsUncalledExportedMethod(t *testing.T) {
	wantUnused(t, unusedFindings(t, `
func (T) TestOnly() {}

func (T) Uncalled() {}
`, nil), "T.TestOnly", "T.Uncalled")
}

func TestUnusedFlagsMethodOnlyTestsCall(t *testing.T) {
	findings := unusedFindings(t, `
func (T) TestOnly() {}
`, nil)
	wantUnused(t, findings, "T.TestOnly")
}

func TestUnusedFlagsUnusedConst(t *testing.T) {
	wantUnused(t, unusedFindings(t, `
func (T) TestOnly() {}

const (
	Used   = 1
	unused = 2
)

func (T) Size() int { return Used }

var _ = T.Size
`, nil), "T.TestOnly", "unused")
}

func TestUnusedKeepsMethodOnlyBenchCalls(t *testing.T) {
	// bench/ is a module of its own that compiles against internal/: what
	// it calls is used.
	wantUnused(t, unusedFindings(t, `
func (T) TestOnly() {}

func (T) BenchOnly() {}
`, map[string]string{
		"bench/go.mod": "module fixture/bench\n\ngo 1.24\n\nrequire fixture v0.0.0\n\nreplace fixture => ../\n",
		"bench/main.go": `package main

import "fixture/internal/p"

func main() { p.T{}.BenchOnly() }
`,
	}), "T.TestOnly")
}

func TestUnusedKeepsAnnotatedMethod(t *testing.T) {
	wantUnused(t, unusedFindings(t, `
// TestOnly is what the package test calls.
//
//detlint:allow unused the package test pins it and nothing else observes it
func (T) TestOnly() {}
`, nil))
}

func TestUnusedKeepsFacadeAliasedMethods(t *testing.T) {
	// Methods of a type the facade re-exports by alias are public API,
	// pinned by the API golden rather than by this pass.
	wantUnused(t, unusedFindings(t, `
func (T) TestOnly() {}

func (Public) Uncalled() {}
`, nil), "T.TestOnly")
}

func TestUnusedKeysMethodsByReceiver(t *testing.T) {
	// A call to T.Run must not mark U.Run used, and a method that
	// satisfies an interface may be called through it.
	wantUnused(t, unusedFindings(t, `
func (T) TestOnly() {}

type U struct{}

func (T) Run() {}

func (U) Run() {}

func (U) Error() string { return "u" }

func init() { Called().Run(); _ = U{} }
`, nil), "T.TestOnly", "U.Run")
}

func TestUnusedFlagsUncalledCloseMethod(t *testing.T) {
	// Close() error completes io.Closer, but no module code handles an
	// io.Closer or calls Close: a standard-library interface reached only
	// through imports (fmt imports io) exempts nothing. String() stays
	// exempt: fmt calls it through fmt.Stringer.
	wantUnused(t, unusedFindings(t, `
func (T) TestOnly() {}

func (T) Close() error { return nil }

func (T) String() string { return "t" }
`, map[string]string{
		"cmd/show/main.go": `package main

import (
	"fmt"

	"fixture/internal/p"
)

func main() { fmt.Println(p.Called()) }
`,
	}), "T.TestOnly", "T.Close")
}

// TestLintInternalClean pins the repo's own invariant: over the module,
// loaded once, the determinism lint passes over internal/ as committed,
// exemptions and all, and the unused pass finds nothing.
func TestLintInternalClean(t *testing.T) {
	wd, err := filepath.Abs(".")
	if err != nil {
		t.Fatal(err)
	}
	root, _, err := moduleOf(wd)
	if err != nil {
		t.Fatal(err)
	}
	m, err := loadModule(root)
	if err != nil {
		t.Fatal(err)
	}
	findings := m.lint(filepath.Join(root, "internal"))
	if len(findings) != 0 {
		t.Fatalf("internal/ has determinism hazards:\n%s", strings.Join(findings, "\n"))
	}
	if findings = m.unused(); len(findings) != 0 {
		t.Fatalf("internal/ has unused code:\n%s", strings.Join(findings, "\n"))
	}
}
