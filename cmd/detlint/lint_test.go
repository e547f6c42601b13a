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

// TestLintInternalClean pins the repo's own invariant: the lint passes
// over internal/ as committed, exemptions and all.
func TestLintInternalClean(t *testing.T) {
	findings, err := lintRoot("../../internal")
	if err != nil {
		t.Fatal(err)
	}
	if len(findings) != 0 {
		t.Fatalf("internal/ has determinism hazards:\n%s", strings.Join(findings, "\n"))
	}
}
