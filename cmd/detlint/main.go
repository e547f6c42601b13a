// Command detlint is the determinism lint: it scans non-test Go files
// under the given packages roots (default the module's internal/) for constructs
// that break byte-reproducible simulation output and fails loudly on
// any finding. The simulator's contract — identical tables, reports,
// and experiment output for identical inputs, at any worker count and
// under -race — dies quietly when wall-clock time, the global
// math/rand generator, or Go's randomized map iteration order leaks
// into an output path, so the lint runs in CI next to go vet.
//
// Flagged:
//
//   - time.Now / time.Since: wall-clock reads. Simulation code must use
//     the virtual clock (sim.Env). Deliberate wall-clock measurement
//     (the sampled Figure 19 scheduling-overhead probe) is annotated.
//   - package-level math/rand calls (rand.Intn, rand.Float64, ...):
//     the global generator is shared, unseeded, and race-prone.
//     Constructing owned generators (rand.New, rand.NewSource,
//     rand.NewZipf) is fine — every stream in this codebase carries its
//     own seeded source.
//   - range over a map: iteration order is randomized per run. Sites
//     that fold map contents commutatively or sort before use are
//     annotated; anything new must either neutralize the order the
//     same way or use a slice.
//   - goroutine launches and sync/sync.atomic use inside the kernel
//     packages (internal/sim, internal/cluster): the kernel orders
//     every event itself and runs them all on its caller's goroutine —
//     every wait is a callback continuation, and a whole fleet shares
//     one event kernel — so its state is never guarded by locks.
//
// A finding is silenced by a `//detlint:allow <reason>` comment on the
// offending line or the line above it — the reason is the point: every
// exemption documents why the order or clock cannot leak into output.
// Kernel concurrency findings cannot be silenced.
//
// A second pass, unused, fails on every top-level declaration in
// non-test internal/ code that no non-test code of the module (found
// from go.mod) refers to — cmd/, examples/, the facade and bench/, a
// module of its own, included. Only tests need it: move it to its
// package's export_test.go. Methods of the types the facade aliases
// are public API, pinned by api.txt instead; methods that implement
// error, fmt.Stringer or an interface whose method module code calls
// are exempt too. `//detlint:allow unused <reason>` in a doc
// comment exempts a declaration that tests need and that no production
// observable replaces.
//
// Usage:
//
//	go run ./cmd/detlint            # lint internal/, then the module for unused code
//	go run ./cmd/detlint ./pkg ...  # determinism-lint other roots
package main

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
)

func main() {
	wd, err := filepath.Abs(".")
	exitOn(err)
	mod, _, err := moduleOf(wd)
	exitOn(err)
	// Load the module once, named relative to the working directory so
	// findings read as relative paths, and run both passes over it.
	rel, err := filepath.Rel(wd, mod)
	exitOn(err)
	m, err := loadModule(rel)
	exitOn(err)
	roots := os.Args[1:]
	if len(roots) == 0 {
		roots = []string{filepath.Join(rel, "internal")}
	}
	var findings []string
	for _, root := range roots {
		abs, err := filepath.Abs(root)
		exitOn(err)
		if in, err := filepath.Rel(mod, abs); err == nil && !strings.HasPrefix(in, "..") {
			findings = append(findings, m.lint(filepath.Join(rel, in))...)
			continue
		}
		fs, err := lintRoot(root)
		exitOn(err)
		findings = append(findings, fs...)
	}
	findings = append(findings, m.unused()...)
	for _, f := range findings {
		fmt.Fprintf(os.Stderr, "detlint: %s\n", f)
	}
	if len(findings) > 0 {
		fmt.Fprintf(os.Stderr, "detlint: %d finding(s) — annotate with //detlint:allow <reason> only if the order or clock cannot reach output, or the unused code has no production observable\n", len(findings))
		os.Exit(1)
	}
	fmt.Println("detlint: OK — no wall-clock, global-rand, or map-order hazards, and no unused internal code")
}

// exitOn stops the run on an error that kept a pass from completing.
func exitOn(err error) {
	if err != nil {
		fmt.Fprintf(os.Stderr, "detlint: %v\n", err)
		os.Exit(2)
	}
}
