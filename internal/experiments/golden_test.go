package experiments

import (
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// update regenerates the golden files instead of comparing against them:
//
//	go test ./internal/experiments -run Golden -update
var update = flag.Bool("update", false, "rewrite testdata/golden/<id>.txt from the current build")

// goldenPath is where experiment id's pinned rendering lives.
func goldenPath(id string) string {
	return filepath.Join("testdata", "golden", id+".txt")
}

// checkGolden compares one experiment's masked rendering against its
// golden file (or rewrites the file under -update). A mismatch names the
// experiment, the run that produced it, and the first differing line.
func checkGolden(t *testing.T, id, run, rendered string) {
	t.Helper()
	got := maskWallClock(id, rendered)
	path := goldenPath(id)
	if *update {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%s: %v (run with -update to create it)", id, err)
	}
	if got == string(want) {
		return
	}
	gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	for i := 0; i < max(len(gl), len(wl)); i++ {
		g, w := lineAt(gl, i), lineAt(wl, i)
		if g != w {
			t.Errorf("%s (%s) differs from %s at line %d:\n  got:  %q\n  want: %q", id, run, path, i+1, g, w)
			return
		}
	}
}

func lineAt(lines []string, i int) string {
	if i < len(lines) {
		return lines[i]
	}
	return "<EOF>"
}

// TestServeGoldens renders the cluster serving experiments once on a
// fresh context at the default parallelism and compares each to its
// golden file. Only serve-shard runs over an interconnect.
func TestServeGoldens(t *testing.T) {
	if *update {
		t.Skip("goldens are written by TestParallelOutputByteIdentical")
	}
	ctx := NewContext()
	for _, id := range []string{"serve-shard", "serve-chaos", "serve-grayfail", "serve-fleet"} {
		e, err := ByID(id)
		if err != nil {
			t.Fatal(err)
		}
		tb, err := e.Run(ctx)
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		checkGolden(t, id, "default parallelism", tb.Render())
	}
}
