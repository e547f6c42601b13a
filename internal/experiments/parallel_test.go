package experiments

import (
	"regexp"
	"strings"
	"testing"

	"repro/internal/core"
)

// schedWallCell matches fig19's "sched/op (wall)" cells (for example
// "1.23µs" inside a row). That column is a real wall-clock measurement
// of scheduling cost — the only nondeterministic cells in the whole
// registry, varying between ANY two runs, sequential ones included. The
// golden comparison masks it and compares every other byte exactly.
var schedWallCell = regexp.MustCompile(`[0-9.]+[µnm]?s`)

// maskWallClock blanks fig19's wall-clock scheduling column; every
// other table passes through untouched.
func maskWallClock(id, rendered string) string {
	if id != "fig19" {
		return rendered
	}
	// Rather than parse the aligned layout for the one wall-clock
	// column, mask every duration token: the virtual-time durations are
	// identical across runs anyway, so masking them too keeps the
	// comparison sound. The masked token's width differs run to run
	// ("1.2µs" vs "890ns"), which shifts the tabwriter's padding, so
	// column whitespace is collapsed as well.
	masked := schedWallCell.ReplaceAllString(rendered, "<dur>")
	return regexp.MustCompile(` {2,}`).ReplaceAllString(masked, " ")
}

// TestParallelOutputByteIdentical is the engine's core guarantee: every
// registered experiment (paper artifacts, extensions, and the serve-*
// family) renders byte-identically to its golden file
// (testdata/golden/<id>.txt) whether sweeps run on one worker or fan out
// across eight. Under -update the sequential run rewrites the goldens.
func TestParallelOutputByteIdentical(t *testing.T) {
	seq := NewContext()
	seq.SetParallel(1)
	par := NewContext()
	par.SetParallel(8)
	if seq.Parallel() != 1 || par.Parallel() != 8 {
		t.Fatalf("SetParallel not applied: %d, %d", seq.Parallel(), par.Parallel())
	}
	for _, e := range All() {
		sTab, err := e.Run(seq)
		if err != nil {
			t.Fatalf("%s sequential: %v", e.ID, err)
		}
		checkGolden(t, e.ID, "parallel=1", sTab.Render())
		pTab, err := e.Run(par)
		if err != nil {
			t.Fatalf("%s parallel: %v", e.ID, err)
		}
		checkGolden(t, e.ID, "parallel=8", pTab.Render())
	}
}

// TestRunAllOrderAndEquivalence checks the top-level fan-out: RunAll on
// a parallel context returns exactly the per-ID renders, in ID order.
func TestRunAllOrderAndEquivalence(t *testing.T) {
	ids := []string{"tab1", "fig1", "fig11", "ext-arrival"}
	ctx := NewContext()
	ctx.SetParallel(4)
	outs, err := RunAll(ctx, ids)
	if err != nil {
		t.Fatal(err)
	}
	if len(outs) != len(ids) {
		t.Fatalf("RunAll returned %d outputs for %d ids", len(outs), len(ids))
	}
	for i, id := range ids {
		want, err := ByID(id)
		if err != nil {
			t.Fatal(err)
		}
		tb, err := want.Run(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if outs[i] != tb.Render() {
			t.Errorf("RunAll[%d] is not the render of %s", i, id)
		}
		if !strings.HasPrefix(outs[i], id+" ") {
			t.Errorf("RunAll[%d] = %q..., want experiment %s", i, outs[i][:min(len(outs[i]), 20)], id)
		}
	}
	if _, err := RunAll(ctx, []string{"fig99"}); err == nil {
		t.Error("RunAll accepted an unknown id")
	}
	all, err := RunAll(ctx, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(all) != len(IDs()) {
		t.Errorf("RunAll(nil) returned %d outputs, want %d", len(all), len(IDs()))
	}
}

// TestContextSharedAcrossWorkers checks the memoization contract: two
// experiments touching the same grid key on a parallel context share
// one report, even when requested concurrently.
func TestContextSharedAcrossWorkers(t *testing.T) {
	ctx := NewContext()
	ctx.SetParallel(8)
	if _, err := RunAll(ctx, []string{"fig13", "fig14"}); err != nil {
		t.Fatal(err)
	}
	tasks, err := ctx.tasks()
	if err != nil {
		t.Fatal(err)
	}
	r1, err := ctx.run(devices()[0], core.Samba, tasks[0], false)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := ctx.run(devices()[0], core.Samba, tasks[0], false)
	if err != nil {
		t.Fatal(err)
	}
	if r1 != r2 {
		t.Error("grid did not memoize across parallel experiments")
	}
}

// TestFigure19ReplaysGridRuns: Figure 19's online runs are the shared
// grid's CoServe casual runs, traced, so a full experiment run serves
// each (device, task) pair once. On a fresh context fig19 fills exactly
// those grid cells, each with one replayable pick per online
// scheduling decision.
func TestFigure19ReplaysGridRuns(t *testing.T) {
	ctx := NewContext()
	if _, err := RunAll(ctx, []string{"fig19"}); err != nil {
		t.Fatal(err)
	}
	tasks, err := ctx.tasks()
	if err != nil {
		t.Fatal(err)
	}
	// Read before the lookups below, which would fill missing cells.
	cells := ctx.grid.Len()
	want := 0
	for _, dev := range devices() {
		for _, task := range tasks {
			if task.Name != "A2" && task.Name != "B2" {
				continue
			}
			want++
			g, err := ctx.gridRun(dev, core.CoServe, task, false)
			if err != nil {
				t.Fatal(err)
			}
			if len(g.picks) == 0 || int64(len(g.picks)) != g.rep.SchedOps {
				t.Errorf("%s/%s: %d picks for %d scheduling decisions", dev.Name, task.Name, len(g.picks), g.rep.SchedOps)
			}
		}
	}
	if cells != want {
		t.Errorf("fig19 left %d grid runs, want its %d online runs", cells, want)
	}
}

// TestRenderDashesUseRuneCount pins the header-underline width fix:
// non-ASCII column names must be underlined by their rune count, not
// their byte length.
func TestRenderDashesUseRuneCount(t *testing.T) {
	tb := &Table{
		ID:      "x",
		Title:   "t",
		Columns: []string{"débit (img/s)", "±σ"},
		Rows:    [][]string{{"1", "2"}},
	}
	lines := strings.Split(tb.Render(), "\n")
	if len(lines) < 3 {
		t.Fatal("short render")
	}
	dashLine := lines[2]
	// "débit (img/s)" is 13 runes but 14 bytes; "±σ" is 2 runes but 4
	// bytes. Byte-length underlining over-dashes both.
	if strings.Contains(dashLine, strings.Repeat("-", 14)) {
		t.Errorf("first column underlined by byte length: %q", dashLine)
	}
	if !strings.Contains(dashLine, strings.Repeat("-", 13)) {
		t.Errorf("first column not underlined by rune count: %q", dashLine)
	}
	fields := strings.Fields(dashLine)
	if got := fields[len(fields)-1]; got != "--" {
		t.Errorf("2-rune column underlined as %q, want \"--\"", got)
	}
}
