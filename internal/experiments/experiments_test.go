package experiments

import (
	"reflect"
	"strconv"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/hw"
	"repro/internal/workload"
)

// sharedCtx lets the whole test file reuse one evaluation grid.
var sharedCtx = NewContext()

func runExp(t *testing.T, id string) *Table {
	t.Helper()
	e, err := ByID(id)
	if err != nil {
		t.Fatal(err)
	}
	tb, err := e.Run(sharedCtx)
	if err != nil {
		t.Fatalf("%s: %v", id, err)
	}
	if tb.ID != id || len(tb.Rows) == 0 || len(tb.Columns) == 0 {
		t.Fatalf("%s: malformed table", id)
	}
	for i, row := range tb.Rows {
		if len(row) != len(tb.Columns) {
			t.Fatalf("%s: row %d has %d cells, want %d", id, i, len(row), len(tb.Columns))
		}
	}
	if !strings.Contains(tb.Render(), tb.Title) {
		t.Fatalf("%s: render missing title", id)
	}
	return tb
}

func cellFloat(t *testing.T, tb *Table, row int, col string) float64 {
	t.Helper()
	for i, c := range tb.Columns {
		if c == col {
			v := strings.TrimSuffix(strings.TrimSuffix(tb.Rows[row][i], "×"), "%")
			f, err := strconv.ParseFloat(v, 64)
			if err != nil {
				t.Fatalf("cell %q not numeric: %v", tb.Rows[row][i], err)
			}
			return f
		}
	}
	t.Fatalf("no column %q", col)
	return 0
}

func TestRegistryAndByID(t *testing.T) {
	if len(Registry()) != 13 {
		t.Errorf("registry has %d entries, want 13", len(Registry()))
	}
	if len(IDs()) != len(All()) {
		t.Error("IDs/All mismatch")
	}
	if _, err := ByID("fig99"); err == nil {
		t.Error("unknown experiment resolved")
	}
}

func TestTable1(t *testing.T) {
	tb := runExp(t, "tab1")
	text := tb.Render()
	for _, want := range []string{"RTX3080Ti", "Apple M2", "12 GB", "24 GB", "16 GB"} {
		if !strings.Contains(text, want) {
			t.Errorf("Table 1 missing %q", want)
		}
	}
}

func TestFigure1Shares(t *testing.T) {
	tb := runExp(t, "fig1")
	for i, row := range tb.Rows {
		share := cellFloat(t, tb, i, "switch share")
		if strings.Contains(row[1], "SSD") {
			if share < 90 {
				t.Errorf("%v: SSD share %.1f%% < 90%%", row, share)
			}
		} else if share < 60 || share > 93 {
			t.Errorf("%v: CPU→GPU share %.1f%% outside 60–93%%", row, share)
		}
	}
}

func TestFigure5InteriorOptimumOnCPU(t *testing.T) {
	tb := runExp(t, "fig5")
	// UMA CPU column: the last row (batch 32) must exceed the minimum.
	minV, last := 1e18, 0.0
	for i := range tb.Rows {
		v := cellFloat(t, tb, i, "UMA CPU")
		if v < minV {
			minV = v
		}
		last = v
	}
	if last <= minV {
		t.Errorf("UMA CPU avg latency should worsen at batch 32: min %.2f, last %.2f", minV, last)
	}
	// GPU batching must help initially.
	if cellFloat(t, tb, 1, "NUMA GPU") >= cellFloat(t, tb, 0, "NUMA GPU") {
		t.Error("NUMA GPU batch 2 should beat batch 1")
	}
}

func TestFigure6FootprintGrows(t *testing.T) {
	tb := runExp(t, "fig6")
	prev := -1.0
	for i := range tb.Rows {
		v := cellFloat(t, tb, i, "NUMA GPU")
		if v <= prev {
			t.Errorf("footprint not increasing at row %d", i)
		}
		prev = v
	}
	// §3.3 scale: ~30-image batch near 8 GB on the NUMA GPU.
	if last := cellFloat(t, tb, len(tb.Rows)-1, "NUMA GPU"); last < 5 || last > 12 {
		t.Errorf("batch-32 footprint = %.1f GB, want 5–12 GB", last)
	}
}

func TestFigure11BetweenLinearAndStep(t *testing.T) {
	tb := runExp(t, "fig11")
	for i := range tb.Rows[:len(tb.Rows)-1] {
		actual := cellFloat(t, tb, i, "actual CDF")
		linear := cellFloat(t, tb, i, "linear")
		if actual < linear {
			t.Errorf("row %d: actual %.3f below linear %.3f", i, actual, linear)
		}
		if actual > 1 {
			t.Errorf("row %d: CDF above 1", i)
		}
	}
}

func TestFigure12LinearGrowth(t *testing.T) {
	tb := runExp(t, "fig12")
	for i := range tb.Rows {
		gpu := cellFloat(t, tb, i, "NUMA GPU rn101")
		cpu := cellFloat(t, tb, i, "NUMA CPU rn101")
		if cpu <= gpu {
			t.Errorf("batch row %d: CPU %.1f not above GPU %.1f", i, cpu, gpu)
		}
	}
}

func TestFigure13HeadlineClaim(t *testing.T) {
	tb := runExp(t, "fig13")
	if len(tb.Rows) != 8 {
		t.Fatalf("fig13 rows = %d, want 8 (2 devices x 4 tasks)", len(tb.Rows))
	}
	for i, row := range tb.Rows {
		for _, col := range []string{"best/samba", "best/fifo", "best/par"} {
			ratio := cellFloat(t, tb, i, col)
			// Paper: 4.5×–12×. Accept a generous band around it; the
			// essential claim is a multi-x win.
			if ratio < 3.5 || ratio > 16 {
				t.Errorf("%v %s: ratio %.1f× outside 3.5–16×", row[:2], col, ratio)
			}
		}
		best := cellFloat(t, tb, i, "CoServe Best")
		casual := cellFloat(t, tb, i, "CoServe Casual")
		// Casual close to Best (§5.2 reports 5.7%–18.8% gaps; our UMA
		// search finds somewhat stronger Best configs) — and never
		// wildly above.
		if casual < best*0.65 || casual > best*1.15 {
			t.Errorf("%v: casual %.1f not within expected band of best %.1f", row[:2], casual, best)
		}
	}
}

func TestFigure14SwitchReduction(t *testing.T) {
	tb := runExp(t, "fig14")
	for i, row := range tb.Rows {
		red := cellFloat(t, tb, i, "reduction")
		if red < 35 {
			t.Errorf("%v: switch reduction %.1f%% below 35%%", row[:2], red)
		}
	}
}

func TestFigure15AblationMonotone(t *testing.T) {
	tb := runExp(t, "fig15")
	for i, row := range tb.Rows {
		none := cellFloat(t, tb, i, "None")
		em := cellFloat(t, tb, i, "EM")
		emra := cellFloat(t, tb, i, "EM+RA")
		full := cellFloat(t, tb, i, "CoServe")
		if !(none < em && em < emra && emra < full) {
			t.Errorf("%v: ablation not monotone: %.1f %.1f %.1f %.1f", row[:2], none, em, emra, full)
		}
	}
}

func TestFigure16SwitchesShrinkWithOptimizations(t *testing.T) {
	tb := runExp(t, "fig16")
	for i, row := range tb.Rows {
		none := cellFloat(t, tb, i, "None")
		full := cellFloat(t, tb, i, "CoServe")
		if full >= none/2 {
			t.Errorf("%v: full CoServe switches %.0f not well below None %.0f", row[:2], full, none)
		}
	}
}

func TestFigure17Shape(t *testing.T) {
	tb := runExp(t, "fig17")
	for _, row := range tb.Rows {
		// Parse the leading number of each topology cell.
		tp := func(cell string) float64 {
			f, err := strconv.ParseFloat(strings.Fields(cell)[0], 64)
			if err != nil {
				t.Fatalf("bad cell %q", cell)
			}
			return f
		}
		one, five := tp(row[2]), tp(row[6])
		peak := 0.0
		for _, cell := range row[2:] {
			if v := tp(cell); v > peak {
				peak = v
			}
		}
		if one >= peak {
			t.Errorf("%v: 1G+1C should under-utilize (%.1f vs peak %.1f)", row[:2], one, peak)
		}
		// Some configuration beyond the peak must lose throughput
		// (either 5G+1C or the +2C config).
		two := tp(row[7])
		if five >= peak && two >= peak {
			t.Errorf("%v: no decline after the peak", row[:2])
		}
	}
}

func TestFigure18SearchValid(t *testing.T) {
	tb := runExp(t, "fig18")
	var selected int
	for _, row := range tb.Rows {
		if row[4] != "" {
			n, err := strconv.Atoi(row[4])
			if err != nil || n < 1 {
				t.Fatalf("bad selected count %q", row[4])
			}
			selected = n
		}
	}
	if selected == 0 {
		t.Fatal("no selected expert count reported")
	}
}

func TestFigure19OverheadSmall(t *testing.T) {
	tb := runExp(t, "fig19")
	for i, row := range tb.Rows {
		gap := cellFloat(t, tb, i, "gap")
		if gap > 3 || gap < -3 {
			t.Errorf("%v: pre-sched gap %.2f%% exceeds the paper's 3%%", row[:2], gap)
		}
	}
}

// TestBestConfigSearchDeterministic pins the offline search output so
// accidental nondeterminism in the profiler or grid is caught.
func TestBestConfigSearchDeterministic(t *testing.T) {
	board, err := sharedCtx.Board(workload.BoardA())
	if err != nil {
		t.Fatal(err)
	}
	c2 := NewContext()
	b1, err := sharedCtx.Best(hw.NUMADevice(), board)
	if err != nil {
		t.Fatal(err)
	}
	b2, err := c2.Best(hw.NUMADevice(), board)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(b1, b2) {
		t.Errorf("offline search not deterministic: %+v vs %+v", b1, b2)
	}
}

// TestGridMemoization confirms the context caches task runs.
func TestGridMemoization(t *testing.T) {
	tasks, err := sharedCtx.tasks()
	if err != nil {
		t.Fatal(err)
	}
	r1, err := sharedCtx.run(hw.NUMADevice(), core.Samba, tasks[0], false)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := sharedCtx.run(hw.NUMADevice(), core.Samba, tasks[0], false)
	if err != nil {
		t.Fatal(err)
	}
	if r1 != r2 {
		t.Error("grid did not memoize")
	}
}
