package core

import (
	"testing"

	"repro/internal/hw"
	"repro/internal/trace"
	"repro/internal/workload"
)

// countKind reports the number of the log's events of one kind.
func countKind(log *trace.Log, kind trace.Kind) int {
	n := 0
	for _, ev := range log.Events() {
		if ev.Kind == kind {
			n++
		}
	}
	return n
}

// TestTracedRunRecordsConsistentEvents runs a small task with tracing on
// and cross-checks the trace against the report.
func TestTracedRunRecordsConsistentEvents(t *testing.T) {
	board := boardFor(t, workload.BoardA())
	pm := perfFor(t, hw.NUMADevice())
	g, c := DefaultExecutors(hw.NUMADevice())
	log := trace.New()
	cfg := Config{
		Device: hw.NUMADevice(), Variant: CoServe,
		GPUExecutors: g, CPUExecutors: c,
		Alloc: CasualAllocation(hw.NUMADevice(), pm, g, c),
		Perf:  pm, Trace: log,
	}
	sys, err := NewSystem(cfg, board.Model)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := sys.RunTask(smallTask(board, 250))
	if err != nil {
		t.Fatal(err)
	}

	if got := countKind(log, trace.KindArrival); int64(got) != rep.N {
		t.Errorf("arrival events = %d, want %d", got, rep.N)
	}
	if got := countKind(log, trace.KindComplete); int64(got) != rep.Completions {
		t.Errorf("complete events = %d, want %d", got, rep.Completions)
	}
	if got := countKind(log, trace.KindSwitch); int64(got) != rep.Switches {
		t.Errorf("switch events = %d, want report switches %d", got, rep.Switches)
	}
	// Assignments = stages dispatched >= requests.
	if got := countKind(log, trace.KindAssign); int64(got) < rep.N {
		t.Errorf("assign events = %d, want >= %d", got, rep.N)
	}
	// Batches must cover all stages.
	var batchedItems int
	for _, ev := range log.Events() {
		if ev.Kind == trace.KindBatch {
			batchedItems += ev.N
		}
	}
	if int64(batchedItems) != int64(countKind(log, trace.KindAssign)) {
		t.Errorf("batched items %d != assigned stages %d", batchedItems, countKind(log, trace.KindAssign))
	}
	// Events are time-ordered.
	prev := log.Events()[0].At
	for _, ev := range log.Events() {
		if ev.At < prev {
			t.Fatal("trace events out of order")
		}
		prev = ev.At
	}
}
