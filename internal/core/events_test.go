package core

import (
	"strings"
	"testing"

	"repro/internal/hw"
	"repro/internal/workload"
)

// TestKernelEventsPerRequest pins the kernel's own count of the events
// one fixed single-node serve dispatches. Every wait is a callback —
// an executor's batch, a transfer stage, a gate or arena wake-up, an
// arrival — so one extra scheduled step per batch, per switch or per
// arrival moves the count.
func TestKernelEventsPerRequest(t *testing.T) {
	board := boardFor(t, workload.BoardA())
	s := buildSystem(t, hw.NUMADevice(), CoServe, board)
	rep, err := s.RunTask(smallTask(board, 400))
	if err != nil {
		t.Fatal(err)
	}
	calls, msgs := s.env.Dispatched()
	var batches int64
	for _, ex := range rep.PerExecutor {
		batches += ex.Batches
	}
	t.Logf("%d requests, %d batches, %d switches: %d callbacks (%.2f/req), %d messages",
		rep.Completions, batches, rep.Switches, calls, float64(calls)/float64(rep.Completions), msgs)
	const wantCalls, wantMsgs = 757, 0
	if calls != wantCalls || msgs != wantMsgs {
		t.Errorf("dispatched %d callbacks and %d messages, want %d and %d", calls, msgs, wantCalls, wantMsgs)
	}
}

// TestDroppedReleaseFailsDrain: a compute unit taken and never handed
// back leaves the executors that need it parked when the event queue
// runs dry. Serve must report that as an error instead of returning a
// report, and the system stays poisoned.
func TestDroppedReleaseFailsDrain(t *testing.T) {
	board := boardFor(t, workload.BoardA())
	s := buildSystem(t, hw.NUMADevice(), CoServe, board)
	if !s.executors[0].Compute.TryAcquire() {
		t.Fatal("compute unit busy before the stream")
	}
	_, err := s.RunTask(smallTask(board, 50))
	if err == nil || !strings.Contains(err.Error(), "still parked") {
		t.Fatalf("Serve error = %v, want the parked-continuation drain error", err)
	}
	if _, again := s.RunTask(smallTask(board, 50)); again == nil {
		t.Error("a system that failed its drain check served another stream")
	}
}
