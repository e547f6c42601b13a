package cluster

import (
	"testing"

	"repro/internal/workload"
)

// TestKernelEventsPerRequest pins the kernel's own count of the events
// one fixed 4-node serve over an interconnect dispatches, by kind:
// callbacks (batches, transfer stages, wake-ups, arrivals) and messages
// (every offer and ack hop). One extra scheduled step per batch, per
// switch, per arrival or per hop moves a count.
func TestKernelEventsPerRequest(t *testing.T) {
	board := boardFor(t, workload.BoardA())
	cl := buildCluster(t, interconnectConfig(t, nil, HealthConfig{}, HedgeConfig{}), board.Model)
	rep, err := cl.Serve(poissonFor(t, board, 40, 400, 1))
	if err != nil {
		t.Fatal(err)
	}
	calls, msgs := cl.env.Dispatched()
	var batches int64
	for _, n := range rep.PerNode {
		for _, ex := range n.PerExecutor {
			batches += ex.Batches
		}
	}
	t.Logf("%d requests, %d batches: %d callbacks (%.2f/req), %d messages (%.2f/req)",
		rep.Completions, batches, calls, float64(calls)/float64(rep.Completions), msgs, float64(msgs)/float64(rep.Completions))
	const wantCalls, wantMsgs = 1190, 1200
	if calls != wantCalls || msgs != wantMsgs {
		t.Errorf("dispatched %d callbacks and %d messages, want %d and %d", calls, msgs, wantCalls, wantMsgs)
	}
}
