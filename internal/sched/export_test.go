package sched

import (
	"time"

	"repro/internal/coe"
	"repro/internal/sim"
)

// Test-only accessors: nothing outside this package's tests needs them.

// ByExpert statically partitions experts across queues (expert ID modulo
// queue count) — the "distributing requests evenly across executors"
// baseline of the §5.3 ablation, which spreads load without any
// knowledge of queue state. Requests for one expert always land on the
// same executor, the natural arrangement for per-executor model pools.
type ByExpert struct{}

// Empty reports whether no requests are queued.
func (q *Queue) Empty() bool { return q.items == 0 }

// Groups reports the number of queued groups.
func (q *Queue) Groups() int { return len(q.groups) }

// Pending reports the predicted time to drain all unstarted groups.
func (q *Queue) Pending() time.Duration { return q.pending }

// Pick implements Assigner.
func (ByExpert) Pick(now sim.Time, qs []*Queue, e *coe.Expert) int {
	return int(e.ID) % len(qs)
}
