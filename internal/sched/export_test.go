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
func (ByExpert) Pick(now sim.Time, qs []*Queue, e *coe.Expert) (int, Prediction) {
	i := int(e.ID) % len(qs)
	return i, qs[i].Predict(e)
}

// mergeTarget finds the group a new request for expert e would join, or
// nil if it needs a fresh group: the group the queue's Prediction opens.
func (q *Queue) mergeTarget(e coe.ExpertID) *Group {
	if p := q.Predict(&coe.Expert{ID: e}); p.open > 0 {
		return q.slots[p.open-1]
	}
	return nil
}

// hasExpert reports whether any group (started or not) uses the expert,
// as the queue's index cell and started head tell it.
func (q *Queue) hasExpert(e coe.ExpertID) bool {
	return *q.cell(e) > 0 || q.head == e
}
