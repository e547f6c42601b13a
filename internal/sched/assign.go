package sched

import (
	"time"

	"repro/internal/coe"
	"repro/internal/sim"
)

// Assigner picks the executor queue a new request for expert e joins,
// among queues of one Node, and returns its index with that queue's
// Prediction of e, which Enqueue applies.
type Assigner interface {
	Pick(now sim.Time, qs []*Queue, e *coe.Expert) (int, Prediction)
}

// Single always assigns to queue 0 — the Samba-CoE single-executor FCFS
// arrangement.
type Single struct{}

// Pick implements Assigner.
func (Single) Pick(now sim.Time, qs []*Queue, e *coe.Expert) (int, Prediction) {
	return 0, qs[0].Predict(e)
}

// RoundRobin distributes requests evenly across queues in arrival order
// — Samba-CoE Parallel's strategy (§5.1).
type RoundRobin struct{ next int }

// Pick implements Assigner.
func (rr *RoundRobin) Pick(now sim.Time, qs []*Queue, e *coe.Expert) (int, Prediction) {
	i := rr.next % len(qs)
	rr.next++
	return i, qs[i].Predict(e)
}

// MinMax is CoServe's dependency-aware request assigning (§4.2,
// Figure 8): choose the queue that minimizes the total inference time —
// the maximum finish time across all executor queues — and break ties by
// the smallest additional latency for the new request, preserving
// assignment capacity for future requests. Remaining ties go to the
// lowest queue index, keeping runs deterministic.
type MinMax struct{}

// Pick implements Assigner. Rather than materializing a per-queue finish
// slice, it tracks the largest and second-largest current finish times:
// the maximum over the queues other than i is max1, unless i itself is
// the arg-max, in which case it is max2. The terms the queues share —
// the expert's architecture, its row of index cells and Loaded bits, and
// its switch-in latency per tier — are read once, so one decision is
// O(queues) reads of the expert's row with zero allocations.
func (MinMax) Pick(now sim.Time, qs []*Queue, e *coe.Expert) (int, Prediction) {
	const minTime = sim.Time(-1 << 62)
	max1, max2 := minTime, minTime
	argmax := -1
	for i, q := range qs {
		f := q.FinishTime(now)
		if f > max1 {
			max2, max1, argmax = max1, f, i
		} else if f > max2 {
			max2 = f
		}
	}
	var s quote
	s.read(qs[0].node, e.ID)
	best := -1
	var bestTotal sim.Time
	var bestAdd time.Duration
	var pick Prediction
	for i, q := range qs {
		p, sw := q.predict(&s)
		if sw {
			p.Base += s.switchIn(q.tier)
		}
		add := p.Add()
		total := q.FinishTime(now).Add(add)
		other := max1
		if i == argmax {
			other = max2
		}
		if other > total {
			total = other
		}
		if best < 0 || total < bestTotal || (total == bestTotal && add < bestAdd) {
			best, bestTotal, bestAdd, pick = i, total, add, p
		}
	}
	return best, pick
}

// Replay reissues a recorded assignment sequence — the pre-scheduled
// control of the paper's overhead analysis (Figure 19), which executes
// the same request order with zero online scheduling work.
type Replay struct {
	picks []int
	next  int
}

// NewReplay returns an assigner that replays picks in order.
func NewReplay(picks []int) *Replay { return &Replay{picks: picks} }

// Pick implements Assigner.
func (r *Replay) Pick(now sim.Time, qs []*Queue, e *coe.Expert) (int, Prediction) {
	if r.next >= len(r.picks) {
		panic("sched: replay exhausted")
	}
	i := r.picks[r.next]
	r.next++
	return i, qs[i].Predict(e)
}
