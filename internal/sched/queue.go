// Package sched implements CoServe's dependency-aware request scheduling
// (§4.2): per-executor request queues that group requests sharing an
// expert, prediction of the additional inference latency a request adds
// to a queue, assignment policies (round-robin and Samba-style FCFS
// baselines, and CoServe's minimize-max-finish-time assigner), and the
// batch-splitting bound.
package sched

import (
	"fmt"
	"time"

	"repro/internal/coe"
	"repro/internal/sim"
)

// Mode selects how a queue arranges incoming requests.
type Mode int

const (
	// ModeFIFO appends requests in arrival order; only requests that
	// happen to arrive back-to-back for the same expert batch together
	// (Samba-CoE behavior, Figure 3).
	ModeFIFO Mode = iota
	// ModeGrouped arranges each request behind the last queued request
	// using the same expert (§4.2 "request arranging", Figure 9).
	ModeGrouped
)

func (m Mode) String() string {
	switch m {
	case ModeFIFO:
		return "fifo"
	case ModeGrouped:
		return "grouped"
	default:
		return fmt.Sprintf("Mode(%d)", int(m))
	}
}

// Costs supplies the profiled quantities predictions need: the §4.2
// linear execution coefficients of the queue's processor, as tables
// filled once when the system is built, and the predicted expert
// switch-in latency.
type Costs struct {
	// Arch maps each ExpertID to its architecture's index in K and B.
	Arch []uint8
	// K and B hold the §4.2 execution-latency coefficients of each
	// architecture on this queue's processor.
	K, B []time.Duration
	// SwitchIn returns the expected switch latency if the expert were
	// acquired now: 0 when it is Loaded in this queue's executor pool,
	// the predicted load latency otherwise.
	SwitchIn func(e *coe.Expert) time.Duration
}

// Group is a run of queued requests that use the same expert. Once an
// executor starts draining a group it is marked started; later arrivals
// for the same expert form a fresh group right behind it.
type Group struct {
	Expert *coe.Expert
	items  []*coe.Request
	// off is the drained prefix of items: TakeFromHead advances it
	// instead of re-slicing, so a recycled group keeps its full item
	// capacity (see Queue.retire).
	off     int
	base    time.Duration // predicted one-time cost: B + switch
	perItem time.Duration // predicted per-request cost: K
	started bool
	// slot is the group's fixed position in its queue's slots table.
	slot int32
}

// Len reports the number of requests still in the group.
func (g *Group) Len() int { return len(g.items) - g.off }

// PredictedRemaining reports the predicted time to finish the group's
// remaining items, including the one-time cost if not started.
func (g *Group) PredictedRemaining() time.Duration {
	d := g.perItem * time.Duration(g.Len())
	if !g.started {
		d += g.base
	}
	return d
}

// Queue is one executor's request queue.
type Queue struct {
	name  string
	mode  Mode
	costs Costs
	gate  *sim.Gate

	groups  []*Group
	items   int
	pending time.Duration // predicted cost of all unstarted groups

	// backlog is the owner's request counter this queue keeps current
	// (see CountInto); nil when the queue counts into nothing.
	backlog *Backlog

	// index holds one cell per ExpertID so the per-arrival questions —
	// "is there a group to merge into?" (mergeTarget) and "does any group
	// use this expert?" (hasExpert) — are a slice read instead of a scan
	// over all groups; MinMax asks them once per queue per arrival. A cell
	// means, by mode:
	//   - ModeGrouped: 1 + the slot of the expert's open group (its one
	//     unstarted group, which accepts merges), or 0. Any other group of
	//     the expert can only be the started head.
	//   - ModeFIFO: the number of queued groups using the expert (only the
	//     tail group merges).
	index []int32
	// slots holds every Group object the queue owns, by Group.slot.
	slots []*Group

	// Drained groups are recycled so a long stream enqueues into a
	// steady-state set of Group objects instead of allocating one per
	// fresh group. retired is the most recently drained group; it moves
	// to free (and is wiped) only when the NEXT group drains, because the
	// executor that drained it may still hold its pointer — and batch
	// slices aliasing its item array — until its next TakeFromHead.
	retired *Group
	free    []*Group

	busyUntil sim.Time
}

// NewQueue returns an empty queue.
func NewQueue(env *sim.Env, name string, mode Mode, costs Costs) *Queue {
	if costs.SwitchIn == nil || len(costs.K) != len(costs.B) {
		panic("sched: queue costs incomplete")
	}
	return &Queue{
		name: name, mode: mode, costs: costs,
		gate: sim.NewGate(env),
	}
}

// Presize sizes the expert index for a model of n experts, so enqueues
// during a serve never grow it.
func (q *Queue) Presize(n int) {
	if n > len(q.index) {
		q.index = append(q.index, make([]int32, n-len(q.index))...)
	}
}

// Name reports the queue name.
func (q *Queue) Name() string { return q.name }

// Gate returns the gate the owning executor waits on; Enqueue notifies
// it.
func (q *Queue) Gate() *sim.Gate { return q.gate }

// Len reports the number of queued requests.
func (q *Queue) Len() int { return q.items }

// Backlog is a request count several queues keep for their owner, so it
// reads their total in O(1): *N is the count, and bit Mask of *Idle is
// kept set exactly while the count is 0. The count and the idle word
// may live in the owner's tables, beside other owners' (a fleet's
// per-node backlogs and idle bitset).
type Backlog struct {
	N    *int
	Idle *uint64
	Mask uint64
}

// Set sets the count to n, and the idle bit with it.
func (b *Backlog) Set(n int) {
	*b.N = n
	b.mark()
}

// add moves the count by n, and the idle bit with it.
func (b *Backlog) add(n int) {
	*b.N += n
	b.mark()
}

func (b *Backlog) mark() {
	if *b.N == 0 {
		*b.Idle |= b.Mask
	} else {
		*b.Idle &^= b.Mask
	}
}

// CountInto makes the queue add every request it gains to the backlog
// and subtract every one it loses; nil detaches it. The owner sets the
// starting count itself (Backlog.Set).
func (q *Queue) CountInto(b *Backlog) { q.backlog = b }

// count moves the queue's length and its owner's counter by n.
func (q *Queue) count(n int) {
	q.items += n
	if q.backlog != nil {
		q.backlog.add(n)
	}
}

// SetBusyUntil records the executor's predicted completion time of
// in-flight work (the started head group).
func (q *Queue) SetBusyUntil(t sim.Time) { q.busyUntil = t }

// FinishTime predicts when the queue's executor goes idle: in-flight
// work plus all unstarted groups (the queue "length" of Figure 8).
func (q *Queue) FinishTime(now sim.Time) sim.Time {
	base := now
	if q.busyUntil > base {
		base = q.busyUntil
	}
	return base.Add(q.pending)
}

// cell reads the expert's index cell; experts past the index are absent.
func (q *Queue) cell(e coe.ExpertID) int32 {
	if uint(e) < uint(len(q.index)) {
		return q.index[e]
	}
	return 0
}

// mergeTarget finds the group a new request for expert e would join, or
// nil if it needs a fresh group. Only unstarted groups accept merges.
// O(1): grouped mode consults the expert index, FIFO mode the tail.
func (q *Queue) mergeTarget(e coe.ExpertID) *Group {
	switch q.mode {
	case ModeGrouped:
		if c := q.cell(e); c > 0 {
			return q.slots[c-1]
		}
	case ModeFIFO:
		if n := len(q.groups); n > 0 {
			tail := q.groups[n-1]
			if tail.Expert.ID == e && !tail.started {
				return tail
			}
		}
	}
	return nil
}

// hasExpert reports whether any group (started or not) uses the expert.
func (q *Queue) hasExpert(e coe.ExpertID) bool {
	if q.cell(e) > 0 {
		return true
	}
	return q.mode == ModeGrouped && len(q.groups) > 0 && q.groups[0].started && q.groups[0].Expert.ID == e
}

// Predict computes the additional inference latency the request would
// add to this queue (§4.2): K when it joins an existing group of the
// same expert; K + B for a fresh group; plus the expert switching
// latency, which is zero when the expert is resident or the queue
// already contains requests for it, and the predicted load latency
// otherwise.
func (q *Queue) Predict(e *coe.Expert) time.Duration {
	a := q.costs.Arch[e.ID]
	cost := q.costs.K[a]
	if q.mergeTarget(e.ID) != nil {
		return cost
	}
	cost += q.costs.B[a]
	if !q.hasExpert(e.ID) {
		cost += q.costs.SwitchIn(e)
	}
	return cost
}

// Enqueue adds the request, arranging per the queue mode, updates the
// pending prediction, and wakes the executor.
func (q *Queue) Enqueue(e *coe.Expert, r *coe.Request) {
	a := q.costs.Arch[e.ID]
	k := q.costs.K[a]
	if g := q.mergeTarget(e.ID); g != nil {
		g.items = append(g.items, r)
		q.pending += k
	} else {
		g := q.newGroup()
		g.Expert, g.perItem, g.base = e, k, q.costs.B[a]
		if !q.hasExpert(e.ID) {
			g.base += q.costs.SwitchIn(e)
		}
		g.items = append(g.items, r)
		q.insertGroup(g)
		q.Presize(int(e.ID) + 1)
		if q.mode == ModeGrouped {
			q.index[e.ID] = g.slot + 1
		} else {
			q.index[e.ID]++
		}
		q.pending += g.base + k
	}
	q.count(1)
	q.gate.Notify()
}

// newGroup pops a recycled group or allocates a fresh one. Recycled
// groups were wiped in retire and keep their item capacity.
func (q *Queue) newGroup() *Group {
	if n := len(q.free); n > 0 {
		g := q.free[n-1]
		q.free[n-1] = nil
		q.free = q.free[:n-1]
		return g
	}
	g := &Group{slot: int32(len(q.slots))}
	q.slots = append(q.slots, g)
	return g
}

// retire recycles a drained group one drain late: g itself parks in
// retired, and the previously retired group — whose last consumer has
// by now moved past it — is wiped and pushed on the free list. The lag
// guarantees a group is never handed back to Enqueue while the executor
// that drained it can still observe its pointer or a batch slice
// aliasing its item array.
func (q *Queue) retire(g *Group) {
	if p := q.retired; p != nil {
		clear(p.items)
		p.items = p.items[:0]
		p.off = 0
		p.Expert = nil
		p.base, p.perItem = 0, 0
		p.started = false
		q.free = append(q.free, p)
	}
	q.retired = g
}

// insertGroup places a fresh group: normally at the tail, but a group
// whose expert matches the started head group slots in right behind it,
// so the already-loaded expert keeps serving ("arranged to follow
// existing requests utilizing the same expert").
func (q *Queue) insertGroup(g *Group) {
	if len(q.groups) > 0 && q.groups[0].started && q.groups[0].Expert.ID == g.Expert.ID {
		q.groups = append(q.groups, nil)
		copy(q.groups[2:], q.groups[1:])
		q.groups[1] = g
		return
	}
	q.groups = append(q.groups, g)
}

// Head returns the head group without removing it, or nil when empty.
func (q *Queue) Head() *Group {
	if len(q.groups) == 0 {
		return nil
	}
	return q.groups[0]
}

// TakeFromHead marks the head group started (removing its prediction
// from pending — the executor now accounts for it via SetBusyUntil) and
// removes up to n of its requests, dropping the group once drained.
func (q *Queue) TakeFromHead(n int) []*coe.Request {
	if len(q.groups) == 0 || n < 1 {
		return nil
	}
	g := q.groups[0]
	if !g.started {
		g.started = true
		if q.mode == ModeGrouped {
			q.index[g.Expert.ID] = 0 // the open group is the only unstarted one
		}
		q.pending -= g.base + g.perItem*time.Duration(g.Len())
	}
	if n > g.Len() {
		n = g.Len()
	}
	batch := g.items[g.off : g.off+n : g.off+n]
	g.off += n
	q.count(-n)
	if g.Len() == 0 {
		if q.mode == ModeFIFO {
			q.index[g.Expert.ID]--
		}
		copy(q.groups, q.groups[1:])
		q.groups[len(q.groups)-1] = nil
		q.groups = q.groups[:len(q.groups)-1]
		q.retire(g)
	}
	return batch
}

// Purge removes every queued request — the started head group's
// undrained tail included — and returns them in queue order: the crash
// path, which voids a dead node's backlog so the dispatcher can
// redeliver it elsewhere. The purged groups and the retired group are
// dropped rather than recycled: a batch taken before the crash may still
// alias their item arrays while it waits on memory or compute, and the
// restarted executor's next drain would otherwise wipe them under it.
// Each dropped group's slot passes to a fresh Group on the free list, so
// the slot table stays bounded; the free list itself was wiped under the
// one-drain-late protocol and stays safe to reuse.
func (q *Queue) Purge() []*coe.Request {
	if q.retired != nil {
		q.rehome(q.retired)
		q.retired = nil
	}
	if len(q.groups) == 0 {
		return nil
	}
	out := make([]*coe.Request, 0, q.items)
	for i, g := range q.groups {
		out = append(out, g.items[g.off:]...)
		q.rehome(g)
		q.groups[i] = nil
	}
	q.groups = q.groups[:0]
	q.count(-q.items)
	q.pending = 0
	clear(q.index)
	return out
}

// rehome hands a dropped group's slot to a fresh group on the free list.
func (q *Queue) rehome(g *Group) {
	fresh := &Group{slot: g.slot}
	q.slots[g.slot] = fresh
	q.free = append(q.free, fresh)
}

// SplitBound computes the current maximum executable batch size (§4.2
// "request splitting"): the smaller of the profiled maximum batch size
// and the largest batch the free activation memory accommodates, never
// below 1 (the executor blocks on memory for a single image if needed).
func SplitBound(profiledMax int, freeBytes, perImageBytes int64) int {
	if profiledMax < 1 {
		profiledMax = 1
	}
	if perImageBytes <= 0 {
		return profiledMax
	}
	memMax := int(freeBytes / perImageBytes)
	if memMax < 1 {
		memMax = 1
	}
	if memMax < profiledMax {
		return memMax
	}
	return profiledMax
}
