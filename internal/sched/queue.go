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
	"repro/internal/memory"
	"repro/internal/sim"
	"repro/internal/xfer"
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

// Costs supplies what a queue's predictions need beyond what its node
// shares: the §4.2 linear execution coefficients of the queue's
// processor, as tables filled once when the system is built, the tier
// its pool holds experts in, and the pool's slot in the node's Loaded
// table.
type Costs struct {
	// K and B hold the §4.2 execution-latency coefficients of each
	// architecture on this queue's processor, indexed as the node's
	// price list numbers architectures (coe.Model.Archs).
	K, B []time.Duration
	// Tier is the memory tier the queue's pool loads experts into; it
	// selects the switch-in latency.
	Tier memory.Tier
	// Slot is the queue's pool's slot in the node's Loaded table.
	Slot memory.Slot
}

// Node is the per-expert state one node's queues share, kept
// expert-major so that pricing an expert on every queue of the node
// reads one row of each table: the expert's architecture and switch-in
// prices, the queues' execution coefficients for it, its Loaded row
// across the node's pools, and its index cell in each queue.
type Node struct {
	prices *xfer.Prices
	// coef holds the queues' §4.2 coefficients, architecture-major: row
	// a is the nq entries from a*nq, one per queue in NewQueue order.
	coef []coef
	// loaded is the node's pools' Loaded table (pool.Carve); each
	// queue's pool owns one slot of every row.
	loaded memory.Residency
	// cells holds the queues' index cells, expert-major like loaded, so
	// the per-arrival questions — "is there a group to merge into?" and
	// "does any group use this expert?" — are a slice read instead of a
	// scan over a queue's groups. A cell means, by the queue's mode:
	//   - ModeGrouped: 1 + the slot of the expert's open group (its one
	//     unstarted group, which accepts merges), or 0. Any other group of
	//     the expert can only be the started head.
	//   - ModeFIFO: the number of queued groups using the expert (only the
	//     tail group merges).
	cells []int32
	nq    int
	// queues holds the node's queues, carved from one block in column
	// order; made counts those NewQueue has handed out.
	queues []Queue
	made   int
}

// coef is one architecture's §4.2 execution-latency coefficients on one
// queue's processor.
type coef struct{ k, b time.Duration }

// NewNode returns the shared state of a node of nq queues, carving
// their tables out of one block each: prices is the node's store's
// switch-in price list, which also maps every expert to its
// architecture, and loaded is the node's pools' Loaded table.
func NewNode(nq int, prices *xfer.Prices, loaded memory.Residency) *Node {
	experts := prices.Experts()
	if nq < 1 || loaded.Experts() < experts {
		panic("sched: node tables incomplete")
	}
	return &Node{
		prices: prices,
		coef:   make([]coef, prices.Archs()*nq),
		loaded: loaded,
		cells:  make([]int32, experts*nq), nq: nq,
		queues: make([]Queue, nq),
	}
}

// NewQueue returns an empty queue of the node, in the next of its nq
// columns.
func (n *Node) NewQueue(env *sim.Env, name string, mode Mode, costs Costs) *Queue {
	col := n.made
	if col == n.nq {
		panic(fmt.Sprintf("sched: node has no room for queue %s beyond its %d", name, n.nq))
	}
	if len(costs.K) != len(costs.B) || len(costs.K)*n.nq < len(n.coef) || costs.Tier < 0 || costs.Tier >= memory.TierSSD {
		panic("sched: queue costs incomplete")
	}
	for a := col; a < len(n.coef); a += n.nq {
		n.coef[a] = coef{costs.K[a/n.nq], costs.B[a/n.nq]}
	}
	n.made++
	q := &n.queues[col]
	*q = Queue{
		mode: mode, tier: costs.Tier,
		slot: costs.Slot, col: int32(col),
		head: coe.NoExpert, tailID: coe.NoExpert,
		node: n, name: name, gate: sim.NewGate(env),
	}
	return q
}

// quote holds the terms every queue of a node shares when pricing one
// expert, read once per dispatch: its rows of coefficients, index cells
// and Loaded bits, and its switch-in latencies by tier.
type quote struct {
	id     coe.ExpertID
	coef   []coef
	cells  []int32
	loaded []uint64
	sw     *[memory.TierSSD]time.Duration
}

// read points the quote at the node's rows for the expert.
func (s *quote) read(n *Node, id coe.ExpertID) {
	i := int(id)
	a, sw := n.prices.Row(i)
	s.id, s.sw = id, sw
	s.coef, s.cells = n.coef[a*n.nq:(a+1)*n.nq], n.cells[i*n.nq:(i+1)*n.nq]
	s.loaded = n.loaded.Row(i)
}

// switchIn returns the expert's switch-in latency into the tier.
func (s *quote) switchIn(t memory.Tier) time.Duration { return s.sw[t] }

// Prediction is what a request for one expert adds to one queue
// (§4.2), as Predict or an Assigner prices it and Enqueue applies it:
// joining the expert's open group costs K; a fresh group costs Base + K,
// Base being B plus the expert's switch-in unless a group of the expert
// is queued or the queue's pool has it Loaded.
type Prediction struct {
	Base, K time.Duration
	// open is 1 + the slot of the group the request joins, or 0.
	open int32
}

// Add reports the latency the request adds to the queue.
func (p Prediction) Add() time.Duration { return p.Base + p.K }

// Group is a run of queued requests that use the same expert. Once an
// executor starts draining a group it is marked started; later arrivals
// for the same expert form a fresh group right behind it.
type Group struct {
	Expert *coe.Expert
	items  []*coe.Request
	// off is the drained prefix of items: TakeFromHead advances it
	// instead of re-slicing, so a recycled group keeps its full item
	// capacity.
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

// Queue is one executor's request queue: a list of groups, each a run
// of requests for one expert, drained from the head. A group belongs to
// the queue alone. The executor takes requests into a buffer of its own
// (TakeFromHead), so a group that drains or is purged is wiped and
// reused at once.
type Queue struct {
	// The fields a pick reads come first, side by side.
	busyUntil sim.Time
	pending   time.Duration // predicted cost of all unstarted groups
	mode      Mode
	// tier is the memory tier the queue's pool loads experts into.
	tier memory.Tier
	// slot is the queue's pool's slot in each Loaded row, and col the
	// queue's column in its node's other rows.
	slot memory.Slot
	col  int32
	// head is the expert of the started head group, NoExpert while the
	// head is unstarted or the queue empty. tail is 1 + the slot of the
	// tail group and tailID its expert while that group is unstarted — in
	// ModeFIFO, the one group a request merges into — and 0 and NoExpert
	// otherwise.
	head   coe.ExpertID
	tail   int32
	tailID coe.ExpertID

	node *Node
	name string
	gate *sim.Gate

	groups []*Group
	items  int

	// backlog is the owner's request counter this queue keeps current
	// (see CountInto); nil when the queue counts into nothing.
	backlog *Backlog

	// slots holds every Group object the queue owns, by Group.slot.
	slots []*Group

	// free holds wiped groups for newGroup to reuse, so a long stream
	// enqueues into a steady-state set of Group objects instead of
	// allocating one per fresh group.
	free []*Group
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

// cell returns the queue's index cell of the expert.
func (q *Queue) cell(e coe.ExpertID) *int32 {
	n := q.node
	return &n.cells[int(e)*n.nq+int(q.col)]
}

// Predict prices a request for the expert on this queue (§4.2; see
// Prediction): its Add is K when the request joins an existing group of
// the same expert; K + B for a fresh group; plus the expert switching
// latency, which is zero when the expert is resident or the queue
// already contains requests for it, and the predicted load latency
// otherwise.
func (q *Queue) Predict(e *coe.Expert) Prediction {
	var s quote
	s.read(q.node, e.ID)
	p, sw := q.predict(&s)
	if sw {
		p.Base += s.switchIn(q.tier)
	}
	return p
}

// predict is the one implementation of the §4.2 cost rules, on the
// quoted expert's shared terms. It leaves out the one term the queues
// share, the switch-in latency into the queue's tier, and reports
// whether Base needs it added.
func (q *Queue) predict(s *quote) (p Prediction, sw bool) {
	kb, c := s.coef[q.col], s.cells[q.col]
	if q.mode == ModeFIFO {
		if q.tailID == s.id {
			return Prediction{K: kb.k, open: q.tail}, false
		}
	} else if c > 0 {
		return Prediction{K: kb.k, open: c}, false
	}
	return Prediction{Base: kb.b, K: kb.k}, c == 0 && q.head != s.id && s.loaded[q.slot.Word]&q.slot.Mask == 0
}

// Enqueue adds the request for expert e as p prices it — the queue's
// Prediction of e, taken since the queue last changed — arranging per
// the queue mode, updates the pending prediction, and wakes the
// executor.
func (q *Queue) Enqueue(e *coe.Expert, r *coe.Request, p Prediction) {
	if p.open > 0 {
		g := q.slots[p.open-1]
		g.items = append(g.items, r)
	} else {
		g := q.newGroup()
		g.Expert, g.perItem, g.base = e, p.K, p.Base
		g.items = append(g.items, r)
		q.insertGroup(g)
		if c := q.cell(e.ID); q.mode == ModeGrouped {
			*c = g.slot + 1
		} else {
			*c++
		}
	}
	q.pending += p.Add()
	q.count(1)
	q.gate.Notify()
}

// newGroup pops a recycled group or allocates a fresh one. Recycled
// groups were wiped in recycle and keep their item capacity.
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

// recycle wipes a group that left the queue and pushes it on the free
// list, its item capacity kept.
func (q *Queue) recycle(g *Group) {
	clear(g.items)
	*g = Group{items: g.items[:0], slot: g.slot}
	q.free = append(q.free, g)
}

// insertGroup places a fresh group: normally at the tail, but a group
// whose expert matches the started head group slots in right behind it,
// so the already-loaded expert keeps serving ("arranged to follow
// existing requests utilizing the same expert").
func (q *Queue) insertGroup(g *Group) {
	if q.head == g.Expert.ID {
		q.groups = append(q.groups, nil)
		copy(q.groups[2:], q.groups[1:])
		q.groups[1] = g
	} else {
		q.groups = append(q.groups, g)
	}
	if q.groups[len(q.groups)-1] == g {
		q.tail, q.tailID = g.slot+1, g.Expert.ID
	}
}

// Head returns the head group without removing it, or nil when empty.
func (q *Queue) Head() *Group {
	if len(q.groups) == 0 {
		return nil
	}
	return q.groups[0]
}

// TakeFromHead marks the head group started (removing its prediction
// from pending — the executor now accounts for it via SetBusyUntil),
// moves up to n of its requests onto dst and returns the extended
// slice. A group the take drains leaves the queue and is recycled at
// once.
func (q *Queue) TakeFromHead(dst []*coe.Request, n int) []*coe.Request {
	if len(q.groups) == 0 || n < 1 {
		return dst
	}
	g := q.groups[0]
	if !g.started {
		g.started = true
		q.head = g.Expert.ID
		if q.mode == ModeGrouped {
			*q.cell(g.Expert.ID) = 0 // the open group is the only unstarted one
		}
		if len(q.groups) == 1 {
			q.tail, q.tailID = 0, coe.NoExpert // the tail is the head, started
		}
		q.pending -= g.base + g.perItem*time.Duration(g.Len())
	}
	if n > g.Len() {
		n = g.Len()
	}
	dst = append(dst, g.items[g.off:g.off+n]...)
	g.off += n
	q.count(-n)
	if g.Len() == 0 {
		if q.mode == ModeFIFO {
			*q.cell(g.Expert.ID)--
		}
		copy(q.groups, q.groups[1:])
		q.groups[len(q.groups)-1] = nil
		q.groups = q.groups[:len(q.groups)-1]
		q.head = coe.NoExpert // a group starts only when taken
		q.recycle(g)
	}
	return dst
}

// Purge removes every queued request — the started head group's
// undrained tail included — and returns them in queue order: the crash
// path, which voids a dead node's backlog so the dispatcher can
// redeliver it elsewhere. Every purged group is recycled; a batch taken
// before the crash lives in its executor's own buffer and is not
// touched.
func (q *Queue) Purge() []*coe.Request {
	if len(q.groups) == 0 {
		return nil
	}
	out := make([]*coe.Request, 0, q.items)
	for i, g := range q.groups {
		out = append(out, g.items[g.off:]...)
		q.recycle(g)
		q.groups[i] = nil
	}
	q.groups = q.groups[:0]
	q.count(-q.items)
	q.pending = 0
	n := q.node
	for i := int(q.col); i < len(n.cells); i += n.nq {
		n.cells[i] = 0
	}
	q.head, q.tail, q.tailID = coe.NoExpert, 0, coe.NoExpert
	return out
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
