package sim

import (
	"fmt"
	"math"
	"slices"
	"time"
)

// Sharded is a conservatively synchronized composition of simulation
// environments: one coordinator partition (index 0) plus N worker
// partitions (indices 1..N), each a full *Env with its own clock, heap,
// and processes. The partitions exchange events only through PostMsg,
// and the kernel interleaves them under the classic conservative
// (CMB-style) contract:
//
//   - The coordinator runs one event at a time, and only when its next
//     event is no later than every worker partition's next event. While
//     it runs, every worker partition is strictly behind it, so the
//     coordinator may read worker-partition state directly and may post
//     events into worker partitions at any delay >= 0.
//   - Worker partitions run in rounds up to a shared exclusive window
//     bound W = min(coordinator next, workers' next + lookahead). Inside
//     a round a partition sees only its own state; anything it sends to
//     another partition must arrive at least lookahead after its local
//     now, which keeps the round's partitions causally independent and
//     makes the merge order below well defined.
//
// The partitions active in a round step one after another on the
// caller's goroutine, in ascending partition order. Cross-partition
// events posted during a round buffer in per-partition outboxes and
// merge after the round in (source partition, post order) order, each
// assigned the target's next sequence number in that order. Targets
// order events by (time, sequence), so the posts run in (time, source
// partition, post order) order — the event order every pinned output
// depends on.
//
// The rounds could run in parallel, but on every workload the
// repository ships they would not pay: Stats counts the rounds and
// Bound turns the counts into the most any number of workers could
// gain, and that bound stays at or below 1.07 (see README).
//
// The hot path: worker frontiers (each partition's earliest pending
// timestamp) live in an indexed min-heap that Env.newEvent/Env.Cancel
// keep incrementally dirty-marked, so neither the coordinator/round
// decision nor the round's active-set collection rescans all
// partitions; the coordinator batch-steps every event up to the
// (unchanged) worker frontier in one loop pass; and cross-partition
// payloads are typed, pooled Messages (PostMsg) instead of
// heap-allocated closures. None of it changes which event runs when.
type Sharded struct {
	parts     []*Env
	lookahead Time

	nodePhase bool  // set for the duration of a worker-partition round
	active    []int // scratch: partition indices running this round
	stats     ShardStats

	// The frontier index: fkey[p] is worker partition p's earliest
	// pending timestamp (maxTime when empty), fheap an indexed binary
	// min-heap over partitions 1..N with fpos the position of each
	// partition inside it. Keys go stale only for partitions flagged in
	// dirty — marked by the newEvent/Cancel hooks outside rounds and
	// after each round for the partitions that just ran — and Run
	// refreshes exactly those at the top of each pass.
	fkey    []Time
	fheap   []int
	fpos    []int
	fstack  []int // scratch: heap-DFS stack for active-set collection
	dirty   []int
	isDirty []bool
}

// ShardStats counts what a Sharded kernel did since it was built:
// events and rounds, never wall time, so the counts are deterministic
// and can be pinned like any other output.
type ShardStats struct {
	Rounds      int64 // worker-partition rounds
	Active      int64 // partitions active, summed over rounds
	RoundEvents int64 // events fired inside rounds
	CoordEvents int64 // events fired by the coordinator
	CritEvents  int64 // the busiest partition's events, summed over rounds
	Posts       int64 // PostMsg calls
}

// Bound is the critical-path speedup bound: total events over the
// events no parallel schedule can overlap — every coordinator event
// plus each round's busiest partition. Running the rounds on any number
// of workers, at zero synchronization cost, gains at most this factor
// (1 when nothing ran).
func (st ShardStats) Bound() float64 {
	crit := st.CoordEvents + st.CritEvents
	if crit == 0 {
		return 1
	}
	return float64(st.CoordEvents+st.RoundEvents) / float64(crit)
}

// maxTime is the frontier key of an empty partition.
const maxTime = Time(math.MaxInt64)

// Message is a typed cross-partition event payload: Deliver runs in the
// target partition at the scheduled instant, with at the event's
// timestamp (== the target's Now). The indirection exists for pooling:
// a protocol can recycle its message structs on a free list, making
// steady-state cross-partition traffic allocation-free where closures
// cannot be.
type Message interface {
	Deliver(at Time)
}

// outPost is one cross-partition event buffered in a partition outbox.
type outPost struct {
	target int
	at     Time
	msg    Message
}

// NewSharded builds a sharded kernel with nparts partitions (partition
// 0 is the coordinator) synchronized under the given lookahead.
func NewSharded(nparts int, lookahead time.Duration) *Sharded {
	if nparts < 2 {
		panic("sim: NewSharded needs a coordinator plus at least one worker partition")
	}
	if lookahead <= 0 {
		panic("sim: NewSharded needs a positive lookahead")
	}
	s := &Sharded{lookahead: Time(lookahead)}
	s.parts = make([]*Env, nparts)
	for i := range s.parts {
		e := NewEnv()
		e.shard, e.shardIdx = s, i
		s.parts[i] = e
	}
	s.fkey = make([]Time, nparts)
	s.fheap = make([]int, nparts-1)
	s.fpos = make([]int, nparts)
	s.isDirty = make([]bool, nparts)
	for p := 1; p < nparts; p++ {
		s.fkey[p] = maxTime
		s.fheap[p-1] = p
		s.fpos[p] = p - 1
	}
	return s
}

// Part returns partition i's environment. Partition 0 is the
// coordinator.
func (s *Sharded) Part(i int) *Env { return s.parts[i] }

// Parts reports the partition count, coordinator included.
func (s *Sharded) Parts() int { return len(s.parts) }

// Lookahead reports the conservative synchronization horizon.
func (s *Sharded) Lookahead() time.Duration { return time.Duration(s.lookahead) }

// Stats reports the kernel's counters, accumulated over every Run since
// NewSharded.
func (s *Sharded) Stats() ShardStats { return s.stats }

// PostMsg schedules m.Deliver(at) at time at in partition target, from
// code running in partition from. From the coordinator (or between
// rounds) the event is inserted directly — the target partition is
// provably at an earlier clock, so any at >= the poster's now is legal.
// From a worker partition inside a round the event buffers in the
// partition's outbox and must respect the lookahead contract: at >=
// from.Now() + lookahead. The post allocates nothing.
func (s *Sharded) PostMsg(from *Env, target int, at Time, m Message) {
	s.stats.Posts++
	if s.buffered(from, at) {
		from.outbox = append(from.outbox, outPost{target: target, at: at, msg: m})
		return
	}
	s.parts[target].scheduleMsg(at, m)
}

// buffered decides the path of one post from the given environment:
// true means the caller must buffer in the outbox (worker partition,
// mid-round — the lookahead contract was just checked), false means
// direct insertion into the target is legal.
func (s *Sharded) buffered(from *Env, at Time) bool {
	if from.shard != s {
		panic("sim: PostMsg from an environment outside this Sharded kernel")
	}
	if !s.nodePhase || from.shardIdx == 0 {
		return false
	}
	if at < from.now+s.lookahead {
		panic(fmt.Sprintf("sim: cross-partition post at %v violates lookahead (now %v + %v)",
			at, from.now, time.Duration(s.lookahead)))
	}
	return true
}

// Run executes all partitions to completion and returns the
// coordinator's final clock value. Like Env.Run it drains every
// partition afterwards, so no process coroutines are left behind. A
// panic in process code leaves Run with its original value, whichever
// partition raised it.
func (s *Sharded) Run() Time {
	for _, e := range s.parts {
		if e.running {
			panic("sim: Run called re-entrantly")
		}
		e.running = true
	}
	coord := s.parts[0]
	for {
		s.flushDirty()
		tn := s.fkey[s.fheap[0]] // min worker frontier; maxTime when all empty
		tc, cok := coord.peekNext()
		switch {
		case !cok && tn == maxTime:
			for _, e := range s.parts {
				e.running = false
			}
			for _, e := range s.parts {
				e.drain()
			}
			return coord.now
		case cok && tc <= tn:
			// Coordinator phase: every worker partition's clock is behind
			// tc and holds no event earlier than tc, so these events may
			// read worker state and post into workers freely. Batch-step:
			// the guard "next <= min worker frontier" is re-evaluated
			// after every event against an incrementally refreshed bound
			// (a post or cancel that moved a frontier lands in the dirty
			// set; flushing it re-sifts exactly those keys), so the batch
			// makes the same decisions per-event rescanning would.
			for {
				coord.step()
				s.stats.CoordEvents++
				if len(s.dirty) > 0 {
					s.flushDirty()
					tn = s.fkey[s.fheap[0]]
				}
				if len(coord.events) == 0 || coord.events[0].at > tn {
					break
				}
			}
		default:
			w := tn + s.lookahead
			if cok && tc < w {
				w = tc
			}
			s.runRound(w)
		}
	}
}

// runRound executes every worker partition with an event before w up to
// (exclusive) w, one after another in ascending partition order, then
// merges the round's cross-partition posts.
func (s *Sharded) runRound(w Time) {
	s.collectActive(w)
	s.nodePhase = true
	var crit int64
	for _, p := range s.active {
		n := s.parts[p].runBefore(w)
		s.stats.RoundEvents += n
		crit = max(crit, n)
	}
	s.nodePhase = false
	s.stats.Rounds++
	s.stats.Active += int64(len(s.active))
	s.stats.CritEvents += crit
	for _, p := range s.active {
		// The frontier hooks are off during a round; refresh exactly the
		// partitions that ran.
		s.markDirty(p)
	}
	s.merge()
}

// collectActive gathers the worker partitions with an event before w
// into s.active, ascending. The frontier heap bounds the walk: a heap
// node with key >= w has no descendant below w, so the DFS visits only
// active partitions plus their immediate fringe instead of all N. The
// ascending sort is load-bearing: merge drains the outboxes in this
// order, which is the same-instant tie order of cross-partition posts.
func (s *Sharded) collectActive(w Time) {
	s.active = s.active[:0]
	s.fstack = append(s.fstack[:0], 0)
	for len(s.fstack) > 0 {
		i := s.fstack[len(s.fstack)-1]
		s.fstack = s.fstack[:len(s.fstack)-1]
		p := s.fheap[i]
		if s.fkey[p] >= w {
			continue
		}
		s.active = append(s.active, p)
		if l := 2*i + 1; l < len(s.fheap) {
			s.fstack = append(s.fstack, l)
			if r := l + 1; r < len(s.fheap) {
				s.fstack = append(s.fstack, r)
			}
		}
	}
	slices.Sort(s.active)
}

// merge drains the round's outboxes into their target partitions, in
// ascending source partition and each in post order. No sort by time is
// needed: a target heap orders by (time, sequence), so only the order of
// posts for the same instant matters, and this drain order sets it.
func (s *Sharded) merge() {
	for _, i := range s.active {
		e := s.parts[i]
		for j := range e.outbox {
			p := &e.outbox[j]
			s.parts[p.target].scheduleMsg(p.at, p.msg)
			p.msg = nil
		}
		e.outbox = e.outbox[:0]
	}
}

// frontierChanged is the Env hook: partition e's earliest pending event
// changed (a push that became the new head, or the head cancelled).
// During a round only the running partition's own heap churns, and the
// hook is a no-op — runRound marks the partitions that ran instead.
func (s *Sharded) frontierChanged(e *Env) {
	if s.nodePhase || e.shardIdx == 0 {
		return
	}
	s.markDirty(e.shardIdx)
}

// markDirty flags worker partition p's frontier key as stale.
func (s *Sharded) markDirty(p int) {
	if s.isDirty[p] {
		return
	}
	s.isDirty[p] = true
	s.dirty = append(s.dirty, p)
}

// flushDirty refreshes every stale frontier key from its partition's
// heap and restores the min-heap invariant around it.
func (s *Sharded) flushDirty() {
	for _, p := range s.dirty {
		s.isDirty[p] = false
		t := maxTime
		if ev := s.parts[p].events; len(ev) > 0 {
			t = ev[0].at
		}
		s.setKey(p, t)
	}
	s.dirty = s.dirty[:0]
}

// setKey updates partition p's frontier key and sifts it to its place.
func (s *Sharded) setKey(p int, t Time) {
	old := s.fkey[p]
	if old == t {
		return
	}
	s.fkey[p] = t
	if t < old {
		s.siftUp(s.fpos[p])
	} else {
		s.siftDown(s.fpos[p])
	}
}

// fless orders heap slots by (key, partition) — the partition tiebreak
// is not semantically needed (ties are resolved by the round window),
// but keeps the heap layout itself deterministic.
func (s *Sharded) fless(a, b int) bool {
	if s.fkey[a] != s.fkey[b] {
		return s.fkey[a] < s.fkey[b]
	}
	return a < b
}

func (s *Sharded) fswap(i, j int) {
	h := s.fheap
	h[i], h[j] = h[j], h[i]
	s.fpos[h[i]] = i
	s.fpos[h[j]] = j
}

func (s *Sharded) siftUp(i int) {
	h := s.fheap
	for i > 0 {
		parent := (i - 1) / 2
		if !s.fless(h[i], h[parent]) {
			return
		}
		s.fswap(i, parent)
		i = parent
	}
}

func (s *Sharded) siftDown(i int) {
	h := s.fheap
	n := len(h)
	for {
		l := 2*i + 1
		if l >= n {
			return
		}
		m := l
		if r := l + 1; r < n && s.fless(h[r], h[l]) {
			m = r
		}
		if !s.fless(h[m], h[i]) {
			return
		}
		s.fswap(i, m)
		i = m
	}
}

// Reopen re-arms every drained partition for another round of
// processes — the warm-restart hook, mirroring Env.Reopen.
func (s *Sharded) Reopen() {
	for _, e := range s.parts {
		e.Reopen()
	}
}

// peekNext reports the timestamp of e's earliest pending event.
func (e *Env) peekNext() (Time, bool) {
	if len(e.events) == 0 {
		return 0, false
	}
	return e.events[0].at, true
}

// step fires e's earliest pending event. The caller guarantees the heap
// is non-empty.
func (e *Env) step() {
	e.dispatch(e.popEvent())
}

// runBefore fires every pending event with a timestamp strictly before
// w, leaving later events queued and the clock at the last fired event,
// and reports how many it fired.
func (e *Env) runBefore(w Time) int64 {
	var n int64
	for len(e.events) > 0 && e.events[0].at < w {
		e.dispatch(e.popEvent())
		n++
	}
	return n
}
