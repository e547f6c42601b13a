// Package sim provides a deterministic discrete-event simulation kernel.
//
// The kernel is an event loop over a virtual clock. Everything that
// happens in a simulation is an event: a callback (After, AfterFunc) or
// a typed message (PostMsg), popped in (time, sequence) order, so events
// with equal timestamps fire in the order they were scheduled and a
// simulation is fully deterministic given deterministic event code.
//
// CoServe's executors, transfer engines and controllers are state
// machines on this loop. A component that must wait — a modeled
// duration, a Resource unit (a GPU, a PCIe bus, an SSD), arena space, a
// Gate or an Event — hands the primitive a continuation, usually a
// method value bound once, and returns. The primitive parks it in a
// FIFO waiter list (Env.Park) and schedules it at the releasing instant
// (Env.Unpark). A continuation still parked when Run returns will never
// run: Env.Drained reports it.
//
// The event loop is the hottest path of every experiment: fired events
// are recycled on a per-environment free list, so steady-state
// scheduling allocates nothing, and an event scheduled for the current
// instant (an unparked continuation, After(0)) joins a FIFO lane instead
// of the heap.
package sim

import (
	"fmt"
	"time"
)

// Time is a point in virtual time, measured in nanoseconds from the start
// of the simulation.
type Time int64

// Add returns the time d after t.
func (t Time) Add(d time.Duration) Time { return t + Time(d) }

// Sub returns the duration elapsed from u to t.
func (t Time) Sub(u Time) time.Duration { return time.Duration(t - u) }

// Duration converts t to a time.Duration since simulation start.
func (t Time) Duration() time.Duration { return time.Duration(t) }

func (t Time) String() string { return time.Duration(t).String() }

// Message is a typed event payload: Deliver runs at the instant it was
// posted for (PostMsg), with at the event's timestamp (== Env.Now). The
// indirection exists for pooling: a protocol can recycle its message
// structs on a free list, making steady-state message traffic
// allocation-free where closures cannot be.
type Message interface {
	Deliver(at Time)
}

// event is a scheduled kernel action. Exactly one of fn and msg is set:
// fn is the callback path (After, AfterFunc, Unpark), msg the
// typed-message path (PostMsg), whose payload the sender can pool.
// Events are pooled on the environment's free list, so no field may be
// read after release.
type event struct {
	at    Time
	seq   int64
	fn    func()
	msg   Message
	index int    // heap index; inLane in the lane; -1 once removed
	next  *event // free-list link
}

// inLane is the index of an event waiting in the lane of events due now.
const inLane = -2

// eventHeap is a binary min-heap of events ordered by (time, sequence),
// a total order, so the pop sequence is fixed whatever the heap's shape.
// Every move keeps the event's cached index in sync so Env.Cancel can
// remove an event by index at any time.
type eventHeap []*event

func (h eventHeap) less(a, b *event) bool {
	return a.at < b.at || a.at == b.at && a.seq < b.seq
}

// push adds ev.
func (h *eventHeap) push(ev *event) {
	*h = append(*h, ev)
	h.up(len(*h) - 1)
}

// remove takes the event at index i out of the heap (remove(0) pops the
// earliest) and clears its index: a stale index would let a later
// Cancel corrupt the heap by removing whatever event now sits there.
func (h *eventHeap) remove(i int) *event {
	old, n := *h, len(*h)-1
	ev := old[i]
	old[i], old[n] = old[n], nil
	*h = old[:n]
	if i < n && !h.down(i) {
		h.up(i)
	}
	ev.index = -1
	return ev
}

// up moves the event at i toward the root until its parent is earlier.
func (h eventHeap) up(i int) {
	ev := h[i]
	for ; i > 0 && h.less(ev, h[(i-1)/2]); i = (i - 1) / 2 {
		h[i] = h[(i-1)/2]
		h[i].index = i
	}
	h[i] = ev
	ev.index = i
}

// down moves the event at i toward the leaves until both children are
// later and reports whether it moved.
func (h eventHeap) down(i int) bool {
	ev, i0 := h[i], i
	for c := 2*i + 1; c < len(h); c = 2*i + 1 {
		if c+1 < len(h) && h.less(h[c+1], h[c]) {
			c++
		}
		if !h.less(h[c], ev) {
			break
		}
		h[i] = h[c]
		h[i].index = i
		i = c
	}
	h[i] = ev
	ev.index = i
	return i > i0
}

// Env is a simulation environment: a virtual clock plus an event queue.
// The zero value is not usable; create environments with NewEnv.
type Env struct {
	now     Time
	events  eventHeap
	seq     int64
	running bool

	// lane holds the events scheduled for the instant they were
	// scheduled at, in sequence order from lane[head], and is emptied
	// to lane[:0] once head reaches its end. Every one was scheduled
	// after the heap's events due now, so the loop pops those first,
	// then the lane, and advances the clock only once both are done:
	// the heap's (time, sequence) order without sifting about one event
	// per request through the heap.
	lane []*event
	head int

	parked int // continuations in waiter lists: Park minus Unpark
	// callbacks and messages count dispatched events by kind.
	callbacks, messages int64

	// free is the event free list; fired and cancelled events are
	// recycled here so steady-state scheduling allocates nothing.
	free *event
}

// NewEnv returns an empty environment with the clock at zero.
func NewEnv() *Env {
	return &Env{}
}

// Now reports the current virtual time.
func (e *Env) Now() Time { return e.now }

// newEvent takes an event from the free list (or allocates one), stamps
// it with the next sequence number, and queues it: in the lane if it is
// due now, else on the heap.
func (e *Env) newEvent(at Time) *event {
	if at < e.now {
		panic(fmt.Sprintf("sim: scheduling event in the past (%v < %v)", at, e.now))
	}
	e.seq++
	ev := e.free
	if ev != nil {
		e.free = ev.next
		ev.next = nil
	} else {
		ev = &event{}
	}
	ev.at, ev.seq = at, e.seq
	if at == e.now {
		e.pushLane(ev)
	} else {
		e.events.push(ev)
	}
	return ev
}

// pushLane appends ev to the lane. A full buffer whose popped front is
// at least half of it slides the live events down instead of growing,
// so a lane that never drains within an instant stays bounded by its
// live events. It is kept out of line: inlined, its append and copy
// made newEvent's heap path about a tenth slower in BenchmarkSimKernel.
//
//go:noinline
func (e *Env) pushLane(ev *event) {
	if len(e.lane) == cap(e.lane) && e.head > 0 && 2*e.head >= len(e.lane) {
		n := copy(e.lane, e.lane[e.head:])
		clear(e.lane[n:])
		e.lane, e.head = e.lane[:n], 0
	}
	ev.index = inLane
	e.lane = append(e.lane, ev)
}

// dispatchLane pops the lane's first event and fires it, or frees it if
// its timer was cancelled.
func (e *Env) dispatchLane() {
	ev := e.lane[e.head]
	e.lane[e.head] = nil
	if e.head++; e.head == len(e.lane) {
		e.lane, e.head = e.lane[:0], 0
	}
	if ev.seq == 0 {
		e.releaseEvent(ev)
		return
	}
	e.dispatch(ev)
}

// releaseEvent returns a fired or cancelled event to the free list. The
// sequence number is cleared so stale Timer handles cannot match it.
func (e *Env) releaseEvent(ev *event) {
	ev.fn, ev.msg = nil, nil
	ev.seq = 0
	ev.index = -1
	ev.next = e.free
	e.free = ev
}

// schedule enqueues fn to run at time at.
func (e *Env) schedule(at Time, fn func()) *event {
	ev := e.newEvent(at)
	ev.fn = fn
	return ev
}

// PostMsg schedules m.Deliver(at) at time at, which must not be before
// Now. It is the closure-free path timed protocols ride on: the post
// allocates nothing, and the message orders against every other event
// by (time, sequence) like After.
func (e *Env) PostMsg(at Time, m Message) {
	e.newEvent(at).msg = m
}

// After schedules fn to run after duration d. After(0, fn) runs fn at
// the current instant, after every event already due now. Scheduling a
// method value bound once, rather than a fresh closure, keeps a
// recurring step allocation-free.
func (e *Env) After(d time.Duration, fn func()) {
	if d < 0 {
		panic("sim: negative delay")
	}
	e.schedule(e.now.Add(d), fn)
}

// Every calls tick every d of virtual time until it reports false. The
// first wait starts in a callback scheduled at the current instant,
// after the events already due now, as a loop that waits d before each
// tick would.
func (e *Env) Every(d time.Duration, tick func() bool) {
	var step func()
	step = func() {
		if tick() {
			e.After(d, step)
		}
	}
	e.After(0, func() { e.After(d, step) })
}

// Timer is a handle to a callback scheduled with AfterFunc. Its zero
// value is an expired handle.
type Timer struct {
	env *Env
	ev  *event
	seq int64 // generation guard: events are pooled and reused
}

// AfterFunc schedules fn to run after duration d, like After, and
// returns a Timer that can revoke the callback via Env.Cancel.
func (e *Env) AfterFunc(d time.Duration, fn func()) Timer {
	if d < 0 {
		panic("sim: negative delay")
	}
	ev := e.schedule(e.now.Add(d), fn)
	return Timer{env: e, ev: ev, seq: ev.seq}
}

// Cancel revokes a pending timer and reports whether it did: false means
// the callback already ran, was already cancelled, or the handle is zero.
// Cancelling a timer on an environment it does not belong to panics,
// like every other cross-environment operation. Cancelling is O(log n) —
// the event is removed from the heap by its cached index and recycled
// immediately — or O(1) for a timer due now: its event is marked and
// recycled when the lane reaches it.
func (e *Env) Cancel(t Timer) bool {
	ev := t.ev
	if ev == nil {
		return false
	}
	if t.env != e {
		panic("sim: Cancel across environments")
	}
	if ev.seq != t.seq {
		return false
	}
	if ev.index == inLane {
		ev.fn, ev.seq = nil, 0
		return true
	}
	if ev.index < 0 || ev.index >= len(e.events) || e.events[ev.index] != ev {
		return false
	}
	e.events.remove(ev.index)
	e.releaseEvent(ev)
	return true
}

// Park records that a continuation has entered a primitive's waiter
// list; the Unpark that schedules it pairs with it.
func (e *Env) Park() { e.parked++ }

// Unpark schedules a parked continuation k at the current instant,
// after every event already due now.
func (e *Env) Unpark(k func()) {
	e.parked--
	e.schedule(e.now, k)
}

// Drained is the drain invariant of a finished run: it reports an error
// when Run returned with continuations still parked — a resource unit,
// arena bytes or a load never handed back, or a gate never notified.
func (e *Env) Drained() error {
	if e.parked > 0 {
		return fmt.Errorf("sim: drained with %d continuations still parked on a resource, arena, gate or load", e.parked)
	}
	return nil
}

// Dispatched reports the events fired so far, by kind: callbacks
// (After, AfterFunc, Unpark) and messages (PostMsg).
//
//detlint:allow unused the event-count pins of core and cluster read it; no other observable counts kernel events
func (e *Env) Dispatched() (callbacks, messages int64) {
	return e.callbacks, e.messages
}

// dispatch fires one popped event. The event is recycled before firing
// so the handler can immediately reuse it.
func (e *Env) dispatch(ev *event) {
	e.now = ev.at
	if m := ev.msg; m != nil {
		at := ev.at
		e.releaseEvent(ev)
		e.messages++
		m.Deliver(at)
		return
	}
	fn := ev.fn
	e.releaseEvent(ev)
	e.callbacks++
	fn()
}

// Run executes events until the queue is empty, then returns the final
// clock value. A later Run continues from that clock, so one environment
// can serve consecutive streams. A panic in event code unwinds out of
// Run with its original value.
func (e *Env) Run() Time {
	if e.running {
		panic("sim: Run called re-entrantly")
	}
	e.running = true
	defer func() { e.running = false }()
	for {
		if h := e.events; len(h) > 0 && (len(e.lane) == 0 || h[0].at == e.now) {
			e.dispatch(e.events.remove(0))
		} else if len(e.lane) > 0 {
			e.dispatchLane()
		} else {
			return e.now
		}
	}
}

// RunUntil executes events with timestamps <= deadline and then stops,
// leaving later events queued. It returns the clock value, which is
// deadline if any events remained.
//
//detlint:allow unused BenchmarkTimerChurn (gated in BENCH_kernel.json) steps the heap at depth with it
func (e *Env) RunUntil(deadline Time) Time {
	if e.running {
		panic("sim: RunUntil called re-entrantly")
	}
	e.running = true
	defer func() { e.running = false }()
	for {
		if h := e.events; len(h) > 0 && h[0].at <= deadline && (len(e.lane) == 0 || h[0].at == e.now) {
			e.dispatch(e.events.remove(0))
		} else if len(e.lane) > 0 && e.now <= deadline {
			e.dispatchLane()
		} else {
			break
		}
	}
	if len(e.events) > 0 && e.now < deadline {
		e.now = deadline
	}
	return e.now
}
