// Package sim provides a deterministic discrete-event simulation kernel.
//
// The kernel drives a set of processes — ordinary Go functions running as
// coroutines (iter.Pull) — against a virtual clock. Exactly one process
// runs at a time; control is handed back to the kernel whenever a process
// blocks in Sleep, Wait, or Acquire. Events with equal timestamps fire in
// the order they were scheduled, so a simulation is fully deterministic
// given deterministic process code.
//
// The design follows the classic process-interaction style (as in SimPy):
// CoServe's executors, transfer buses, and controllers are written as
// straight-line Go code that sleeps for modeled durations and contends on
// Resources that model physical units (a GPU, a PCIe bus, an SSD).
//
// The event loop is the hottest path of every experiment, so it is kept
// allocation-lean: fired events are recycled on a per-environment free
// list, and the dominant event kinds — Sleep timeouts and unpark wake-ups
// — carry the *Proc to resume directly on the event instead of allocating
// a capturing closure. Pure-callback events (After, AfterFunc) take the
// other dispatch path and run inline on the kernel goroutine with no
// process handoff at all. A process handoff is a direct coroutine
// switch: no scheduler, no channel, no futex wake.
package sim

import (
	"fmt"
	"iter"
	"time"
)

// Time is a point in virtual time, measured in nanoseconds from the start
// of the simulation.
type Time int64

// Add returns the time d after t.
func (t Time) Add(d time.Duration) Time { return t + Time(d) }

// Sub returns the duration elapsed from u to t.
func (t Time) Sub(u Time) time.Duration { return time.Duration(t - u) }

// Seconds reports t as floating-point seconds.
func (t Time) Seconds() float64 { return float64(t) / 1e9 }

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

// event is a scheduled kernel action. Exactly one of fn, proc, and msg
// is set: fn is the callback fast path, run inline on the kernel
// goroutine; proc is the wake path, resuming a parked process; msg is
// the typed-message path (PostMsg) — like proc it allocates no closure,
// and the payload itself is poolable by the sender. Events are pooled
// on the environment's free list, so no field may be read after
// release.
type event struct {
	at    Time
	seq   int64
	fn    func()  // callback path (After, AfterFunc)
	proc  *Proc   // wake path (process start, Sleep, Unpark) — no closure allocated
	msg   Message // typed payload (PostMsg) — no closure allocated
	index int     // heap index; -1 once removed from the heap
	next  *event  // free-list link
}

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
	now        Time
	events     eventHeap
	seq        int64
	running    bool
	terminated bool
	nprocs     int

	// parkedHead/parkedTail form an intrusive doubly-linked list of
	// parked processes threaded through Proc.parkedPrev/parkedNext:
	// O(1) insert and remove with zero allocation per park.
	parkedHead, parkedTail *Proc

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
// it with the next sequence number, and pushes it on the heap.
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
	e.events.push(ev)
	return ev
}

// releaseEvent returns a fired or cancelled event to the free list. The
// sequence number is cleared so stale Timer handles cannot match it.
func (e *Env) releaseEvent(ev *event) {
	ev.fn, ev.proc, ev.msg = nil, nil, nil
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
// by (time, sequence) like After and Sleep.
func (e *Env) PostMsg(at Time, m Message) {
	e.newEvent(at).msg = m
}

// scheduleWake enqueues a closure-free wake-up of p at time at — the
// timer path behind Sleep and Unpark.
func (e *Env) scheduleWake(at Time, p *Proc) *event {
	ev := e.newEvent(at)
	ev.proc = p
	return ev
}

// After schedules fn to run after duration d. It is the callback-style
// counterpart to Proc.Sleep and may be called from process context or
// before Run. The callback runs inline on the kernel goroutine.
func (e *Env) After(d time.Duration, fn func()) {
	if d < 0 {
		panic("sim: negative delay")
	}
	e.schedule(e.now.Add(d), fn)
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
// immediately.
func (e *Env) Cancel(t Timer) bool {
	ev := t.ev
	if ev == nil {
		return false
	}
	if t.env != e {
		panic("sim: Cancel across environments")
	}
	if ev.seq != t.seq || ev.index < 0 || ev.index >= len(e.events) || e.events[ev.index] != ev {
		return false
	}
	e.events.remove(ev.index)
	e.releaseEvent(ev)
	return true
}

// popEvent removes and returns the earliest pending event.
func (e *Env) popEvent() *event {
	return e.events.remove(0)
}

// dispatch fires one popped event: wake events resume their process,
// message events deliver their typed payload, and callback events run
// inline with no process handoff. The event is recycled before firing
// so the handler can immediately reuse it.
func (e *Env) dispatch(ev *event) {
	e.now = ev.at
	if p := ev.proc; p != nil {
		e.releaseEvent(ev)
		e.wake(p)
		return
	}
	if m := ev.msg; m != nil {
		at := ev.at
		e.releaseEvent(ev)
		m.Deliver(at)
		return
	}
	fn := ev.fn
	e.releaseEvent(ev)
	fn()
}

// Run executes events until the queue is empty, then returns the final
// clock value. Processes still blocked when the queue drains are woken
// with a termination panic that the process wrapper absorbs, so Run
// leaves no coroutine behind. A panic in process code unwinds out of Run
// on the caller's goroutine with its original value.
func (e *Env) Run() Time {
	if e.running {
		panic("sim: Run called re-entrantly")
	}
	e.running = true
	for len(e.events) > 0 {
		e.dispatch(e.popEvent())
	}
	e.running = false
	e.drain()
	return e.now
}

// RunUntil executes events with timestamps <= deadline and then stops,
// leaving later events queued. It returns the clock value, which is
// deadline if any events remained.
func (e *Env) RunUntil(deadline Time) Time {
	if e.running {
		panic("sim: RunUntil called re-entrantly")
	}
	e.running = true
	for len(e.events) > 0 && e.events[0].at <= deadline {
		e.dispatch(e.popEvent())
	}
	e.running = false
	if len(e.events) > 0 && e.now < deadline {
		e.now = deadline
	}
	return e.now
}

// terminationSentinel unwinds a parked process when the simulation ends.
type terminationSentinel struct{}

// drain wakes every parked process with a termination panic so their
// coroutines finish. Called once the event queue is empty.
func (e *Env) drain() {
	e.terminated = true
	for e.parkedHead != nil {
		e.wake(e.parkedHead)
	}
}

// Terminated reports whether the environment has finished draining.
func (e *Env) Terminated() bool { return e.terminated }

// Reopen re-arms a drained environment for another round of processes:
// the virtual clock keeps its value, and Go and the blocking operations
// work again. It is the warm-restart hook for serving layers that run
// consecutive streams on one simulated system. Callers are responsible
// for having left no process parked on a Gate, Event, or Resource when
// the previous Run drained — a stale waiter from a killed process would
// corrupt the next round.
func (e *Env) Reopen() {
	if e.running {
		panic("sim: Reopen while running")
	}
	if !e.terminated {
		panic("sim: Reopen before Run drained")
	}
	e.terminated = false
}

// Procs reports the number of processes that have been started and have
// not yet finished.
func (e *Env) Procs() int { return e.nprocs }

// Proc is a simulation process: a coroutine that runs under the kernel's
// control. All blocking methods must be called from the process itself.
type Proc struct {
	env  *Env
	name string
	fn   func(*Proc) // the process body, until start hands it to the coroutine
	// next runs the process until it parks or finishes; yield, called
	// inside the process, returns control to the caller of next.
	next  func() (struct{}, bool)
	yield func(struct{}) bool

	// Intrusive parked-list links; owned by the environment.
	parkedPrev, parkedNext *Proc
	parked                 bool
}

// Name reports the process name given to Go.
func (p *Proc) Name() string { return p.name }

// Env returns the environment the process belongs to.
func (p *Proc) Env() *Env { return p.env }

// Now reports the current virtual time.
func (p *Proc) Now() Time { return p.env.now }

// Go starts fn as a new process at the current virtual time. The process
// begins executing when the kernel reaches its start event: its first,
// closure-free wake-up.
func (e *Env) Go(name string, fn func(*Proc)) *Proc {
	if e.terminated {
		panic("sim: Go after environment drained")
	}
	p := &Proc{env: e, name: name, fn: fn}
	e.nprocs++
	e.scheduleWake(e.now, p)
	return p
}

// start creates the process coroutine. A panic other than the
// termination sentinel passes through the coroutine and re-raises from
// next, in the kernel's caller.
func (e *Env) start(p *Proc) {
	fn := p.fn
	p.fn = nil
	p.next, _ = iter.Pull(func(yield func(struct{}) bool) {
		p.yield = yield
		defer func() {
			e.nprocs--
			if r := recover(); r != nil {
				if _, ok := r.(terminationSentinel); !ok {
					panic(r)
				}
			}
		}()
		fn(p)
	})
}

// pushParked appends p to the parked list.
func (e *Env) pushParked(p *Proc) {
	p.parked = true
	p.parkedPrev = e.parkedTail
	p.parkedNext = nil
	if e.parkedTail != nil {
		e.parkedTail.parkedNext = p
	} else {
		e.parkedHead = p
	}
	e.parkedTail = p
}

// removeParked unlinks p from the parked list; a no-op if p is not on it.
func (e *Env) removeParked(p *Proc) {
	if !p.parked {
		return
	}
	if p.parkedPrev != nil {
		p.parkedPrev.parkedNext = p.parkedNext
	} else {
		e.parkedHead = p.parkedNext
	}
	if p.parkedNext != nil {
		p.parkedNext.parkedPrev = p.parkedPrev
	} else {
		e.parkedTail = p.parkedPrev
	}
	p.parkedPrev, p.parkedNext = nil, nil
	p.parked = false
}

// wake resumes a process's coroutine, creating it on the first wake-up,
// and returns when the process parks again or finishes.
func (e *Env) wake(p *Proc) {
	e.removeParked(p)
	if p.next == nil {
		e.start(p)
	}
	p.next()
}

// park switches back to the kernel and returns when the process is
// woken. It panics with a termination sentinel if the environment
// drained while parked.
func (p *Proc) park() {
	p.env.pushParked(p)
	p.yield(struct{}{})
	if p.env.terminated {
		panic(terminationSentinel{})
	}
}

// unpark schedules p to resume at the current virtual time.
func (p *Proc) unpark() {
	p.env.removeParked(p)
	p.env.scheduleWake(p.env.now, p)
}

// Sleep blocks the process for virtual duration d. The wake-up is a
// pooled, closure-free timer event: steady-state sleeping allocates
// nothing.
func (p *Proc) Sleep(d time.Duration) {
	if d < 0 {
		panic("sim: negative sleep")
	}
	p.env.scheduleWake(p.env.now.Add(d), p)
	p.park()
}

// Yield lets every other runnable process scheduled at the current time
// run before p continues. Equivalent to Sleep(0) but states intent.
func (p *Proc) Yield() { p.Sleep(0) }

// Park blocks the process until some other component calls Unpark. It is
// a building block for synchronization primitives defined outside this
// package (for example, memory arenas with blocking reservations).
func (p *Proc) Park() { p.park() }

// Unpark schedules a parked process to resume at the current virtual
// time. Calling Unpark for a process that is not parked corrupts the
// kernel state; callers must pair it with Park.
func (p *Proc) Unpark() { p.unpark() }
