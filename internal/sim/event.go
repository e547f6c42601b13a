package sim

// Event is a one-shot broadcast signal. Processes block on Wait until
// some other process (or callback) calls Fire; waiters are released in
// the order they arrived. Waiting on an already-fired event returns
// immediately, so Event is safe for completion notifications.
type Event struct {
	env     *Env
	fired   bool
	waiters []*Proc
}

// NewEvent returns an unfired event bound to env.
func NewEvent(env *Env) *Event {
	return &Event{env: env}
}

// Fired reports whether Fire has been called.
func (ev *Event) Fired() bool { return ev.fired }

// Fire marks the event fired and wakes all current waiters in FIFO
// order. Firing twice is a no-op.
func (ev *Event) Fire() {
	if ev.fired {
		return
	}
	ev.fired = true
	for _, p := range ev.waiters {
		p.unpark()
	}
	ev.waiters = nil
}

// Wait blocks p until the event fires. Returns immediately if it already
// has.
func (ev *Event) Wait(p *Proc) {
	if ev.env != p.env {
		panic("sim: Wait across environments")
	}
	if ev.fired {
		return
	}
	ev.waiters = append(ev.waiters, p)
	p.park()
}

// Gate is a reusable wake-up signal: Notify releases everyone currently
// waiting, and later waiters block until the next Notify. It is the
// building block for producer/consumer queues (an executor waits on its
// queue's gate; the controller notifies after enqueueing work).
type Gate struct {
	env     *Env
	waiters []*Proc
	// spare is the previous waiter buffer, swapped back in on Notify so
	// the notify-wait cycle reuses capacity instead of reallocating.
	spare []*Proc
}

// NewGate returns a gate bound to env.
func NewGate(env *Env) *Gate {
	return &Gate{env: env}
}

// Notify wakes all processes currently blocked in Wait, in FIFO order.
// Processes that call Wait after Notify block until the next Notify.
func (g *Gate) Notify() {
	waiters := g.waiters
	g.waiters = g.spare[:0]
	for i, p := range waiters {
		p.unpark()
		waiters[i] = nil
	}
	g.spare = waiters[:0]
}

// Wait blocks p until the next Notify.
func (g *Gate) Wait(p *Proc) {
	if g.env != p.env {
		panic("sim: Wait across environments")
	}
	g.waiters = append(g.waiters, p)
	p.park()
}
