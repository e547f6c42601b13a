package sim

// Event is a one-shot broadcast signal. Continuations wait on it until
// some event code calls Fire; waiters are released in the order they
// arrived. Waiting on an already-fired event does not park, so Event is
// safe for completion notifications.
type Event struct {
	env     *Env
	fired   bool
	waiters []func()
}

// NewEvent returns an unfired event bound to env.
func NewEvent(env *Env) *Event {
	return &Event{env: env}
}

// Fire marks the event fired and schedules every waiter at the current
// instant, in FIFO order. Firing twice is a no-op.
func (ev *Event) Fire() {
	if ev.fired {
		return
	}
	ev.fired = true
	for _, k := range ev.waiters {
		ev.env.Unpark(k)
	}
	ev.waiters = nil
}

// Wait reports true if the event has already fired. Otherwise it parks
// k, which runs once the event fires, and reports false.
func (ev *Event) Wait(k func()) bool {
	if ev.fired {
		return true
	}
	ev.waiters = append(ev.waiters, k)
	ev.env.Park()
	return false
}

// Gate is a reusable wake-up signal: Notify releases everyone currently
// waiting, and later waiters park until the next Notify. It is the
// building block for producer/consumer queues (an executor waits on its
// queue's gate; the controller notifies after enqueueing work).
type Gate struct {
	env     *Env
	waiters []func()
	// spare is the previous waiter buffer, swapped back in on Notify so
	// the notify-wait cycle reuses capacity instead of reallocating.
	spare []func()
}

// NewGate returns a gate bound to env.
func NewGate(env *Env) *Gate {
	return &Gate{env: env}
}

// Notify schedules every continuation currently waiting, in FIFO order,
// at the current instant. Continuations that wait after Notify park
// until the next Notify.
func (g *Gate) Notify() {
	waiters := g.waiters
	g.waiters = g.spare[:0]
	for i, k := range waiters {
		g.env.Unpark(k)
		waiters[i] = nil
	}
	g.spare = waiters[:0]
}

// Wait parks k until the next Notify.
func (g *Gate) Wait(k func()) {
	g.waiters = append(g.waiters, k)
	g.env.Park()
}
