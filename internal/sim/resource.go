package sim

import "time"

// Resource models a unit of physical capacity — a GPU compute engine, a
// PCIe bus, an SSD controller — that at most cap holders may hold
// simultaneously. Contending continuations queue in FIFO order, which
// keeps simulations deterministic.
type Resource struct {
	env   *Env
	name  string
	cap   int
	inUse int
	// waiters holds the continuations blocked in Acquire; woken holds
	// those Release has handed a retry event, in the order the events
	// fire, so the retry callback r.retryFn (bound on first use) needs
	// no closure.
	waiters, woken []func()
	retryFn        func()
	// free recycles the records of finished Use calls.
	free *use
}

// NewResource returns a resource with the given capacity (>= 1).
func NewResource(env *Env, name string, capacity int) *Resource {
	if capacity < 1 {
		panic("sim: resource capacity must be >= 1")
	}
	return &Resource{env: env, name: name, cap: capacity}
}

// Acquire takes a unit and reports true if one is free. Otherwise it
// parks k, which runs once a unit has been taken on its behalf, and
// reports false.
func (r *Resource) Acquire(k func()) bool {
	if r.TryAcquire() {
		return true
	}
	r.waiters = append(r.waiters, k)
	r.env.Park()
	return false
}

// TryAcquire takes a unit if one is free and reports whether it did.
func (r *Resource) TryAcquire() bool {
	if r.inUse >= r.cap {
		return false
	}
	r.inUse++
	return true
}

// Release returns a unit and schedules the first waiter, if any, to
// retry at the current instant. A unit freed in between may be taken by
// a newcomer first, in which case the waiter queues again at the back.
func (r *Resource) Release() {
	if r.inUse == 0 {
		panic("sim: released resource " + r.name + " with no unit held")
	}
	r.inUse--
	if len(r.waiters) > 0 {
		// Shift down instead of re-slicing forward: the buffer keeps its
		// front capacity, so the waiter queue stops allocating once it has
		// grown to the steady-state contention level.
		r.woken = append(r.woken, r.waiters[0])
		n := copy(r.waiters, r.waiters[1:])
		r.waiters[n] = nil
		r.waiters = r.waiters[:n]
		if r.retryFn == nil {
			r.retryFn = r.retry
		}
		r.env.Unpark(r.retryFn)
	}
}

// retry runs a woken waiter's acquisition.
func (r *Resource) retry() {
	k := r.woken[0]
	n := copy(r.woken, r.woken[1:])
	r.woken[n] = nil
	r.woken = r.woken[:n]
	if r.Acquire(k) {
		k()
	}
}

// use is one Use call in flight; fn is its continuation, bound once
// when the record is first allocated.
type use struct {
	r    *Resource
	d    time.Duration
	k    func()
	held bool // the unit is taken and the hold timer armed
	fn   func()
	next *use
}

// Use acquires a unit, holds it for virtual duration d, releases it, and
// then runs k. It is the common pattern for modeling an operation that
// occupies a physical unit; steady-state use allocates nothing.
func (r *Resource) Use(d time.Duration, k func()) {
	u := r.free
	if u != nil {
		r.free = u.next
	} else {
		u = &use{r: r}
		u.fn = u.step
	}
	u.d, u.k = d, k
	if r.Acquire(u.fn) {
		u.step()
	}
}

// step runs twice per use: once the unit is taken it arms the hold
// timer, and when the timer fires it releases the unit and runs k.
func (u *use) step() {
	r := u.r
	if !u.held {
		u.held = true
		r.env.After(u.d, u.fn)
		return
	}
	k := u.k
	u.held, u.k = false, nil
	u.next, r.free = r.free, u
	r.Release()
	k()
}
