package sim

import "time"

// holder records one process's claim on a resource unit and when it took
// it. Holders live in a small slice instead of a map: capacities are tiny
// (usually 1), so a linear scan beats hashing on the acquire/release hot
// path and allocates nothing in steady state.
type holder struct {
	p     *Proc
	since Time
}

// Resource models a unit of physical capacity — a GPU compute engine, a
// PCIe bus, an SSD controller — that at most cap processes may hold
// simultaneously. Contending processes queue in FIFO order, which keeps
// simulations deterministic.
type Resource struct {
	env     *Env
	name    string
	cap     int
	holders []holder
	waiters []*Proc

	// accounting
	busy time.Duration // cumulative held time x units
}

// NewResource returns a resource with the given capacity (>= 1).
func NewResource(env *Env, name string, capacity int) *Resource {
	if capacity < 1 {
		panic("sim: resource capacity must be >= 1")
	}
	return &Resource{
		env:     env,
		name:    name,
		cap:     capacity,
		holders: make([]holder, 0, capacity),
	}
}

// Name reports the resource name.
func (r *Resource) Name() string { return r.name }

// InUse reports the number of units currently held.
func (r *Resource) InUse() int { return len(r.holders) }

// holderIndex returns the index of p's claim, or -1.
func (r *Resource) holderIndex(p *Proc) int {
	for i := range r.holders {
		if r.holders[i].p == p {
			return i
		}
	}
	return -1
}

// Acquire blocks p until a unit is free, then takes it. A process must
// not acquire the same resource twice without releasing.
func (r *Resource) Acquire(p *Proc) {
	if p.env != r.env {
		panic("sim: Acquire across environments")
	}
	if r.holderIndex(p) >= 0 {
		panic("sim: " + p.name + " re-acquired resource " + r.name)
	}
	for len(r.holders) >= r.cap {
		r.waiters = append(r.waiters, p)
		p.park()
	}
	r.holders = append(r.holders, holder{p: p, since: r.env.now})
}

// TryAcquire takes a unit if one is free and reports whether it did.
func (r *Resource) TryAcquire(p *Proc) bool {
	if len(r.holders) >= r.cap {
		return false
	}
	r.holders = append(r.holders, holder{p: p, since: r.env.now})
	return true
}

// Release returns p's unit and wakes the first waiter, if any.
func (r *Resource) Release(p *Proc) {
	i := r.holderIndex(p)
	if i < 0 {
		panic("sim: " + p.name + " released resource " + r.name + " it does not hold")
	}
	r.busy += r.env.now.Sub(r.holders[i].since)
	last := len(r.holders) - 1
	r.holders[i] = r.holders[last]
	r.holders[last] = holder{}
	r.holders = r.holders[:last]
	if len(r.waiters) > 0 {
		next := r.waiters[0]
		// Shift down instead of re-slicing forward: the buffer keeps its
		// front capacity, so the waiter queue stops allocating once it has
		// grown to the steady-state contention level.
		copy(r.waiters, r.waiters[1:])
		r.waiters[len(r.waiters)-1] = nil
		r.waiters = r.waiters[:len(r.waiters)-1]
		next.unpark()
	}
}

// Use acquires the resource, holds it for duration d of virtual time, and
// releases it. It is the common pattern for modeling an operation that
// occupies a physical unit.
func (r *Resource) Use(p *Proc, d time.Duration) {
	r.Acquire(p)
	p.Sleep(d)
	r.Release(p)
}

// BusyTime reports the cumulative virtual time units of the resource
// have been held (unit-seconds; divide by Cap for utilization).
func (r *Resource) BusyTime() time.Duration { return r.busy }
