// Package memory provides byte-accounted memory arenas for the simulated
// device. An Arena tracks reservations against a fixed capacity and lets
// a simulation wait until space frees up — the mechanism behind
// the paper's tradeoff between expert storage and batch intermediate
// results (§3.3, §4.4).
package memory

import (
	"fmt"

	"repro/internal/sim"
)

// Tier identifies a memory or storage tier of the device.
type Tier int

const (
	// TierGPU is GPU-visible memory (discrete VRAM or the unified pool).
	TierGPU Tier = iota
	// TierCPU is CPU DRAM (the host cache tier on NUMA devices).
	TierCPU
	// TierSSD is persistent storage; every expert always resides there.
	TierSSD
)

func (t Tier) String() string {
	switch t {
	case TierGPU:
		return "gpu"
	case TierCPU:
		return "cpu"
	case TierSSD:
		return "ssd"
	default:
		return fmt.Sprintf("Tier(%d)", int(t))
	}
}

// Arena is a fixed-capacity memory account. Reservations either succeed
// immediately, fail, or (WaitReserve) park a continuation until capacity
// frees. The zero value is unusable; create arenas with NewArena.
type Arena struct {
	name     string
	capacity int64
	reserved int64
	waiters  []waiter
}

type waiter struct {
	env   *sim.Env
	bytes int64
	k     func()
}

// NewArena returns an arena with the given capacity in bytes.
func NewArena(name string, capacity int64) *Arena {
	if capacity < 0 {
		panic("memory: negative capacity")
	}
	return &Arena{name: name, capacity: capacity}
}

// Capacity reports the total capacity in bytes.
func (a *Arena) Capacity() int64 { return a.capacity }

// Free reports the bytes currently available.
func (a *Arena) Free() int64 { return a.capacity - a.reserved }

// Reserve takes bytes from the arena, or reports an error if they do not
// fit. Reserving zero bytes always succeeds.
func (a *Arena) Reserve(bytes int64) error {
	if !a.TryReserve(bytes) {
		return fmt.Errorf("memory: arena %s cannot reserve %d bytes (%d free of %d)",
			a.name, bytes, a.Free(), a.capacity)
	}
	return nil
}

// TryReserve reserves bytes and reports whether it succeeded. Unlike
// Reserve it formats no error, so a caller probing for fit (the expert
// preloader, once per full pool) allocates nothing.
func (a *Arena) TryReserve(bytes int64) bool {
	if bytes < 0 {
		panic("memory: negative reservation")
	}
	if a.reserved+bytes > a.capacity {
		return false
	}
	a.reserved += bytes
	return true
}

// Release returns bytes to the arena and wakes any waiter whose request
// now fits (in FIFO order, stopping at the first that still does not).
func (a *Arena) Release(bytes int64) {
	if bytes < 0 {
		panic("memory: negative release")
	}
	if bytes > a.reserved {
		panic(fmt.Sprintf("memory: arena %s released %d bytes with only %d reserved",
			a.name, bytes, a.reserved))
	}
	a.reserved -= bytes
	a.wakeFitting()
}

// wakeFitting schedules queued waiters, head-of-line, while their
// requests fit. The reservation is made on behalf of the waiter before
// it runs, so capacity cannot be stolen in between.
func (a *Arena) wakeFitting() {
	for len(a.waiters) > 0 {
		w := a.waiters[0]
		if a.reserved+w.bytes > a.capacity {
			return
		}
		a.waiters = a.waiters[1:]
		a.reserved += w.bytes
		w.env.Unpark(w.k)
	}
}

// WaitReserve reserves bytes and reports true if they fit now.
// Otherwise it parks k on env until the bytes can be reserved on its
// behalf, and reports false. Requests queue FIFO, so a large request is
// not starved by a stream of small ones. Panics if bytes exceeds
// capacity outright (it could never succeed).
func (a *Arena) WaitReserve(env *sim.Env, bytes int64, k func()) bool {
	if bytes < 0 {
		panic("memory: negative reservation")
	}
	if bytes > a.capacity {
		panic(fmt.Sprintf("memory: arena %s can never satisfy %d bytes (capacity %d)",
			a.name, bytes, a.capacity))
	}
	if len(a.waiters) == 0 && a.reserved+bytes <= a.capacity {
		a.reserved += bytes
		return true
	}
	a.waiters = append(a.waiters, waiter{env: env, bytes: bytes, k: k})
	env.Park()
	return false
}
