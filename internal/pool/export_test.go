package pool

import (
	"time"

	"repro/internal/coe"
)

// Test-only accessors: nothing outside this package's tests needs them.

// Cached reports whether the expert currently sits in the host cache.
func (s *Store) Cached(id coe.ExpertID) bool {
	return s.cache != nil && s.cache.has(id)
}

// SwitchIn returns the scheduler's switch-in estimate for the expert
// (§4.2), as sched prices it from the pool's Loaded row and the store:
// 0 when it is Loaded here, otherwise the store's uncontended load
// latency into this pool's tier from where it would be fetched.
func (p *Pool) SwitchIn(e *coe.Expert) time.Duration {
	if p.IsLoaded(e.ID) {
		return 0
	}
	return switchPrice(p.store, e.ID, p.tier)
}

// PolicyByName returns a policy implementation by its Name.
func PolicyByName(name string) (Policy, bool) {
	switch name {
	case "lru":
		return LRU{}, true
	case "fifo":
		return FIFO{}, true
	case "dep-aware":
		return DepAware{}, true
	case "prob-only":
		return ProbOnly{}, true
	default:
		return nil, false
	}
}

// FreeBytes reports unreserved pool capacity.
func (p *Pool) FreeBytes() int64 { return p.arena.Free() }

// CacheBytes reports the host cache capacity (0 when absent).
func (s *Store) CacheBytes() int64 {
	if s.cache == nil {
		return 0
	}
	return s.cache.arena.Capacity()
}

// CacheLen reports the number of cached experts.
func (s *Store) CacheLen() int {
	if s.cache == nil {
		return 0
	}
	return len(s.cache.lru)
}
