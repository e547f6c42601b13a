package pool

// Test-only accessors: nothing outside this package's tests needs them.

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
