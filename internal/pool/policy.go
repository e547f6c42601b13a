package pool

import (
	"cmp"
	"slices"

	"repro/internal/coe"
)

// Policy selects eviction victims when a pool must free memory.
// Implementations receive the pool and the number of bytes that must be
// freed, and return loaded, unpinned experts whose combined size covers
// the need (or every candidate, if the need cannot be covered — the
// caller detects the shortfall). The returned slice may be a buffer the
// pool reuses: like LoadedUnpinned's, it is valid only until the next
// Victims call on the same pool, and callers must not retain it.
type Policy interface {
	Name() string
	Victims(p *Pool, need int64) []coe.ExpertID
}

// takeUntil collects entries' IDs in order, into the pool's reused
// victim buffer, until their sizes cover need.
func (p *Pool) takeUntil(entries []*Entry, need int64) []coe.ExpertID {
	out := p.victims[:0]
	var freed int64
	for _, e := range entries {
		if freed >= need {
			break
		}
		out = append(out, e.Expert.ID)
		freed += e.Bytes
	}
	p.victims = out
	return out
}

// LRU evicts the least recently used experts first — Samba-CoE's
// strategy (§2.2). Ties break on load order, then expert ID, keeping
// runs deterministic.
type LRU struct{}

// Name implements Policy.
func (LRU) Name() string { return "lru" }

// Victims implements Policy.
func (LRU) Victims(p *Pool, need int64) []coe.ExpertID {
	entries := p.LoadedUnpinned()
	slices.SortStableFunc(entries, func(a, b *Entry) int {
		if a.LastUse != b.LastUse {
			return cmp.Compare(a.LastUse, b.LastUse)
		}
		return cmp.Compare(a.LoadSeq, b.LoadSeq)
	})
	return p.takeUntil(entries, need)
}

// FIFO evicts the earliest loaded experts first — the Samba-CoE FIFO
// baseline (§5.1).
type FIFO struct{}

// Name implements Policy.
func (FIFO) Name() string { return "fifo" }

// Victims implements Policy.
func (FIFO) Victims(p *Pool, need int64) []coe.ExpertID {
	entries := p.LoadedUnpinned()
	slices.SortStableFunc(entries, func(a, b *Entry) int {
		return cmp.Compare(a.LoadSeq, b.LoadSeq)
	})
	return p.takeUntil(entries, need)
}

// DepAware is CoServe's two-stage dependency-aware eviction (§4.3):
//
// Stage 1 evicts subsequent experts none of whose preliminary experts
// are resident in this pool — they cannot run until a preliminary expert
// is switched in, so they only waste memory. Candidates are taken in
// descending memory footprint, minimizing the number of evictions.
//
// Stage 2, if stage 1 freed too little, evicts remaining experts in
// ascending pre-assessed usage probability, keeping the experts most
// likely to be needed (Figure 10).
type DepAware struct{}

// Name implements Policy.
func (DepAware) Name() string { return "dep-aware" }

// Victims implements Policy. It partitions the candidate buffer in
// place, orphans first, and sorts each part by a total order whose ties
// break on expert ID — the order a stable sort of the ID-ordered
// candidates gives. The victims are then one walk over orphans followed
// by the rest, and the rest is sorted only when the orphans cannot cover
// the need.
func (DepAware) Victims(p *Pool, need int64) []coe.ExpertID {
	entries := p.LoadedUnpinned()
	n := 0
	var orphanBytes int64
	for i, e := range entries {
		if orphaned(p, e.Expert) {
			entries[n], entries[i] = e, entries[n]
			n++
			orphanBytes += e.Bytes
		}
	}
	slices.SortFunc(entries[:n], func(a, b *Entry) int {
		if c := cmp.Compare(b.Bytes, a.Bytes); c != 0 {
			return c
		}
		return cmp.Compare(a.Expert.ID, b.Expert.ID)
	})
	if orphanBytes < need {
		slices.SortFunc(entries[n:], func(a, b *Entry) int {
			if c := cmp.Compare(a.Expert.UsageProb, b.Expert.UsageProb); c != 0 {
				return c
			}
			return cmp.Compare(a.Expert.ID, b.Expert.ID)
		})
	}
	return p.takeUntil(entries, need)
}

// orphaned reports whether the expert is a subsequent expert with none
// of its preliminary experts resident in the pool.
func orphaned(p *Pool, e *coe.Expert) bool {
	if e.Role != coe.Subsequent {
		return false
	}
	for _, dep := range e.DependsOn {
		if p.IsLoaded(dep) {
			return false
		}
	}
	return true
}

// ProbOnly evicts purely by ascending usage probability — DepAware with
// stage 1 removed. It exists for the design-choice ablation: comparing
// it against DepAware isolates the contribution of evicting orphaned
// subsequent experts first.
type ProbOnly struct{}

// Name implements Policy.
func (ProbOnly) Name() string { return "prob-only" }

// Victims implements Policy.
func (ProbOnly) Victims(p *Pool, need int64) []coe.ExpertID {
	entries := p.LoadedUnpinned()
	slices.SortStableFunc(entries, func(a, b *Entry) int {
		return cmp.Compare(a.Expert.UsageProb, b.Expert.UsageProb)
	})
	return p.takeUntil(entries, need)
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
