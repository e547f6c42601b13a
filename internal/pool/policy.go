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
// are loaded in this pool — they cannot run until a preliminary expert
// is switched in, so they only waste memory. Candidates are taken in
// descending memory footprint, minimizing the number of evictions. The
// pool counts, per resident expert, its loaded preliminaries, and the
// orphans among its Loaded experts, at every load and eviction, so
// telling an orphan is one read and a pool without orphans skips this
// stage.
//
// Stage 2, if stage 1 freed too little, evicts remaining experts in
// ascending pre-assessed usage probability, keeping the experts most
// likely to be needed (Figure 10).
type DepAware struct{}

// Name implements Policy.
func (DepAware) Name() string { return "dep-aware" }

// Victims implements Policy. It walks the pool's usage-ordered resident
// list to collect the orphans, inserting each unpinned one at its place
// in stage 1's order and stopping once it has seen all p.orphans of them
// (at once when there are none), and again, only when they cannot cover
// the need, to append the other candidates in list order — stage 2's
// order.
func (DepAware) Victims(p *Pool, need int64) []coe.ExpertID {
	cands := p.scratch[:0]
	var covered int64
	for i, left := 0, p.orphans; left > 0; i++ {
		e := p.resident[i]
		if e.Status != Loaded || !orphaned(e) {
			continue
		}
		left--
		if e.Pins > 0 {
			continue
		}
		// Insertion-sort it into stage 1's order: orphans are a handful.
		j := len(cands)
		cands = append(cands, e)
		for ; j > 0 && largerFirst(e, cands[j-1]); j-- {
			cands[j] = cands[j-1]
		}
		cands[j] = e
		covered += e.Bytes
	}
	for _, e := range p.resident {
		if covered >= need {
			break
		}
		if evictable(e) && !orphaned(e) {
			cands = append(cands, e)
			covered += e.Bytes
		}
	}
	p.scratch = cands
	return p.takeUntil(cands, need)
}

// largerFirst is stage 1's order: descending size, ties on expert ID.
func largerFirst(a, b *Entry) bool {
	return a.Bytes > b.Bytes || a.Bytes == b.Bytes && a.Expert.ID < b.Expert.ID
}

// evictable reports whether a policy may choose the entry: it is loaded
// and unpinned.
func evictable(e *Entry) bool { return e.Status == Loaded && e.Pins == 0 }

// orphaned reports whether the entry's expert is a subsequent expert
// with none of its preliminary experts loaded in the pool: one read of
// the entry's live count, however many preliminaries it has.
func orphaned(e *Entry) bool {
	return e.Expert.Role == coe.Subsequent && e.live == 0
}

// ProbOnly evicts purely by ascending usage probability — DepAware with
// stage 1 removed. It exists for the design-choice ablation: comparing
// it against DepAware isolates the contribution of evicting orphaned
// subsequent experts first.
type ProbOnly struct{}

// Name implements Policy.
func (ProbOnly) Name() string { return "prob-only" }

// Victims implements Policy. The pool's resident list is already in
// ascending (UsageProb, ID) order — what a stable sort by usage of the
// ID-ordered candidates gives — so the victims are its first evictable
// entries.
func (ProbOnly) Victims(p *Pool, need int64) []coe.ExpertID {
	out := p.victims[:0]
	var freed int64
	for _, e := range p.resident {
		if freed >= need {
			break
		}
		if evictable(e) {
			out = append(out, e.Expert.ID)
			freed += e.Bytes
		}
	}
	p.victims = out
	return out
}
