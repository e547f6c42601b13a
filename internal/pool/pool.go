// Package pool implements the model pool and dependency-aware expert
// management of §4.3: per-executor pools of loaded experts with pluggable
// eviction policies (LRU and FIFO baselines, and CoServe's two-stage
// dependency-aware strategy), plus the device-level tiered store that
// decides where an expert is fetched from and tracks the host-memory
// cache on NUMA devices.
package pool

import (
	"fmt"
	"slices"
	"time"

	"repro/internal/coe"
	"repro/internal/memory"
	"repro/internal/sim"
	"repro/internal/xfer"
)

// Status describes an expert's state within one pool.
type Status int

const (
	// Absent: the expert is not in this pool.
	Absent Status = iota
	// Loading: a switch-in is in flight.
	Loading
	// Loaded: the expert is resident and usable.
	Loaded
)

func (s Status) String() string {
	switch s {
	case Absent:
		return "absent"
	case Loading:
		return "loading"
	case Loaded:
		return "loaded"
	default:
		return fmt.Sprintf("Status(%d)", int(s))
	}
}

// Entry is one expert's residency record in a pool.
type Entry struct {
	Expert *coe.Expert
	Bytes  int64
	Status Status
	// Pins counts active users (an executor pins the expert for the
	// duration of a batch group). Pinned entries are never evicted.
	Pins int
	// LastUse is the virtual time of the most recent pin or unpin —
	// the LRU key.
	LastUse sim.Time
	// LoadSeq is the monotonically increasing load sequence number —
	// the FIFO key.
	LoadSeq int64
	// ready fires when an in-flight load completes. It exists only once
	// a concurrent acquirer of a shared pool has to wait on the load.
	ready *sim.Event

	// The switch-in in flight: the loading acquirer's continuation and
	// the tier it loads from.
	k   func()
	src xfer.Source
	// live counts the expert's DependsOn that are Loaded in this pool,
	// kept while the entry is in the pool.
	live int32
}

// Pool is the set of experts resident in one executor's memory. The
// simulation is single-threaded, so no locking is needed even when
// several executors share a pool.
type Pool struct {
	name   string
	arena  *memory.Arena
	store  *Store
	tier   memory.Tier
	policy Policy
	now    func() sim.Time

	// Observer, when set, is invoked after every expert switch with the
	// loaded expert, the source tier name, and the elapsed load time.
	Observer func(e *coe.Expert, source string, elapsed time.Duration)

	// entries is indexed by ExpertID (IDs are dense per model); a nil
	// cell is an absent expert. It is sized to the store's model up
	// front, so the serve path never grows it.
	entries []*Entry
	// table has the pool's slot set in row id while expert id is Loaded
	// here: Preload and loaded set it and evict clears it, so IsLoaded
	// reads one word. Carve shares one table among a node's pools.
	table memory.Residency
	slot  memory.Slot
	seq   int64
	// resident holds the same entries in ascending (UsageProb, ID) order
	// — stage 2's eviction order, fixed per model — so the usage-ordered
	// policies walk it instead of sorting. An expert's UsageProb must not
	// change while a pool holds it.
	resident []*Entry
	// orphans counts the Loaded subsequent experts none of whose
	// DependsOn is Loaded here: the entries whose live count is 0. put
	// sets an entry's count from its preliminaries, and Preload, loaded
	// and evict move the counts of a changing expert's resident
	// dependents, so DepAware tells an orphan in one read and skips
	// stage 1 when there is none.
	orphans int

	// tally and holders are set by TrackResidency: tally[id] counts the
	// node's pools holding expert id, and the pool keeps its node's slot
	// of holders set in row id while that count is nonzero.
	tally   []uint8
	holders memory.Residency
	node    memory.Slot

	// scratch backs LoadedUnpinned and the policies' candidate lists and
	// victims backs their results, so every eviction decision reuses one
	// candidate buffer and one victim buffer instead of allocating fresh
	// slices.
	scratch []*Entry
	victims []coe.ExpertID
	// spare holds evicted entries for Acquire to reuse; loadedFn is
	// p.loaded, bound once.
	spare    []*Entry
	loadedFn func(any, time.Duration)

	// stats
	switches  int64
	evictions int64
	loadTime  time.Duration
	hostHits  int64
	ssdLoads  int64
}

// New returns an empty pool with the given expert-memory capacity,
// backed by the device store, holding experts in the given tier. Carve
// sizes its tables: it holds no expert until then.
func New(name string, capacity int64, store *Store, tier memory.Tier, policy Policy, now func() sim.Time) *Pool {
	if policy == nil {
		panic("pool: nil policy")
	}
	p := &Pool{
		name:   name,
		arena:  memory.NewArena(name+"/experts", capacity),
		store:  store,
		tier:   tier,
		policy: policy,
		now:    now,
	}
	p.loadedFn = p.loaded
	return p
}

// Carve sizes the pools' tables to their store's model and carves them
// out of shared blocks: every expert table out of one, and the Loaded
// bits into one Residency, which it returns, with pools[i] in slot i. A
// node's pools cost two allocations however many there are, and one row
// of the table tells which of them have an expert Loaded. What a pool
// already holds is kept. The pools must share a store.
func Carve(pools []*Pool) memory.Residency {
	n := pools[0].store.prices.Experts()
	entries := make([]*Entry, len(pools)*n)
	table := memory.NewResidency(len(pools), n)
	for i, p := range pools {
		if p.store != pools[0].store {
			panic(fmt.Sprintf("pool %s: carved beside a pool of another store", p.name))
		}
		e := entries[i*n : (i+1)*n : (i+1)*n]
		copy(e, p.entries)
		slot := table.Slot(i)
		for id := range p.entries {
			if p.IsLoaded(coe.ExpertID(id)) {
				table.Set(id, slot, true)
			}
		}
		p.entries, p.table, p.slot = e, table, slot
	}
	return table
}

// Slot reports the pool's slot in its Loaded table (Carve).
func (p *Pool) Slot() memory.Slot { return p.slot }

// setLoaded sets or clears expert id's bit in the Loaded table.
func (p *Pool) setLoaded(id coe.ExpertID, on bool) { p.table.Set(int(id), p.slot, on) }

// count moves the dependency counts as e becomes Loaded (delta +1) or
// stops being Loaded (-1): e's own standing as an orphan, then the live
// count of each of its dependents in the pool, and the orphan count when
// a Loaded dependent gains its first loaded preliminary or loses its
// last. Dependents are subsequent experts by construction
// (coe.Builder.Link).
func (p *Pool) count(e *Entry, delta int32) {
	if orphaned(e) {
		p.orphans += int(delta)
	}
	for _, id := range e.Expert.Dependents {
		d := p.entry(id)
		if d == nil {
			continue
		}
		was := d.live
		d.live += delta
		if d.Status == Loaded && (was == 0) != (d.live == 0) {
			p.orphans -= int(delta)
		}
	}
}

// TrackResidency makes the pool report its residency into a fleet view
// shared with the other pools of its node and of its fleet. tally holds
// the node's counters, one per expert: tally[id] is incremented while
// the pool holds expert id (Loaded or Loading) and decremented when it
// lets go. holders is the fleet's holder table, one slot per node: the
// node's slot in expert id's row is set while tally[id] is nonzero, so
// the pools flip it when their node's count crosses 0 and 1. The pool's
// current experts are counted immediately. Counters are bytes, so at
// most 255 pools may share one tally.
func (p *Pool) TrackResidency(tally []uint8, holders memory.Residency, node memory.Slot) {
	p.tally, p.holders, p.node = tally, holders, node
	for _, e := range p.resident {
		p.track(e.Expert.ID, true)
	}
}

// track counts the pool in or out of expert id's residency tally, and
// sets or clears its node's holder bit with it. No-op until
// TrackResidency.
func (p *Pool) track(id coe.ExpertID, in bool) {
	if p.tally == nil {
		return
	}
	if in {
		p.tally[id]++
		p.holders.Set(int(id), p.node, true)
	} else if p.tally[id]--; p.tally[id] == 0 {
		p.holders.Set(int(id), p.node, false)
	}
}

// entry returns the expert's entry, or nil when it is absent.
func (p *Pool) entry(id coe.ExpertID) *Entry {
	if uint(id) < uint(len(p.entries)) {
		return p.entries[id]
	}
	return nil
}

// put inserts an entry for an absent expert, counting its loaded
// preliminaries.
func (p *Pool) put(e *Entry) {
	e.live = 0
	for _, dep := range e.Expert.DependsOn {
		if p.IsLoaded(dep) {
			e.live++
		}
	}
	id := e.Expert.ID
	p.entries[id] = e
	p.resident = slices.Insert(p.resident, p.place(e), e)
	p.track(id, true)
}

// place returns where e belongs in the resident list — its index, when
// it is there — by a binary search on ascending (usage probability,
// expert ID). Usage probabilities are never NaN, so < and == order them.
func (p *Pool) place(e *Entry) int {
	x := e.Expert
	lo, hi := 0, len(p.resident)
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if y := p.resident[m].Expert; y.UsageProb < x.UsageProb || (y.UsageProb == x.UsageProb && y.ID < x.ID) {
			lo = m + 1
		} else {
			hi = m
		}
	}
	return lo
}

// Name reports the pool name.
func (p *Pool) Name() string { return p.name }

// IsLoaded reports whether the expert is resident (status Loaded): one
// word of the Loaded table.
func (p *Pool) IsLoaded(id coe.ExpertID) bool {
	return p.table.Has(int(id), p.slot)
}

// Status reports the expert's status in the pool.
//
//detlint:allow unused the fleet residency checker (cluster's checkResidency) compares every pool's Loaded bit with it, Loading and pinned entries included
func (p *Pool) Status(id coe.ExpertID) Status {
	if e := p.entry(id); e != nil {
		return e.Status
	}
	return Absent
}

// Resident reports whether the expert occupies the pool at all — Loaded,
// or Loading with the switch-in still in flight. Cluster routers use it
// for expert affinity: a request routed to a pool whose expert is
// already loading pays the remaining wait, not a fresh switch.
func (p *Pool) Resident(id coe.ExpertID) bool { return p.entry(id) != nil }

// Loaded returns the number of resident experts.
func (p *Pool) Loaded() int {
	n := 0
	for id := range p.table.Experts() {
		if p.table.Has(id, p.slot) {
			n++
		}
	}
	return n
}

// Switches reports the number of expert switch-ins (loads) since the
// last ResetStats — the quantity of Figure 14.
func (p *Pool) Switches() int64 { return p.switches }

// Evictions reports the number of expert evictions since ResetStats.
func (p *Pool) Evictions() int64 { return p.evictions }

// LoadTime reports cumulative virtual time spent loading experts.
func (p *Pool) LoadTime() time.Duration { return p.loadTime }

// HostHits and SSDLoads break switches down by source tier.
func (p *Pool) HostHits() int64 { return p.hostHits }
func (p *Pool) SSDLoads() int64 { return p.ssdLoads }

// ResetStats zeroes the switch/eviction counters. The system calls it
// after initialization so preloading does not count as switching.
func (p *Pool) ResetStats() {
	p.switches, p.evictions, p.hostHits, p.ssdLoads = 0, 0, 0, 0
	p.loadTime = 0
}

// Preload inserts an expert without cost, for the expert initializer
// (§4.1). It reports false when the expert does not fit; an expert
// already resident, loaded or loading, needs nothing.
func (p *Pool) Preload(e *coe.Expert) bool {
	if p.Resident(e.ID) {
		return true
	}
	bytes := e.WeightBytes()
	if !p.arena.TryReserve(bytes) {
		return false
	}
	p.seq++
	entry := &Entry{
		Expert:  e,
		Bytes:   bytes,
		Status:  Loaded,
		LoadSeq: p.seq,
	}
	p.put(entry)
	p.setLoaded(e.ID, true)
	p.count(entry, 1)
	return true
}

// Acquire makes the expert resident and pins it, evicting and loading as
// needed on behalf of an executor. It reports true when the expert was
// already loaded and is pinned now. Otherwise it reports false and k
// runs once the expert is pinned: after this call's expert switch, or,
// when a sharer of the pool (the Samba-CoE Parallel arrangement) has a
// load of the expert in flight, after that load instead of a second one.
// Acquire panics if eviction cannot free enough memory (the
// configuration validator guarantees pool capacity exceeds the largest
// expert plus one pinned expert per sharer).
func (p *Pool) Acquire(e *coe.Expert, k func()) bool {
	entry := p.entry(e.ID)
	switch {
	case entry == nil:
		p.load(e, k)
	case entry.Status == Loaded:
		entry.Pins++
		entry.LastUse = p.now()
		return true
	default:
		// A sharer is loading it: wait, then try again (the entry may
		// have been evicted again before this waiter gets a pin on it).
		if entry.ready == nil {
			entry.ready = sim.NewEvent(p.store.env)
		}
		entry.ready.Wait(func() {
			if p.Acquire(e, k) {
				k()
			}
		})
	}
	return false
}

// load starts the switch-in of an absent expert, pinned for the
// acquirer whose continuation k runs once it lands.
func (p *Pool) load(e *coe.Expert, k func()) {
	bytes := e.WeightBytes()
	if need := bytes - p.arena.Free(); need > 0 {
		p.evict(need)
	}
	if err := p.arena.Reserve(bytes); err != nil {
		panic(fmt.Sprintf("pool %s: %v after eviction", p.name, err))
	}
	p.seq++
	entry := p.newEntry()
	entry.Expert, entry.Bytes, entry.Status = e, bytes, Loading
	entry.LoadSeq, entry.Pins, entry.LastUse = p.seq, 1, 0
	entry.k = k
	p.put(entry)
	entry.src = p.store.Fetch(e, p.tier, p.loadedFn, entry)
}

// loaded completes the switch-in of the *Entry tag.
func (p *Pool) loaded(tag any, d time.Duration) {
	entry := tag.(*Entry)
	p.loadTime += d
	if entry.src == xfer.FromHost {
		p.hostHits++
	} else {
		p.ssdLoads++
	}
	p.switches++
	if p.Observer != nil {
		p.Observer(entry.Expert, entry.src.String(), d)
	}

	entry.Status = Loaded
	entry.LastUse = p.now()
	p.setLoaded(entry.Expert.ID, true)
	p.count(entry, 1)
	if entry.ready != nil {
		entry.ready.Fire()
		entry.ready = nil
	}
	k := entry.k
	entry.k = nil
	k()
}

// newEntry returns an evicted entry for reuse, or a fresh one.
func (p *Pool) newEntry() *Entry {
	if n := len(p.spare); n > 0 {
		e := p.spare[n-1]
		p.spare[n-1] = nil
		p.spare = p.spare[:n-1]
		return e
	}
	return &Entry{}
}

// Release unpins the expert after a batch group finishes.
func (p *Pool) Release(id coe.ExpertID) {
	entry := p.entry(id)
	if entry == nil || entry.Pins <= 0 {
		panic(fmt.Sprintf("pool %s: release of unpinned expert %d", p.name, id))
	}
	entry.Pins--
	entry.LastUse = p.now()
}

// evict frees at least need bytes using the policy, demoting victims to
// the host cache when the store has one.
func (p *Pool) evict(need int64) {
	victims := p.policy.Victims(p, need)
	var freed int64
	for _, id := range victims {
		entry := p.entry(id)
		if entry == nil || entry.Status != Loaded || entry.Pins > 0 {
			panic(fmt.Sprintf("pool %s: policy chose invalid victim %d", p.name, id))
		}
		p.count(entry, -1)
		p.entries[id] = nil
		p.setLoaded(id, false)
		i := p.place(entry)
		p.resident = slices.Delete(p.resident, i, i+1)
		p.track(id, false)
		p.arena.Release(entry.Bytes)
		p.store.demote(entry.Expert, p.tier)
		p.evictions++
		freed += entry.Bytes
		p.spare = append(p.spare, entry)
	}
	if freed < need {
		panic(fmt.Sprintf("pool %s: policy freed %d of %d needed bytes", p.name, freed, need))
	}
}

// LoadedUnpinned returns resident, unpinned entries in ascending
// ExpertID order — the stable candidate list LRU and FIFO sort. The
// returned slice is only valid until the next call: it is a reused
// scratch buffer that policies may reorder but must not retain.
func (p *Pool) LoadedUnpinned() []*Entry {
	out := p.scratch[:0]
	for _, e := range p.entries {
		if e != nil && e.Status == Loaded && e.Pins == 0 {
			out = append(out, e)
		}
	}
	p.scratch = out
	return out
}
