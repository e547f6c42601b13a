package pool

import (
	"slices"
	"time"

	"repro/internal/coe"
	"repro/internal/hw"
	"repro/internal/memory"
	"repro/internal/sim"
	"repro/internal/xfer"
)

// Store is the device-level expert storage hierarchy. Every expert
// permanently resides on SSD; on NUMA devices a host-memory cache holds
// experts recently evicted from GPU pools (Samba-CoE's DDR tier, §2.2).
// The cache is exclusive: fetching an expert moves it out, and demotion
// moves it back in.
type Store struct {
	env    *sim.Env
	engine *xfer.Engine
	cache  *hostCache
	// prices holds every expert's switch-in latency by destination tier
	// from where it would be fetched; the host cache keeps the sources.
	prices *xfer.Prices
}

// NewStore returns a store for the device holding the model's experts.
// cacheBytes sets the host cache capacity; pass 0 for no cache (UMA
// devices load experts straight from SSD, §5.1). Every architecture's
// switch-in is priced here, once per destination tier and source, so
// pricing one is a table read (Prices).
func NewStore(env *sim.Env, dev *hw.Device, cacheBytes int64, m *coe.Model) *Store {
	archs, archOf := m.Archs()
	s := &Store{env: env, engine: xfer.NewEngine(env, dev)}
	s.prices = xfer.NewPrices(archOf, func(a int, src xfer.Source, dst memory.Tier) time.Duration {
		return xfer.LoadLatency(dev, src, dst, archs[a].WeightBytes())
	})
	if cacheBytes > 0 {
		s.cache = &hostCache{arena: memory.NewArena("hostcache", cacheBytes), prices: s.prices}
	}
	return s
}

// Prices returns the store's switch-in price list (§4.2), which follows
// the host cache's contents.
func (s *Store) Prices() *xfer.Prices { return s.prices }

// Fetch brings the expert's weights into the destination tier,
// contending on the physical transfer resources, and calls done with tag
// and the elapsed time once they arrive. It serves from the host cache
// when possible (removing the cached copy at once — the tiers swap, they
// do not replicate) and from SSD otherwise, and reports which.
func (s *Store) Fetch(e *coe.Expert, dst memory.Tier, done func(tag any, elapsed time.Duration), tag any) xfer.Source {
	src := xfer.FromSSD
	if s.cache != nil && s.cache.take(e.ID) {
		src = xfer.FromHost
	}
	s.engine.Load(src, dst, e.WeightBytes(), done, tag)
	return src
}

// demote records an expert evicted from a pool in the given tier. GPU
// evictions enter the host cache (when present); the in-memory copy is
// otherwise dropped. The copy-out itself is DMA overlapped with compute
// and costs no modeled time.
func (s *Store) demote(e *coe.Expert, from memory.Tier) {
	if s.cache == nil || from != memory.TierGPU {
		return
	}
	s.cache.insert(e)
}

// hostCache is an LRU cache of deserialized experts in CPU memory.
type hostCache struct {
	arena *memory.Arena
	// lru holds the cached experts least recently demoted first. It holds
	// a few dozen experts at most; only a fetch or re-demotion scans it.
	lru []cached
	// prices is the store's price list: an expert is cached exactly
	// while its source there is FromHost, so membership is one read and
	// the scheduler's prices follow the cache.
	prices *xfer.Prices
}

type cached struct {
	id    coe.ExpertID
	bytes int64
}

// find returns the expert's position in the recency list, or -1.
func (c *hostCache) find(id coe.ExpertID) int {
	for i, e := range c.lru {
		if e.id == id {
			return i
		}
	}
	return -1
}

// take removes the expert from the cache, reporting whether it was there.
func (c *hostCache) take(id coe.ExpertID) bool {
	if !c.has(id) {
		return false
	}
	i := c.find(id)
	c.prices.SetSource(int(id), xfer.FromSSD)
	c.arena.Release(c.lru[i].bytes)
	c.lru = slices.Delete(c.lru, i, i+1)
	return true
}

// insert adds the expert as the most recent entry, evicting
// least-recently-used entries to make room; an expert already cached
// just becomes the most recent. Experts larger than the whole cache are
// not cached.
func (c *hostCache) insert(e *coe.Expert) {
	bytes := e.WeightBytes()
	if bytes > c.arena.Capacity() {
		return
	}
	if c.has(e.ID) {
		i := c.find(e.ID)
		hit := c.lru[i]
		c.lru = append(slices.Delete(c.lru, i, i+1), hit)
		return
	}
	for c.arena.Free() < bytes { // bytes fits the capacity: the list never runs dry
		c.arena.Release(c.lru[0].bytes)
		c.prices.SetSource(int(c.lru[0].id), xfer.FromSSD)
		c.lru = slices.Delete(c.lru, 0, 1)
	}
	if err := c.arena.Reserve(bytes); err != nil {
		panic("pool: host cache accounting broken: " + err.Error())
	}
	c.lru = append(c.lru, cached{id: e.ID, bytes: bytes})
	c.prices.SetSource(int(e.ID), xfer.FromHost)
}

// has reports whether the expert is cached.
func (c *hostCache) has(id coe.ExpertID) bool { return c.prices.Source(int(id)) == xfer.FromHost }
