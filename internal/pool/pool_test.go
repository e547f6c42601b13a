package pool

import (
	"cmp"
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"time"

	"repro/internal/coe"
	"repro/internal/hw"
	"repro/internal/memory"
	"repro/internal/model"
	"repro/internal/sim"
	"repro/internal/xfer"
)

// testWorld builds a sim env, a NUMA store (with optional cache), and a
// CoE model with nCls classifiers and one shared detector linked to
// classifiers 0 and 1.
func testWorld(t *testing.T, cacheBytes int64, nCls int) (*sim.Env, *Store, *coe.Model) {
	t.Helper()
	env := sim.NewEnv()
	b := coe.NewBuilder("t")
	var cls []coe.ExpertID
	for i := 0; i < nCls; i++ {
		cls = append(cls, b.AddExpert("c", model.ResNet101, coe.Preliminary))
	}
	det := b.AddExpert("d", model.YOLOv5m, coe.Subsequent)
	b.Link(cls[0], det)
	b.Link(cls[1], det)
	for i, c := range cls {
		b.AddRule(i, coe.Rule{Classifier: c, Detector: det, PassProb: 0.5})
	}
	m, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	// Distinct usage probabilities: expert i gets (i+1)/total.
	for i, e := range m.Experts() {
		e.UsageProb = float64(i+1) / float64(m.NumExperts())
	}
	return env, NewStore(env, hw.NUMADevice(), cacheBytes, m), m
}

// newPool returns a GPU pool with a Loaded table of its own.
func newPool(env *sim.Env, store *Store, capacity int64, pol Policy) *Pool {
	p := New("gpu0", capacity, store, memory.TierGPU, pol, env.Now)
	Carve([]*Pool{p})
	return p
}

const rn101 = 178_196_640 // ResNet101 weight bytes

// acquireRun pins e in p the way one sequential driver would: it runs the
// environment until the pin lands and reports whether the call switched
// the expert in.
func acquireRun(env *sim.Env, p *Pool, e *coe.Expert) bool {
	switched := !p.Resident(e.ID)
	if !p.Acquire(e, func() {}) {
		env.Run()
	}
	return switched
}

// sleep advances a sequential driver's clock by d.
func sleep(env *sim.Env, d time.Duration) {
	env.After(d, func() {})
	env.Run()
}

func TestPreload(t *testing.T) {
	env, store, m := testWorld(t, 0, 3)
	p := newPool(env, store, 2*rn101+rn101/2, LRU{})
	if !p.Preload(m.Expert(0)) || !p.Preload(m.Expert(1)) {
		t.Fatal("preload of two experts failed")
	}
	if p.Preload(m.Expert(2)) {
		t.Error("third expert should not fit")
	}
	if !p.Preload(m.Expert(0)) {
		t.Error("re-preload of resident expert should succeed")
	}
	if p.Loaded() != 2 {
		t.Errorf("loaded = %d, want 2", p.Loaded())
	}
}

func TestAcquireHitNoSwitch(t *testing.T) {
	env, store, m := testWorld(t, 0, 2)
	p := newPool(env, store, 4*rn101, LRU{})
	p.Preload(m.Expert(0))
	switched := acquireRun(env, p, m.Expert(0))
	p.Release(0)
	end := env.Run()
	if switched {
		t.Error("hit reported as switch")
	}
	if end != 0 {
		t.Errorf("hit consumed %v of virtual time", end)
	}
	if p.Switches() != 0 {
		t.Errorf("switches = %d, want 0", p.Switches())
	}
}

func TestAcquireMissLoadsFromSSD(t *testing.T) {
	env, store, m := testWorld(t, 0, 2)
	p := newPool(env, store, 4*rn101, LRU{})
	switched := acquireRun(env, p, m.Expert(0))
	p.Release(0)
	end := env.Run()
	if !switched {
		t.Error("miss not reported as switch")
	}
	want := xfer.LoadLatency(hw.NUMADevice(), xfer.FromSSD, memory.TierGPU, m.Expert(0).WeightBytes())
	if end != sim.Time(want) {
		t.Errorf("load took %v, want %v", end, want)
	}
	if p.Switches() != 1 || p.SSDLoads() != 1 || p.HostHits() != 0 {
		t.Errorf("stats: switches=%d ssd=%d host=%d", p.Switches(), p.SSDLoads(), p.HostHits())
	}
	if !p.IsLoaded(0) {
		t.Error("expert not resident after load")
	}
}

func TestAcquireEvictsWhenFull(t *testing.T) {
	env, store, m := testWorld(t, 0, 3)
	p := newPool(env, store, 2*rn101, LRU{})
	p.Preload(m.Expert(0))
	p.Preload(m.Expert(1))
	acquireRun(env, p, m.Expert(2))
	p.Release(2)
	env.Run()
	if p.Loaded() != 2 {
		t.Errorf("loaded = %d, want 2", p.Loaded())
	}
	if !p.IsLoaded(2) {
		t.Error("new expert not resident")
	}
	if p.Evictions() != 1 {
		t.Errorf("evictions = %d, want 1", p.Evictions())
	}
}

func TestLRUEvictsLeastRecentlyUsed(t *testing.T) {
	env, store, m := testWorld(t, 0, 3)
	p := newPool(env, store, 2*rn101, LRU{})
	p.Preload(m.Expert(0))
	p.Preload(m.Expert(1))
	// Touch 0 later than 1: 1 becomes the LRU victim.
	acquireRun(env, p, m.Expert(1))
	p.Release(1)
	sleep(env, time.Second)
	acquireRun(env, p, m.Expert(0))
	p.Release(0)
	sleep(env, time.Second)
	acquireRun(env, p, m.Expert(2))
	p.Release(2)
	env.Run()
	if p.IsLoaded(1) {
		t.Error("LRU kept the least recently used expert")
	}
	if !p.IsLoaded(0) || !p.IsLoaded(2) {
		t.Error("LRU evicted the wrong expert")
	}
}

func TestFIFOEvictsOldestLoad(t *testing.T) {
	env, store, m := testWorld(t, 0, 3)
	p := newPool(env, store, 2*rn101, FIFO{})
	p.Preload(m.Expert(0)) // loaded first
	p.Preload(m.Expert(1))
	// Recent touch must NOT save expert 0 under FIFO.
	acquireRun(env, p, m.Expert(0))
	p.Release(0)
	acquireRun(env, p, m.Expert(2))
	p.Release(2)
	env.Run()
	if p.IsLoaded(0) {
		t.Error("FIFO kept the first-loaded expert")
	}
	if !p.IsLoaded(1) || !p.IsLoaded(2) {
		t.Error("FIFO evicted the wrong expert")
	}
}

func TestDepAwareStage1EvictsOrphanedSubsequent(t *testing.T) {
	// Figure 10 stage 1: the detector (subsequent) whose preliminary
	// experts are absent is evicted before any classifier, even though
	// its usage probability is the highest.
	env, store, m := testWorld(t, 0, 4)
	det := m.Expert(4)
	det.UsageProb = 0.99
	cls2, cls3 := m.Expert(2), m.Expert(3) // not linked to det
	cls2.UsageProb = 0.01
	cls3.UsageProb = 0.02
	// Capacity chosen so that evicting the detector alone frees enough
	// room for the incoming ResNet101 classifier.
	p := newPool(env, store, 3*rn101+1024, DepAware{})
	p.Preload(cls2)
	p.Preload(cls3)
	p.Preload(det) // orphaned: cls0/cls1 not resident
	acquireRun(env, p, m.Expert(0))
	p.Release(0)
	env.Run()
	if p.IsLoaded(det.ID) {
		t.Error("orphaned subsequent expert survived stage 1")
	}
	if !p.IsLoaded(cls2.ID) || !p.IsLoaded(cls3.ID) {
		t.Error("stage 1 evicted classifiers despite orphaned detector")
	}
}

func TestDepAwareDetectorWithResidentPreliminarySurvives(t *testing.T) {
	// When a preliminary expert of the detector is resident, the
	// detector is not orphaned; stage 2 evicts by usage probability.
	env, store, m := testWorld(t, 0, 4)
	det := m.Expert(4)
	det.UsageProb = 0.99
	cls0 := m.Expert(0) // linked to det
	cls0.UsageProb = 0.5
	cls2 := m.Expert(2)
	cls2.UsageProb = 0.01 // lowest usage -> stage-2 victim
	p := newPool(env, store, cls0.WeightBytes()+cls2.WeightBytes()+det.WeightBytes()+rn101/2, DepAware{})
	p.Preload(cls0)
	p.Preload(cls2)
	p.Preload(det)
	acquireRun(env, p, m.Expert(3))
	p.Release(3)
	env.Run()
	if !p.IsLoaded(det.ID) {
		t.Error("non-orphaned detector evicted")
	}
	if p.IsLoaded(cls2.ID) {
		t.Error("lowest-usage classifier survived stage 2")
	} else if !p.IsLoaded(cls0.ID) {
		t.Error("higher-usage classifier evicted before lower")
	}
}

func TestPinnedExpertsNeverEvicted(t *testing.T) {
	env, store, m := testWorld(t, 0, 3)
	p := newPool(env, store, 2*rn101, LRU{})
	p.Preload(m.Expert(0))
	p.Preload(m.Expert(1))
	acquireRun(env, p, m.Expert(0)) // pin 0; LRU would otherwise pick it
	acquireRun(env, p, m.Expert(2)) // must evict 1, not pinned 0
	p.Release(2)
	p.Release(0)
	env.Run()
	if !p.IsLoaded(0) {
		t.Error("pinned expert was evicted")
	}
	if p.IsLoaded(1) {
		t.Error("unpinned expert survived over pinned")
	}
}

func TestReleaseWithoutAcquirePanics(t *testing.T) {
	env, store, _ := testWorld(t, 0, 2)
	p := newPool(env, store, 2*rn101, LRU{})
	defer func() {
		if recover() == nil {
			t.Error("no panic for unpaired release")
		}
	}()
	p.Release(0)
}

func TestResetStats(t *testing.T) {
	env, store, m := testWorld(t, 0, 2)
	p := newPool(env, store, 4*rn101, LRU{})
	acquireRun(env, p, m.Expert(0))
	p.Release(0)
	env.Run()
	if p.Switches() != 1 {
		t.Fatal("setup: expected one switch")
	}
	p.ResetStats()
	if p.Switches() != 0 || p.Evictions() != 0 || p.LoadTime() != 0 {
		t.Error("ResetStats did not zero counters")
	}
}

func TestStoreCacheHitIsFastAndExclusive(t *testing.T) {
	env, store, m := testWorld(t, 4*rn101, 2)
	e := m.Expert(0)
	// Simulate a prior eviction into the cache.
	store.demote(e, memory.TierGPU)
	if !store.Cached(e.ID) {
		t.Fatal("demoted expert not cached")
	}
	p := newPool(env, store, 4*rn101, LRU{})
	acquireRun(env, p, e)
	p.Release(e.ID)
	end := env.Run()
	want := xfer.LoadLatency(hw.NUMADevice(), xfer.FromHost, memory.TierGPU, e.WeightBytes())
	if end != sim.Time(want) {
		t.Errorf("cache-hit load took %v, want %v", end, want)
	}
	if p.HostHits() != 1 || p.SSDLoads() != 0 {
		t.Errorf("host=%d ssd=%d, want 1/0", p.HostHits(), p.SSDLoads())
	}
	if store.Cached(e.ID) {
		t.Error("cache not exclusive: expert still cached after fetch")
	}
}

func TestStoreDemotionFillsCacheWithLRUEviction(t *testing.T) {
	_, store, m := testWorld(t, 2*rn101, 3)
	store.demote(m.Expert(0), memory.TierGPU)
	store.demote(m.Expert(1), memory.TierGPU)
	store.demote(m.Expert(2), memory.TierGPU) // evicts 0 (LRU)
	if store.Cached(0) {
		t.Error("cache did not evict its LRU entry")
	}
	if !store.Cached(1) || !store.Cached(2) {
		t.Error("cache holds wrong entries")
	}
	if store.CacheLen() != 2 {
		t.Errorf("cache len = %d, want 2", store.CacheLen())
	}
}

func TestStoreWithoutCache(t *testing.T) {
	_, store, m := testWorld(t, 0, 2)
	store.demote(m.Expert(0), memory.TierGPU) // must be a no-op
	if store.Cached(0) || store.CacheLen() != 0 || store.CacheBytes() != 0 {
		t.Error("cache-less store is caching")
	}
}

func TestCPUEvictionsDoNotEnterCache(t *testing.T) {
	_, store, m := testWorld(t, 4*rn101, 2)
	store.demote(m.Expert(0), memory.TierCPU)
	if store.Cached(0) {
		t.Error("CPU-tier eviction entered the GPU demotion cache")
	}
}

// switchPrice reads the store's switch-in price of the expert into the
// tier.
func switchPrice(s *Store, id coe.ExpertID, t memory.Tier) time.Duration {
	_, lat := s.Prices().Row(int(id))
	return lat[t]
}

func TestPredictLoad(t *testing.T) {
	_, store, m := testWorld(t, 4*rn101, 2)
	e := m.Expert(0)
	ssd := switchPrice(store, e.ID, memory.TierGPU)
	wantSSD := xfer.LoadLatency(hw.NUMADevice(), xfer.FromSSD, memory.TierGPU, e.WeightBytes())
	if ssd != wantSSD {
		t.Errorf("price uncached = %v, want %v", ssd, wantSSD)
	}
	store.demote(e, memory.TierGPU)
	cached := switchPrice(store, e.ID, memory.TierGPU)
	wantHost := xfer.LoadLatency(hw.NUMADevice(), xfer.FromHost, memory.TierGPU, e.WeightBytes())
	if cached != wantHost {
		t.Errorf("price cached = %v, want %v", cached, wantHost)
	}
}

// TestSwitchInMatchesLoadLatency: a pool's switch-in estimate is 0 for
// a Loaded expert and otherwise exactly xfer.LoadLatency from the tier
// the store would fetch from — for every expert, destination tier, and
// cached or uncached state.
func TestSwitchInMatchesLoadLatency(t *testing.T) {
	for _, tier := range []memory.Tier{memory.TierGPU, memory.TierCPU} {
		for _, loaded := range []bool{false, true} {
			for _, cached := range []bool{false, true} {
				env, store, m := testWorld(t, 4*model.YOLOv5m.WeightBytes(), 3)
				p := New("p", 8*model.YOLOv5m.WeightBytes(), store, tier, LRU{}, env.Now)
				Carve([]*Pool{p})
				for _, e := range m.Experts() {
					if cached {
						store.demote(e, memory.TierGPU)
					}
					if loaded {
						p.Preload(e)
					}
					src := xfer.FromSSD
					if cached {
						src = xfer.FromHost
					}
					want := xfer.LoadLatency(hw.NUMADevice(), src, tier, e.WeightBytes())
					if got := switchPrice(store, e.ID, tier); got != want {
						t.Errorf("%v cached=%v expert %d: store price %v, want %v", tier, cached, e.ID, got, want)
					}
					if loaded {
						want = 0
					}
					if got := p.SwitchIn(e); got != want || p.IsLoaded(e.ID) != loaded || store.Cached(e.ID) != cached {
						t.Errorf("%v loaded=%v cached=%v expert %d: SwitchIn = %v, want %v", tier, loaded, cached, e.ID, got, want)
					}
				}
			}
		}
	}
}

func TestPolicyByName(t *testing.T) {
	for _, name := range []string{"lru", "fifo", "dep-aware"} {
		pol, ok := PolicyByName(name)
		if !ok || pol.Name() != name {
			t.Errorf("PolicyByName(%q) = %v, %v", name, pol, ok)
		}
	}
	if _, ok := PolicyByName("magic"); ok {
		t.Error("unknown policy resolved")
	}
}

func TestStatusStrings(t *testing.T) {
	if Absent.String() != "absent" || Loading.String() != "loading" || Loaded.String() != "loaded" {
		t.Error("status strings wrong")
	}
	if Status(9).String() == "" {
		t.Error("unknown status string empty")
	}
}

// TestRandomAcquireReleaseInvariants drives random acquire/release
// sequences under every policy and checks the pool bookkeeping
// invariants the design document promises.
func TestRandomAcquireReleaseInvariants(t *testing.T) {
	policies := []Policy{LRU{}, FIFO{}, DepAware{}}
	for _, pol := range policies {
		pol := pol
		t.Run(pol.Name(), func(t *testing.T) {
			rng := rand.New(rand.NewSource(42))
			env, store, m := testWorld(t, 3*rn101, 8)
			p := newPool(env, store, 3*rn101, pol)
			for i := 0; i < 200; i++ {
				e := m.Expert(coe.ExpertID(rng.Intn(m.NumExperts())))
				acquireRun(env, p, e)
				if p.FreeBytes() < 0 {
					t.Error("negative free bytes")
				}
				sleep(env, time.Duration(rng.Intn(50))*time.Millisecond)
				p.Release(e.ID)
				if got := p.Loaded(); got < 1 {
					t.Errorf("loaded = %d after acquire", got)
				}
			}
			env.Run()
			// Conservation: switches - evictions = resident delta.
			if int64(p.Loaded()) != p.Switches()-p.Evictions() {
				t.Errorf("loaded=%d switches=%d evictions=%d: conservation broken",
					p.Loaded(), p.Switches(), p.Evictions())
			}
		})
	}
}

// TestLoadedUnpinnedIDOrder: eviction candidates come back in ascending
// ExpertID order whatever order the experts were loaded in — a walk of
// the ID-indexed table, with no sort — pinned experts are left out, and
// a warm call allocates nothing.
func TestLoadedUnpinnedIDOrder(t *testing.T) {
	env, store, m := testWorld(t, 0, 6)
	p := newPool(env, store, 10*rn101, LRU{})
	for _, id := range []coe.ExpertID{5, 2, 4, 0, 3} {
		if !p.Preload(m.Expert(id)) {
			t.Fatalf("preload of expert %d failed", id)
		}
	}
	ids := func() []coe.ExpertID {
		var out []coe.ExpertID
		for _, e := range p.LoadedUnpinned() {
			out = append(out, e.Expert.ID)
		}
		return out
	}
	if got, want := ids(), []coe.ExpertID{0, 2, 3, 4, 5}; !slices.Equal(got, want) {
		t.Errorf("candidates = %v, want %v", got, want)
	}
	acquireRun(env, p, m.Expert(3))
	if got, want := ids(), []coe.ExpertID{0, 2, 4, 5}; !slices.Equal(got, want) {
		t.Errorf("candidates with expert 3 pinned = %v, want %v", got, want)
	}
	p.Release(3)
	env.Run()
	if allocs := testing.AllocsPerRun(100, func() { p.LoadedUnpinned() }); allocs > 0 {
		t.Errorf("LoadedUnpinned allocated %.2f objects/op, want 0", allocs)
	}
}

// TestTrackResidency: a tally shared by two pools of one node counts,
// per expert, the pools holding it — loads in flight included — from the
// moment it is attached, through evictions, and the node's bit in each
// expert's row of the holder bitset is set exactly while the count is
// nonzero.
func TestTrackResidency(t *testing.T) {
	env, store, m := testWorld(t, 0, 3)
	a := newPool(env, store, rn101+rn101/2, LRU{})
	b := New("gpu1", 2*rn101+rn101/2, store, memory.TierGPU, LRU{}, env.Now)
	Carve([]*Pool{b})
	a.Preload(m.Expert(0))
	b.Preload(m.Expert(0))
	b.Preload(m.Expert(1))
	// A 70-node fleet: two words per expert, and the node is bit 3 of
	// the second.
	const fleet, node = 70, 67
	tally := make([]uint8, m.NumExperts())
	holders := memory.NewResidency(fleet, m.NumExperts())
	a.TrackResidency(tally, holders, holders.Slot(node))
	b.TrackResidency(tally, holders, holders.Slot(node))
	check := func(when string, want ...uint8) {
		t.Helper()
		for id, w := range want {
			if tally[id] != w {
				t.Errorf("%s: expert %d tally = %d, want %d", when, id, tally[id], w)
			}
			row := holders.Row(id)
			held := row[1] == 1<<3 && row[0] == 0
			if empty := row[1] == 0 && row[0] == 0; !(w > 0 && held || w == 0 && empty) {
				t.Errorf("%s: expert %d holder row %#x/%#x with tally %d", when, id, row[0], row[1], w)
			}
		}
	}
	check("attached", 2, 1, 0)
	acquireRun(env, a, m.Expert(2)) // evicts expert 0 from a
	check("after switch", 1, 1, 1)
	a.Release(2)
	env.Run()
	acquireRun(env, b, m.Expert(2)) // evicts expert 0 from b too
	check("after second switch", 0, 1, 2)
	b.Release(2)
	env.Run()
}

// TestLoadedBitsMatchStatus: the Loaded table answers IsLoaded, so it
// must equal a scan of the entries' statuses after every preload, load
// start, load completion and eviction — in the pool's own table, and
// carved into a table it shares in slot 1.
func TestLoadedBitsMatchStatus(t *testing.T) {
	for _, shared := range []bool{false, true} {
		env, store, m := testWorld(t, rn101, 70)
		p := newPool(env, store, 3*rn101, DepAware{})
		if shared {
			Carve([]*Pool{newPool(env, store, rn101, LRU{}), p})
		}
		check := func(when string) {
			t.Helper()
			loaded := 0
			for id := 0; id < m.NumExperts(); id++ {
				e := p.entry(coe.ExpertID(id))
				want := e != nil && e.Status == Loaded
				if want {
					loaded++
				}
				if p.IsLoaded(coe.ExpertID(id)) != want {
					t.Fatalf("shared=%v %s: expert %d IsLoaded = %v, status scan %v", shared, when, id, !want, want)
				}
			}
			if p.Loaded() != loaded {
				t.Fatalf("shared=%v %s: Loaded() = %d, status scan %d", shared, when, p.Loaded(), loaded)
			}
		}
		p.Preload(m.Expert(69))
		check("preload")
		rng := rand.New(rand.NewSource(29))
		for i := 0; i < 40; i++ {
			e := m.Expert(coe.ExpertID(rng.Intn(m.NumExperts())))
			if p.Resident(e.ID) {
				continue
			}
			done := false
			p.Acquire(e, func() { done = true })
			check("load started")
			env.Run()
			if !done {
				t.Fatal("load never landed")
			}
			check("load landed")
			p.Release(e.ID)
		}
		if p.Evictions() == 0 {
			t.Fatalf("shared=%v: no eviction; the test exercises too little", shared)
		}
	}
}

// refDepAware is DepAware as two stable sorts of the ID-ordered
// candidates, orphans by size and the rest by usage probability: the
// reference the walks of the resident list are checked against.
type refDepAware struct{}

func (refDepAware) Name() string { return "ref-dep-aware" }

// refTakeUntil collects entries' IDs in order, into a fresh slice, until
// their sizes cover need.
func refTakeUntil(entries []*Entry, need int64) []coe.ExpertID {
	var out []coe.ExpertID
	var freed int64
	for _, e := range entries {
		if freed >= need {
			break
		}
		out = append(out, e.Expert.ID)
		freed += e.Bytes
	}
	return out
}

// refOrphaned is orphaned as a scan: a subsequent expert none of whose
// DependsOn is Loaded in the pool.
func refOrphaned(p *Pool, e *coe.Expert) bool {
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

func (refDepAware) Victims(p *Pool, need int64) []coe.ExpertID {
	var orphans, rest []*Entry
	for _, e := range p.LoadedUnpinned() {
		if refOrphaned(p, e.Expert) {
			orphans = append(orphans, e)
		} else {
			rest = append(rest, e)
		}
	}
	slices.SortStableFunc(orphans, func(a, b *Entry) int {
		return cmp.Compare(b.Bytes, a.Bytes)
	})
	out := refTakeUntil(orphans, need)
	var freed int64
	for _, id := range out {
		freed += p.entry(id).Bytes
	}
	if freed >= need {
		return out
	}
	slices.SortStableFunc(rest, func(a, b *Entry) int {
		return cmp.Compare(a.Expert.UsageProb, b.Expert.UsageProb)
	})
	return append(out, refTakeUntil(rest, need-freed)...)
}

// refProbOnly is the stable sort by usage probability of the ID-ordered
// candidates that ProbOnly's walk of the resident list replaced.
func refProbOnly(p *Pool, need int64) []coe.ExpertID {
	entries := slices.Clone(p.LoadedUnpinned())
	slices.SortStableFunc(entries, func(a, b *Entry) int {
		return cmp.Compare(a.Expert.UsageProb, b.Expert.UsageProb)
	})
	return refTakeUntil(entries, need)
}

// TestDepAwareMatchesReference draws random pools — roles, dependency
// links, pins, loads in flight, tied usage probabilities and tied sizes
// — and checks that DepAware picks exactly the reference's victim
// sequence, for needs that stage 1 covers alone and needs it does not.
func TestDepAwareMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(20250314))
	var stage1Only, stage2 int
	for trial := 0; trial < 500; trial++ {
		// Up to 60 experts with a per-trial subsequent share, so both
		// parts often hold more than a handful of candidates.
		n := 2 + rng.Intn(60)
		m := randomModel(t, rng, n)
		env := sim.NewEnv()
		store := NewStore(env, hw.NUMADevice(), 0, m)
		p := newPool(env, store, int64(n)*model.YOLOv5l.WeightBytes(), DepAware{})
		var unpinned int64
		for _, e := range m.Experts() {
			if rng.Intn(4) == 0 {
				continue // absent
			}
			p.Preload(e)
			switch entry := p.entry(e.ID); rng.Intn(6) {
			case 0:
				entry.Pins = 1
			case 1:
				// A load in flight: it counts for no dependent.
				p.count(entry, -1)
				entry.Status = Loading
				p.setLoaded(e.ID, false)
			default:
				unpinned += entry.Bytes
			}
		}
		if unpinned == 0 {
			continue
		}
		for k := 0; k < 4; k++ {
			need := 1 + rng.Int63n(unpinned+unpinned/4)
			want := refDepAware{}.Victims(p, need)
			got := DepAware{}.Victims(p, need)
			if !slices.Equal(got, want) {
				t.Fatalf("trial %d need %d: victims %v, reference %v", trial, need, got, want)
			}
			var orphanBytes int64
			for _, e := range p.LoadedUnpinned() {
				if refOrphaned(p, e.Expert) {
					orphanBytes += e.Bytes
				}
			}
			if need <= orphanBytes {
				stage1Only++
			} else {
				stage2++
			}
		}
	}
	if stage1Only < 50 || stage2 < 50 {
		t.Errorf("draws covered by stage 1 alone: %d, needing stage 2: %d; want at least 50 of each", stage1Only, stage2)
	}
}

// TestVictimsSteadyStateAllocations pins a warm DepAware.Victims call,
// through both stages, at zero allocations.
func TestVictimsSteadyStateAllocations(t *testing.T) {
	env, store, m := testWorld(t, 0, 12)
	p := newPool(env, store, 20*rn101, DepAware{})
	for _, e := range m.Experts() {
		if e.ID != 0 && e.ID != 1 {
			p.Preload(e) // the detector is orphaned: its classifiers are absent
		}
	}
	for _, need := range []int64{1, 6 * rn101} {
		DepAware{}.Victims(p, need)
		if allocs := testing.AllocsPerRun(100, func() { DepAware{}.Victims(p, need) }); allocs != 0 {
			t.Errorf("need %d: Victims allocated %.0f objects/op, want 0", need, allocs)
		}
	}
}

// TestSwitchSteadyStateAllocations pins a warm expert switch — an
// Acquire miss that evicts and loads, then its Release — at zero
// allocations, host-cache demotion and fetch included.
func TestSwitchSteadyStateAllocations(t *testing.T) {
	env, store, m := testWorld(t, 2*rn101, 5)
	p := newPool(env, store, 3*rn101, DepAware{})
	classifiers := m.Experts()[:5]
	switchOnce := func() {
		for _, e := range classifiers {
			if !p.Resident(e.ID) {
				if !acquireRun(env, p, e) {
					t.Errorf("acquire of absent expert %d was not a switch", e.ID)
				}
				p.Release(e.ID)
				return
			}
		}
	}
	for i := 0; i < 10; i++ {
		switchOnce()
	}
	allocs := testing.AllocsPerRun(100, switchOnce)
	if p.Evictions() < 100 {
		t.Fatalf("evictions = %d, want every switch to evict", p.Evictions())
	}
	if allocs != 0 {
		t.Errorf("switch allocated %.0f objects/op, want 0", allocs)
	}
}

// TestHostCacheDemoteAllocations pins a warm host-cache demotion that
// evicts the cache's LRU entry at zero allocations.
func TestHostCacheDemoteAllocations(t *testing.T) {
	_, store, m := testWorld(t, 2*rn101, 3)
	i := 0
	demote := func() {
		store.demote(m.Expert(coe.ExpertID(i%3)), memory.TierGPU)
		i++
	}
	for k := 0; k < 10; k++ {
		demote()
	}
	if allocs := testing.AllocsPerRun(100, demote); allocs != 0 {
		t.Errorf("demote allocated %.0f objects/op, want 0", allocs)
	}
	if store.CacheLen() != 2 {
		t.Errorf("cache len = %d, want 2", store.CacheLen())
	}
}

// TestSharedAcquireWaitsForLoad: two sharers acquire the same absent
// expert on one shared pool at one instant. The first switches it in;
// the second waits on the lazily created ready event, continues only
// once the load has landed, and both end up holding a pin.
func TestSharedAcquireWaitsForLoad(t *testing.T) {
	env, store, m := testWorld(t, 0, 2)
	p := newPool(env, store, 4*rn101, DepAware{})
	e := m.Expert(0)
	var switched [2]bool
	var at [2]sim.Time
	for i := range switched {
		env.After(0, func() {
			switched[i] = !p.Resident(e.ID)
			if p.Acquire(e, func() { at[i] = env.Now() }) {
				t.Errorf("sharer %d pinned an absent expert at once", i)
			}
		})
	}
	env.Run()
	if !switched[0] || switched[1] {
		t.Errorf("switched = %v, want only the first acquirer to switch", switched)
	}
	if p.Switches() != 1 {
		t.Errorf("switches = %d, want 1", p.Switches())
	}
	load := sim.Time(xfer.LoadLatency(hw.NUMADevice(), xfer.FromSSD, memory.TierGPU, e.WeightBytes()))
	if at[0] != load || at[1] != load {
		t.Errorf("acquires returned at %v, want both at the load's end %v", at, load)
	}
	if pins := p.entry(e.ID).Pins; pins != 2 {
		t.Errorf("pins = %d, want 2", pins)
	}
}

// randomModel builds a model of n experts with random architectures,
// roles, dependency links and usage probabilities drawn from a small set,
// so ties on usage probability and on size are common.
func randomModel(t *testing.T, rng *rand.Rand, n int) *coe.Model {
	t.Helper()
	archs := []model.Architecture{model.ResNet101, model.YOLOv5m, model.YOLOv5l}
	probs := []float64{0.05, 0.1, 0.1, 0.2, 0.3}
	subShare := rng.Float64()
	b := coe.NewBuilder("prop")
	var prelim, subs []coe.ExpertID
	for i := 0; i < n; i++ {
		role := coe.Preliminary
		if rng.Float64() < subShare {
			role = coe.Subsequent
		}
		id := b.AddExpert("e", archs[rng.Intn(len(archs))], role)
		if role == coe.Preliminary {
			prelim = append(prelim, id)
		} else {
			subs = append(subs, id)
		}
	}
	for _, s := range subs {
		for k := rng.Intn(3); k > 0 && len(prelim) > 0; k-- {
			b.Link(prelim[rng.Intn(len(prelim))], s)
		}
	}
	m, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range m.Experts() {
		e.UsageProb = probs[rng.Intn(len(probs))]
	}
	return m
}

// TestResidentOrderUnderRandomOps drives random Preload, Acquire,
// Release and direct evict steps — from one process, and from three
// sharing one pool — and after every step checks that the pool's
// resident list is exactly a fresh (UsageProb, ID) sort of its entries,
// that DepAware and ProbOnly pick exactly the victims of the sorting
// references for several needs, and that the host cache's membership
// flags name exactly the experts on its LRU list (evictions insert into
// it and evict its LRU entries; acquires take from it).
func TestResidentOrderUnderRandomOps(t *testing.T) {
	for _, sharers := range []int{1, 3} {
		rng := rand.New(rand.NewSource(int64(17 + sharers)))
		var steps, stage2, evicted, cacheHits int
		for trial := 0; trial < 40; trial++ {
			m := randomModel(t, rng, 4+rng.Intn(40))
			env := sim.NewEnv()
			store := NewStore(env, hw.NUMADevice(), 3*model.YOLOv5l.WeightBytes(), m)
			// Each sharer pins at most two experts, so eight of the
			// largest always leave room for a switch.
			p := newPool(env, store, 8*model.YOLOv5l.WeightBytes(), DepAware{})
			check := func(when string) {
				steps++
				checkLive(t, p, m, when)
				var want []*Entry
				for _, e := range p.entries {
					if e != nil {
						want = append(want, e)
					}
				}
				slices.SortFunc(want, func(a, b *Entry) int {
					if c := cmp.Compare(a.Expert.UsageProb, b.Expert.UsageProb); c != 0 {
						return c
					}
					return cmp.Compare(a.Expert.ID, b.Expert.ID)
				})
				if !slices.Equal(p.resident, want) {
					t.Fatalf("sharers %d trial %d after %s: resident list out of order", sharers, trial, when)
				}
				for _, e := range m.Experts() {
					if got, want := store.Cached(e.ID), store.cache.find(e.ID) >= 0; got != want {
						t.Fatalf("sharers %d trial %d after %s: expert %d cached flag %v, LRU list %v", sharers, trial, when, e.ID, got, want)
					}
				}
				var unpinned, orphanBytes int64
				for _, e := range p.LoadedUnpinned() {
					unpinned += e.Bytes
					if refOrphaned(p, e.Expert) {
						orphanBytes += e.Bytes
					}
				}
				if unpinned == 0 {
					return
				}
				for k := 0; k < 3; k++ {
					need := 1 + rng.Int63n(unpinned+unpinned/4)
					if need > orphanBytes {
						stage2++
					}
					got := slices.Clone(DepAware{}.Victims(p, need))
					if want := (refDepAware{}).Victims(p, need); !slices.Equal(got, want) {
						t.Fatalf("sharers %d trial %d after %s, need %d: DepAware victims %v, reference %v",
							sharers, trial, when, need, got, want)
					}
					got = slices.Clone(ProbOnly{}.Victims(p, need))
					if want := refProbOnly(p, need); !slices.Equal(got, want) {
						t.Fatalf("sharers %d trial %d after %s, need %d: ProbOnly victims %v, reference %v",
							sharers, trial, when, need, got, want)
					}
				}
			}
			for _, e := range m.Experts() {
				if rng.Intn(2) == 0 {
					p.Preload(e)
					check("setup preload")
				}
			}
			pools := make([]*Pool, sharers)
			for i := range pools {
				pools[i] = p
			}
			evicted += driveRandomOps(rng, env, m, pools, check)
			cacheHits += int(p.HostHits())
		}
		t.Logf("sharers %d: %d checked steps, %d draws needing stage 2, %d direct evictions, %d host-cache hits", sharers, steps, stage2, evicted, cacheHits)
		if stage2 < 100 || evicted < 50 || cacheHits < 20 {
			t.Errorf("sharers %d: %d draws needing stage 2, %d direct evictions and %d host-cache hits; want at least 100, 50 and 20", sharers, stage2, evicted, cacheHits)
		}
	}
}

// TestHostCacheRedemoteBecomesMostRecent: two GPU pools share a store,
// so an expert one pool evicts can already sit in the host cache because
// the other pool evicted it earlier. Demoting it again must make it the
// most recent entry, so the next demotion into the full cache evicts the
// entry behind it instead.
func TestHostCacheRedemoteBecomesMostRecent(t *testing.T) {
	env, store, m := testWorld(t, 2*rn101, 5)
	a := newPool(env, store, rn101, LRU{})
	b := New("gpu1", rn101, store, memory.TierGPU, LRU{}, env.Now)
	Carve([]*Pool{b})
	a.Preload(m.Expert(0))
	b.Preload(m.Expert(0))
	for _, step := range []struct {
		p  *Pool
		id coe.ExpertID
	}{
		{a, 1}, // a demotes 0: cache [0]
		{a, 2}, // a demotes 1: cache [0 1]
		{b, 3}, // b demotes 0, already cached: cache [1 0]
		{a, 4}, // a demotes 2, evicting the least recent: cache [0 2]
	} {
		acquireRun(env, step.p, m.Expert(step.id))
		step.p.Release(step.id)
	}
	env.Run()
	if !store.Cached(0) || store.Cached(1) || !store.Cached(2) || store.CacheLen() != 2 {
		t.Errorf("cached 0/1/2 = %v/%v/%v with %d entries, want true/false/true with 2",
			store.Cached(0), store.Cached(1), store.Cached(2), store.CacheLen())
	}
}

// driveRandomOps runs one driver per element of pools, so a pool listed
// more than once is shared by those drivers, as the Samba-CoE Parallel
// executors share theirs. Each driver takes 60 random steps — Acquire
// (pinning at most two experts at a time), Release, Preload, a direct
// evict of part of the unpinned bytes, or a sleep — and check runs
// after every step and as each switch-in starts. It runs env to the end
// and reports the number of direct evictions.
func driveRandomOps(rng *rand.Rand, env *sim.Env, m *coe.Model, pools []*Pool, check func(when string)) int {
	evicted := 0
	for _, p := range pools {
		var held []coe.ExpertID
		op := 0
		var step func()
		step = func() {
			for ; op < 60; op++ {
				e := m.Expert(coe.ExpertID(rng.Intn(m.NumExperts())))
				switch r := rng.Intn(10); {
				case r < 4 && len(held) < 2:
					held = append(held, e.ID)
					pinned := func() {
						check("acquire")
						op++
						step()
					}
					if !p.Acquire(e, pinned) {
						check("load started")
						return
					}
					check("acquire")
				case r < 7 && len(held) > 0:
					k := rng.Intn(len(held))
					p.Release(held[k])
					held = slices.Delete(held, k, k+1)
					check("release")
				case r < 8:
					p.Preload(e)
					check("preload")
				case r < 9:
					var unpinned int64
					for _, c := range p.LoadedUnpinned() {
						unpinned += c.Bytes
					}
					if unpinned > 0 {
						p.evict(1 + rng.Int63n(unpinned))
						evicted++
						check("evict")
					}
				default:
					op++
					env.After(time.Duration(rng.Intn(200))*time.Millisecond, step)
					return
				}
			}
			for _, id := range held {
				p.Release(id)
			}
			check("final release")
		}
		env.After(0, step)
	}
	env.Run()
	return evicted
}

// checkLive fails the test unless every resident expert's live count in
// p, Loaded or loading, equals a fresh scan of its DependsOn over
// IsLoaded, and the pool's orphan count equals the Loaded experts the
// scan finds orphaned.
func checkLive(t *testing.T, p *Pool, m *coe.Model, when string) {
	t.Helper()
	orphans := 0
	for _, e := range m.Experts() {
		entry := p.entry(e.ID)
		if entry == nil {
			continue
		}
		var want int32
		for _, dep := range e.DependsOn {
			if p.IsLoaded(dep) {
				want++
			}
		}
		if entry.live != want {
			t.Fatalf("pool %s after %s: expert %d counts %d loaded dependencies, scan finds %d", p.Name(), when, e.ID, entry.live, want)
		}
		if entry.Status == Loaded && refOrphaned(p, e) {
			orphans++
		}
	}
	if p.orphans != orphans {
		t.Fatalf("pool %s after %s: counts %d orphans, scan finds %d", p.Name(), when, p.orphans, orphans)
	}
}

// multiParentModel builds nCls classifiers and nDet detectors, each
// detector fed by 1 to 24 distinct random classifiers (board A's
// detectors wait on 7 on average and 14 at most), so one classifier
// also feeds several detectors.
func multiParentModel(t *testing.T, rng *rand.Rand, nCls, nDet int) *coe.Model {
	t.Helper()
	b := coe.NewBuilder("multi")
	cls := make([]coe.ExpertID, nCls)
	for i := range cls {
		cls[i] = b.AddExpert("c", model.ResNet101, coe.Preliminary)
	}
	for range nDet {
		det := b.AddExpert("d", model.YOLOv5m, coe.Subsequent)
		for _, i := range rng.Perm(nCls)[:1+rng.Intn(min(nCls, 24))] {
			b.Link(cls[i], det)
		}
	}
	m, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range m.Experts() {
		e.UsageProb = rng.Float64()
	}
	return m
}

// TestLiveDepsMatchScan drives seeded random Preload, Acquire, Release
// and eviction sequences on models with multi-parent detectors and,
// after every step and as each switch-in starts, checks each pool's
// live-dependency and orphan counts against a fresh DependsOn scan over
// IsLoaded: for three per-executor pools on one store, and for one pool
// shared by three drivers (SambaParallel's arrangement). It also checks
// DepAware against the scanning reference for one need per step, so a
// drifting count shows up as a wrong victim too.
func TestLiveDepsMatchScan(t *testing.T) {
	for _, shared := range []bool{false, true} {
		rng := rand.New(rand.NewSource(29))
		var steps, evicted, orphans int
		for trial := 0; trial < 30; trial++ {
			m := multiParentModel(t, rng, 4+rng.Intn(28), 1+rng.Intn(12))
			env := sim.NewEnv()
			store := NewStore(env, hw.NUMADevice(), 3*model.YOLOv5l.WeightBytes(), m)
			pools := make([]*Pool, 3)
			distinct := pools
			if shared {
				distinct = pools[:1]
			}
			for i := range pools {
				if i >= len(distinct) {
					pools[i] = pools[0]
					continue
				}
				pools[i] = New(fmt.Sprintf("gpu%d", i), 8*model.YOLOv5l.WeightBytes(), store, memory.TierGPU, DepAware{}, env.Now)
			}
			Carve(distinct)
			check := func(when string) {
				steps++
				for _, p := range distinct {
					checkLive(t, p, m, when)
					var unpinned int64
					for _, e := range p.LoadedUnpinned() {
						unpinned += e.Bytes
						if refOrphaned(p, e.Expert) {
							orphans++
						}
					}
					if unpinned == 0 {
						continue
					}
					need := 1 + rng.Int63n(unpinned)
					got := slices.Clone(DepAware{}.Victims(p, need))
					if want := (refDepAware{}).Victims(p, need); !slices.Equal(got, want) {
						t.Fatalf("shared %v trial %d pool %s after %s, need %d: DepAware victims %v, reference %v",
							shared, trial, p.Name(), when, need, got, want)
					}
				}
			}
			for _, p := range distinct {
				for _, e := range m.Experts() {
					if rng.Intn(3) == 0 {
						p.Preload(e)
						check("setup preload")
					}
				}
			}
			evicted += driveRandomOps(rng, env, m, pools, check)
		}
		t.Logf("shared %v: %d checked steps, %d direct evictions, %d orphans seen", shared, steps, evicted, orphans)
		if evicted < 50 || orphans < 100 {
			t.Errorf("shared %v: %d direct evictions and %d orphans seen; want at least 50 and 100", shared, evicted, orphans)
		}
	}
}

// TestCarveSharesOneLoadedTable: Carve moves a node's pools into one
// expert-major Loaded table, pools[i] in slot i of every row — two words
// a row for the 70 pools here. Bits a pool held before are kept, and
// after every preload, load and eviction each pool's bit in every row
// must equal a scan of its entries, whatever its neighbours in the row
// do.
func TestCarveSharesOneLoadedTable(t *testing.T) {
	env, store, m := testWorld(t, rn101, 30)
	pools := make([]*Pool, 70)
	for i := range pools {
		pools[i] = newPool(env, store, 3*rn101, LRU{})
	}
	pools[65].Preload(m.Expert(4)) // held before the move
	table := Carve(pools)
	if n := len(table.Row(0)); n != 2 || table.Experts() != m.NumExperts() {
		t.Fatalf("%d words a row, %d rows; want 2 and %d", n, table.Experts(), m.NumExperts())
	}
	for i, p := range pools {
		if p.Slot() != table.Slot(i) {
			t.Fatalf("pool %d in slot %+v, want %+v", i, p.Slot(), table.Slot(i))
		}
	}
	check := func(when string) {
		t.Helper()
		for i, p := range pools {
			for id := 0; id < m.NumExperts(); id++ {
				e := p.entry(coe.ExpertID(id))
				want := e != nil && e.Status == Loaded
				bit := table.Has(id, table.Slot(i))
				if bit != want || p.IsLoaded(coe.ExpertID(id)) != want {
					t.Fatalf("%s: pool %d expert %d: row bit %v, IsLoaded %v, status scan %v", when, i, id, bit, p.IsLoaded(coe.ExpertID(id)), want)
				}
			}
		}
	}
	check("carve")
	rng := rand.New(rand.NewSource(32))
	for step := 0; step < 400; step++ {
		p := pools[rng.Intn(len(pools))]
		e := m.Expert(coe.ExpertID(rng.Intn(m.NumExperts())))
		if rng.Intn(4) == 0 {
			p.Preload(e)
			check("preload")
			continue
		}
		if p.Resident(e.ID) {
			continue
		}
		p.Acquire(e, func() {})
		env.Run()
		check("load")
		p.Release(e.ID)
	}
	var evictions int64
	for _, p := range pools {
		evictions += p.Evictions()
	}
	if evictions == 0 {
		t.Fatal("no eviction; the test exercises too little")
	}
}
