package sched

import (
	"math/rand"
	"testing"
	"time"

	"repro/internal/coe"
	"repro/internal/memory"
	"repro/internal/sim"
	"repro/internal/xfer"
)

// refLoad prices a switch-in as the device would: by architecture, 3x
// slower into the CPU tier, 4x faster from the host cache.
func refLoad(a uint8, dst memory.Tier, cached bool) time.Duration {
	d := time.Duration(1+int(a)) * 100 * time.Millisecond
	if dst == memory.TierCPU {
		d *= 3
	}
	if cached {
		d /= 4
	}
	return d
}

// refPredict is the §4.2 rule set as Queue.Predict applied it before
// the node's shared rows existed: the merge target and "does any group
// use this expert?" come from a scan of the queue's groups, and the
// switch-in from the pool's residency and the device's load latency,
// asked per queue.
func refPredict(q *Queue, e *coe.Expert, arch []uint8, k, b []time.Duration, loaded func(*Queue, coe.ExpertID) bool, cached []bool) time.Duration {
	a := arch[e.ID]
	var merge, has bool
	for i, g := range q.groups {
		if g.Expert.ID != e.ID {
			continue
		}
		has = true
		switch q.mode {
		case ModeGrouped:
			merge = merge || !g.started
		case ModeFIFO:
			merge = merge || (i == len(q.groups)-1 && !g.started)
		}
	}
	if merge {
		return k[a]
	}
	cost := k[a] + b[a]
	if !has && !loaded(q, e.ID) {
		cost += refLoad(a, q.tier, cached[e.ID])
	}
	return cost
}

// refPick is MinMax.Pick as it was before the node's shared rows: the
// same decision rule over refPredict.
func refPick(now sim.Time, qs []*Queue, predict func(*Queue) time.Duration) int {
	best := -1
	var bestTotal sim.Time
	var bestAdd time.Duration
	for i, q := range qs {
		add := predict(q)
		total := q.FinishTime(now).Add(add)
		for j, o := range qs {
			if j != i && o.FinishTime(now) > total {
				total = o.FinishTime(now)
			}
		}
		if best < 0 || total < bestTotal || (total == bestTotal && add < bestAdd) {
			best, bestTotal, bestAdd = i, total, add
		}
	}
	return best
}

// TestMinMaxMatchesReference drives random node states — grouped, FIFO
// and mixed queues with open groups and started heads, random pool
// residency and host-cache contents, random active subsets — and checks
// that MinMax picks the queue the reference picks, that every queue's
// Predict adds what the reference adds, and that the pick's Prediction
// is the picked queue's own.
func TestMinMaxMatchesReference(t *testing.T) {
	const experts, archs, nq = 40, 3, 6
	rng := rand.New(rand.NewSource(32))
	arch := make([]uint8, experts)
	for i := range arch {
		arch[i] = uint8(rng.Intn(archs))
	}
	byID := make([]*coe.Expert, experts)
	for i := range byID {
		byID[i] = &coe.Expert{ID: coe.ExpertID(i), Name: "e"}
	}
	// Two processor kinds: queues 0-3 on the GPU tier, 4-5 on the CPU.
	coefs := func(gpu bool) ([]time.Duration, []time.Duration) {
		k, b := make([]time.Duration, archs), make([]time.Duration, archs)
		for a := range k {
			k[a], b[a] = time.Duration(2+a)*time.Millisecond, time.Duration(5+2*a)*time.Millisecond
			if !gpu {
				k[a], b[a] = 7*k[a], 3*b[a]
			}
		}
		return k, b
	}
	for _, modes := range [][nq]Mode{
		{ModeGrouped, ModeGrouped, ModeGrouped, ModeGrouped, ModeGrouped, ModeGrouped},
		{ModeFIFO, ModeFIFO, ModeFIFO, ModeFIFO, ModeFIFO, ModeFIFO},
		{ModeGrouped, ModeFIFO, ModeGrouped, ModeFIFO, ModeGrouped, ModeFIFO},
	} {
		env := sim.NewEnv()
		// Queues 2 and 3 share a pool, as shared-pool variants do.
		pools := [nq]int{0, 1, 2, 2, 3, 4}
		loaded := memory.NewResidency(5, experts)
		prices := xfer.NewPrices(arch, func(a int, src xfer.Source, dst memory.Tier) time.Duration {
			return refLoad(uint8(a), dst, src == xfer.FromHost)
		})
		cached := make([]bool, experts)
		node := NewNode(nq, prices, loaded)
		qs := make([]*Queue, nq)
		ks, bs := make([][]time.Duration, nq), make([][]time.Duration, nq)
		for i := range qs {
			gpu := i < 4
			ks[i], bs[i] = coefs(gpu)
			tier := memory.TierGPU
			if !gpu {
				tier = memory.TierCPU
			}
			qs[i] = node.NewQueue(env, "q", modes[i], Costs{K: ks[i], B: bs[i], Tier: tier, Slot: loaded.Slot(pools[i])})
		}
		col := func(q *Queue) int { return int(q.col) }
		isLoaded := func(q *Queue, id coe.ExpertID) bool { return loaded.Has(int(id), loaded.Slot(pools[col(q)])) }
		var seq int64
		for step := 0; step < 3000; step++ {
			// Mutate the world: residency, cache, queue contents.
			for n := rng.Intn(3); n > 0; n-- {
				id, slot := rng.Intn(experts), loaded.Slot(rng.Intn(5))
				loaded.Set(id, slot, !loaded.Has(id, slot))
			}
			if rng.Intn(4) == 0 {
				id := rng.Intn(experts)
				cached[id] = !cached[id]
				src := xfer.FromSSD
				if cached[id] {
					src = xfer.FromHost
				}
				prices.SetSource(id, src)
			}
			q := qs[rng.Intn(nq)]
			switch r := rng.Intn(20); {
			case r < 4:
				q.TakeFromHead(nil, 1+rng.Intn(3))
			case r == 4 && rng.Intn(10) == 0:
				q.Purge()
			case r == 5:
				q.SetBusyUntil(env.Now().Add(time.Duration(rng.Intn(400)) * time.Millisecond))
			default:
				e := byID[rng.Intn(experts/4)] // a skewed expert mix, so groups recur
				if rng.Intn(3) == 0 {
					e = byID[rng.Intn(experts)]
				}
				push(q, e, coe.NewRequest(seq, 0, []coe.ExpertID{e.ID}))
				seq++
			}
			// Pick over a random active subset, in node order.
			var active []*Queue
			for _, q := range qs {
				if rng.Intn(3) > 0 {
					active = append(active, q)
				}
			}
			if len(active) == 0 {
				active = qs[:1]
			}
			e := byID[rng.Intn(experts)]
			ref := func(q *Queue) time.Duration {
				return refPredict(q, e, arch, ks[col(q)], bs[col(q)], isLoaded, cached)
			}
			for _, q := range active {
				if got, want := q.Predict(e).Add(), ref(q); got != want {
					t.Fatalf("%v step %d: queue %d Predict(%d) = %v, reference %v", modes, step, col(q), e.ID, got, want)
				}
			}
			want := refPick(env.Now(), active, ref)
			got, p := MinMax{}.Pick(env.Now(), active, e)
			if got != want {
				t.Fatalf("%v step %d: MinMax picked %d, reference %d", modes, step, got, want)
			}
			if p != active[got].Predict(e) {
				t.Fatalf("%v step %d: pick's prediction %+v, picked queue's %+v", modes, step, p, active[got].Predict(e))
			}
		}
	}
}
