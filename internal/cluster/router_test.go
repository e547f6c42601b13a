package cluster

import (
	"math/rand"
	"testing"

	"repro/internal/coe"
	"repro/internal/hw"
	"repro/internal/sim"
	"repro/internal/workload"
)

// scanLeastLoaded is LeastLoaded without the early exit: the full-scan
// reference the production router must agree with.
func scanLeastLoaded(nodes []*Node) int {
	best, bestQ := 0, nodes[0].Queued()
	for i := 1; i < len(nodes); i++ {
		if q := nodes[i].Queued(); q < bestQ {
			best, bestQ = i, q
		}
	}
	return best
}

// scanAffinity is Affinity without the early exit.
func scanAffinity(nodes []*Node, r *coe.Request) int {
	best, bestQ := -1, 0
	for i, n := range nodes {
		if !n.Resident(r.Expert()) {
			continue
		}
		if q := n.Queued(); best < 0 || q < bestQ {
			best, bestQ = i, q
		}
	}
	if best >= 0 {
		return best
	}
	return scanLeastLoaded(nodes)
}

// TestRoutersMatchFullScan: on random holder bitsets and backlogs the
// bitset routers pick exactly the node a full scan picks — over the
// whole fleet, over in-order subsets built as route builds them (mask
// beside them), over prefixes of the fleet's own slice, over copies of
// each of those in a slice of the test's own (the router marks the
// mask), and for experts no node holds (the least-loaded fallback).
// The fleet spans two bitset words, so a rank off by one word or bit
// shows. Backlogs are mostly 0 and 1, so an exit on the wrong backlog
// or before the residency test shows.
func TestRoutersMatchFullScan(t *testing.T) {
	const fleet = 70
	board := boardFor(t, workload.BoardA())
	m := board.Model
	cl := buildCluster(t, Config{Nodes: Uniform(fleet, nodeConfig(t, hw.NUMADevice()))}, m)
	f := cl.fleet
	rng := rand.New(rand.NewSource(22))
	var seq int64
	var early, fallbacks, subsets int
	for trial := 0; trial < 300; trial++ {
		// A random holder bitset of the trial's density, and random
		// backlogs on the real queues, which keep the fleet's backlog
		// slice and idle bitset current.
		density := rng.Float64()
		for id := 0; id < m.NumExperts(); id++ {
			for i := 0; i < fleet; i++ {
				f.holders.Set(id, f.holders.Slot(i), rng.Float64() < density)
			}
		}
		for _, n := range cl.nodes {
			q := n.sys.Queues()[0]
			q.Purge()
			for k := rng.Intn(4) / 2 * (1 + rng.Intn(2)); k > 0; k-- {
				seq++
				e := m.Expert(0)
				q.Enqueue(e, coe.NewRequest(seq, 0, []coe.ExpertID{0}), q.Predict(e))
			}
		}
		set := cl.nodes
		switch trial % 3 {
		case 1:
			// An in-order subset built as route builds one, from a
			// mask that stays beside it.
			mask := make([]uint64, len(f.all))
			for i := range cl.nodes {
				setBit(mask, i, rng.Intn(3) > 0)
			}
			if count(mask) == 0 {
				setBit(mask, 1, true)
			}
			set = f.subset(mask)
			subsets++
		case 2:
			// A prefix of the fleet's own slice: same first node, so
			// only the length tells it from the whole fleet.
			set = cl.nodes[:1+rng.Intn(fleet-1)]
			subsets++
		}
		// The same nodes in a slice of the test's own: the router marks
		// its mask from the slice.
		copied := append([]*Node(nil), set...)
		for _, s := range [][]*Node{set, copied} {
			if got, want := (LeastLoaded{}).Pick(0, s, nil), scanLeastLoaded(s); got != want {
				t.Fatalf("trial %d: least-loaded picked %d of %d, full scan %d", trial, got, len(s), want)
			}
		}
		for id := 0; id < m.NumExperts(); id++ {
			r := coe.NewRequest(seq, 0, []coe.ExpertID{coe.ExpertID(id)})
			want := scanAffinity(set, r)
			for _, s := range [][]*Node{set, copied} {
				if got := (Affinity{}).Pick(sim.Time(0), s, r); got != want {
					t.Fatalf("trial %d expert %d: affinity picked %d of %d, full scan %d", trial, id, got, len(s), want)
				}
			}
			held := false
			for _, n := range set {
				held = held || n.Resident(r.Expert())
			}
			if !held {
				fallbacks++
			} else if want < len(set)-1 && set[want].Queued() == 0 {
				early++
			}
		}
	}
	for _, n := range cl.nodes {
		n.sys.Queues()[0].Purge()
	}
	if early == 0 || fallbacks == 0 || subsets == 0 {
		t.Fatalf("%d early exits, %d no-holder fallbacks and %d subsets: the trials exercise too little", early, fallbacks, subsets)
	}
}

// TestRouterRejectsForeignNodes: a router handed nodes out of fleet
// order, or another fleet's nodes, has no mask to route over and says
// so.
func TestRouterRejectsForeignNodes(t *testing.T) {
	board := boardFor(t, workload.BoardA())
	a := buildCluster(t, Config{Nodes: Uniform(3, nodeConfig(t, hw.NUMADevice()))}, board.Model)
	b := buildCluster(t, Config{Nodes: Uniform(3, nodeConfig(t, hw.NUMADevice()))}, board.Model)
	r := coe.NewRequest(1, 0, []coe.ExpertID{0})
	for _, tc := range []struct {
		name  string
		nodes []*Node
	}{
		{"reversed", []*Node{a.nodes[2], a.nodes[0]}},
		{"mixed", []*Node{a.nodes[0], b.nodes[1]}},
	} {
		name, nodes := tc.name, tc.nodes
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: Affinity.Pick routed over nodes it has no mask for", name)
				}
			}()
			Affinity{}.Pick(0, nodes, r)
		}()
	}
}
