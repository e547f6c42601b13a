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

// TestRoutersMatchFullScan: on random residency tables and backlogs the
// early-exit routers pick exactly the node a full scan picks — over the
// whole fleet, over the in-order subsets pickNode presents while nodes
// are faulted, and for experts no node holds (the least-loaded
// fallback). Backlogs are mostly 0 and 1, so an exit on the wrong
// backlog or before the residency test shows.
func TestRoutersMatchFullScan(t *testing.T) {
	const fleet = 12
	board := boardFor(t, workload.BoardA())
	m := board.Model
	cl := buildCluster(t, Config{Nodes: Uniform(fleet, nodeConfig(t, hw.NUMADevice()))}, m)
	rng := rand.New(rand.NewSource(22))
	// Each trial's nodes share the real systems (for Queued) but read a
	// random residency table of their own.
	table := make([]uint8, m.NumExperts()*fleet)
	nodes := make([]*Node, fleet)
	for i, n := range cl.nodes {
		nodes[i] = &Node{id: n.id, sys: n.sys, resident: table[i:], stride: fleet}
	}
	var seq int64
	var early, fallbacks int
	for trial := 0; trial < 400; trial++ {
		density := rng.Float64()
		for i := range table {
			table[i] = 0
			if rng.Float64() < density {
				table[i] = uint8(1 + rng.Intn(2))
			}
		}
		for _, n := range nodes {
			q := n.sys.Queues()[0]
			q.Purge()
			for k := rng.Intn(4) / 2 * (1 + rng.Intn(2)); k > 0; k-- {
				seq++
				q.Enqueue(m.Expert(0), coe.NewRequest(seq, 0, []coe.ExpertID{0}))
			}
		}
		set := nodes
		if trial%2 == 1 {
			set = nil
			for _, n := range nodes {
				if rng.Intn(3) > 0 {
					set = append(set, n)
				}
			}
			if len(set) == 0 {
				set = nodes[:1]
			}
		}
		if got, want := (LeastLoaded{}).Pick(0, set, nil), scanLeastLoaded(set); got != want {
			t.Fatalf("trial %d: least-loaded picked %d of %d, full scan %d", trial, got, len(set), want)
		}
		for id := 0; id < m.NumExperts(); id++ {
			r := coe.NewRequest(seq, 0, []coe.ExpertID{coe.ExpertID(id)})
			got, want := (Affinity{}).Pick(sim.Time(0), set, r), scanAffinity(set, r)
			if got != want {
				t.Fatalf("trial %d expert %d: affinity picked %d of %d, full scan %d", trial, id, got, len(set), want)
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
	for _, n := range nodes {
		n.sys.Queues()[0].Purge()
	}
	if early == 0 || fallbacks == 0 {
		t.Fatalf("%d early exits and %d no-holder fallbacks: the trials exercise too little", early, fallbacks)
	}
}
