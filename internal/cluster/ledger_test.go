package cluster

import (
	"slices"
	"testing"
	"time"

	"repro/internal/hw"
	"repro/internal/sim"
	"repro/internal/workload"
)

// held counts what node i holds in the ledger's eyes: live leases whose
// primary or hedge copy sits there, plus orphaned hedge losers on it.
func (cs *chaosState) held(i int) int {
	n := 0
	for _, l := range cs.ledger {
		if l.node == i || l.hedgeNode == i {
			n++
		}
	}
	for _, on := range cs.orphans {
		if on == i {
			n++
		}
	}
	return n
}

// TestTrackCompactsInAdmissionOrder drives the per-node lease list
// directly: a sliding window of live leases, with most IDs resolved long
// ago. The list never outgrows four times what the node holds, and
// compaction keeps exactly the live IDs and orphans, in admission order.
func TestTrackCompactsInAdmissionOrder(t *testing.T) {
	const window = 5
	cs := newChaosState(2, nil)
	for id := int64(0); id < 100_000; id++ {
		cs.ledger[id] = &lease{id: id, node: 0, hedgeNode: -1}
		cs.track(0, id)
		if id >= window {
			delete(cs.ledger, id-window)
		}
		if id == 50 {
			cs.orphans[id] = 0 // a hedge loser still running here
		}
		if got, bound := cap(cs.byNode[0]), 4*(window+2); got > bound {
			t.Fatalf("after %d admissions the list has cap %d, want <= %d", id+1, got, bound)
		}
	}
	ids := cs.byNode[0]
	if !slices.IsSorted(ids) {
		t.Errorf("compaction reordered the list: %v", ids)
	}
	if ids[0] != 50 {
		t.Errorf("orphan on the node was compacted away: list starts %v", ids[:min(len(ids), 4)])
	}
	for id := int64(100_000 - window); id < 100_000; id++ {
		if !slices.Contains(ids, id) {
			t.Errorf("live lease %d missing from the list %v", id, ids)
		}
	}
}

// TestByNodeBoundedOnLongStream serves a long stream under crash churn
// and hedging and samples the ledger throughout: every node's lease list
// stays within a small multiple of the most that node ever held, instead
// of growing by one ID per routed request.
func TestByNodeBoundedOnLongStream(t *testing.T) {
	board := boardFor(t, workload.BoardA())
	cl := buildCluster(t, Config{
		Nodes:     Uniform(4, nodeConfig(t, hw.NUMADevice())),
		Router:    Affinity{},
		Placement: UsageProportional{},
		SLO:       time.Second,
		Hedge:     HedgeConfig{After: 2 * time.Second},
		Faults: &sim.FaultPlan{Events: []sim.FaultEvent{
			{At: 20 * time.Second, Node: 1, Kind: sim.FaultCrash},
			{At: 25 * time.Second, Node: 1, Kind: sim.FaultRecover},
			{At: 60 * time.Second, Node: 3, Kind: sim.FaultCrash},
			{At: 62 * time.Second, Node: 3, Kind: sim.FaultRecover},
		}},
	}, board.Model)

	maxHeld := make([]int, 4)
	maxLen := make([]int, 4)
	cl.env.Go("test/sample", func(p *sim.Proc) {
		for !cl.closedAll {
			p.Sleep(10 * time.Millisecond)
			cs := cl.chaos
			for i := range maxHeld {
				maxHeld[i] = max(maxHeld[i], cs.held(i))
				maxLen[i] = max(maxLen[i], len(cs.byNode[i]))
			}
		}
	})
	const n = 6000
	rep, err := cl.Serve(poissonFor(t, board, 20, n, 7))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Crashes != 2 || rep.Completions != n {
		t.Fatalf("stream did not run as scripted: %d crashes, %d/%d completions", rep.Crashes, rep.Completions, n)
	}
	for i := range maxHeld {
		t.Logf("node%d: routed %d, held at most %d, list at most %d", i, rep.Routed[i], maxHeld[i], maxLen[i])
		if bound := 4*maxHeld[i] + 8; maxLen[i] > bound {
			t.Errorf("node%d's lease list reached %d entries, want <= %d (4 x held %d + 8)", i, maxLen[i], bound, maxHeld[i])
		}
	}
}
