package cluster

import (
	"testing"
	"time"

	"repro/internal/hw"
	"repro/internal/sim"
	"repro/internal/workload"
)

// checkPools asserts that every hold and lease the cluster ever made is
// back in its pool: between streams nothing may still refer to one, so
// an object missing from a free list leaked.
func checkPools(t testing.TB, c *Cluster) {
	t.Helper()
	free := 0
	for h := c.freeHolds; h != nil; h = h.next {
		free++
	}
	if free != len(c.holds) {
		t.Errorf("hold pool: %d of %d holds free after the stream", free, len(c.holds))
	}
	free = 0
	for l := c.freeLeases; l != nil; l = l.nextFree {
		free++
	}
	if free != c.leases {
		t.Errorf("lease pool: %d of %d leases free after the stream", free, c.leases)
	}
}

// heldOn counts node i's hold list.
func (c *Cluster) heldOn(i int) int {
	n := 0
	for h := c.nodes[i].firstHeld; h != nil; h = h.next {
		n++
	}
	return n
}

// killedOn counts copies a crash of node i killed whose drop has not
// folded back yet: requests of batches that were executing when the node
// crashed, which the node drops only when the batch's virtual execution
// ends.
func (c *Cluster) killedOn(i int) int {
	n := 0
	for _, h := range c.holds {
		if h.node == i && h.fate != nil {
			n++
		}
	}
	return n
}

// TestHoldListsMatchOutstanding samples a classic-kernel stream under
// crash churn and hedging every 10 ms: each node's hold list holds
// exactly the copies the node has admitted and neither completed nor
// dropped. A crash empties the list at once while the node still counts
// the batches it was executing until they unwind, so those killed
// copies are added back.
func TestHoldListsMatchOutstanding(t *testing.T) {
	board := boardFor(t, workload.BoardA())
	plan, err := sim.GenerateFaultPlan(4, 2*time.Second, 500*time.Millisecond, 40*time.Second, 1)
	if err != nil {
		t.Fatal(err)
	}
	cl := buildCluster(t, Config{
		Nodes:  Uniform(4, nodeConfig(t, hw.NUMADevice())),
		Router: Affinity{},
		Faults: plan,
		Hedge:  HedgeConfig{After: 300 * time.Millisecond},
	}, board.Model)

	samples, maxHeld, maxKilled := 0, 0, 0
	var sample func()
	sample = func() {
		samples++
		for i, n := range cl.nodes {
			held, killed := cl.heldOn(i), cl.killedOn(i)
			maxHeld, maxKilled = max(maxHeld, held), max(maxKilled, killed)
			if out := n.sys.Outstanding(); int64(held+killed) != out {
				t.Errorf("at %v node%d: %d held + %d killed, node has %d outstanding",
					cl.env.Now().Duration(), i, held, killed, out)
			}
		}
		if !cl.closedAll {
			cl.env.After(10*time.Millisecond, sample)
		}
	}
	cl.env.After(10*time.Millisecond, sample)
	rep, err := cl.Serve(poissonFor(t, board, 40, 1500, 1))
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("%d samples, %d crashes, %d hedges fired; at most %d held and %d killed copies on one node",
		samples, rep.Crashes, rep.HedgesFired, maxHeld, maxKilled)
	if rep.Crashes == 0 || rep.HedgesFired == 0 || maxHeld == 0 || maxKilled == 0 {
		t.Error("no crash, hedge, held copy or unwinding batch was sampled; the test exercises nothing")
	}
}

// TestCopyCountExactUnderShardedChaos serves four nodes over the
// interconnect under MTBF crash churn with hedging, where hedge copies
// land after their lease resolved and crashes race acks on the wire,
// and checks that every copy the nodes admitted is counted exactly once
// by the front end.
func TestCopyCountExactUnderShardedChaos(t *testing.T) {
	board := boardFor(t, workload.BoardA())
	for seed := int64(1); seed <= 3; seed++ {
		plan, err := sim.GenerateFaultPlan(4, 2*time.Second, 500*time.Millisecond, 60*time.Second, seed)
		if err != nil {
			t.Fatal(err)
		}
		cl := buildCluster(t, Config{
			Nodes:        Uniform(4, nodeConfig(t, hw.NUMADevice())),
			Router:       Affinity{},
			Faults:       plan,
			Hedge:        HedgeConfig{After: 300 * time.Millisecond},
			Interconnect: testInterconnect,
		}, board.Model)
		rep, err := cl.Serve(poissonFor(t, board, 40, 2000, 1))
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		var admitted int64
		for _, nr := range rep.PerNode {
			admitted += nr.N
		}
		counted := rep.Completions + rep.HedgeWasted + rep.DupAcks + rep.LostLeases + rep.HedgesVoided + rep.HedgePromoted
		t.Logf("seed %d: admitted %d, counted %d (%d crashes, %d hedges fired, %d voided, %d promoted)",
			seed, admitted, counted, rep.Crashes, rep.HedgesFired, rep.HedgesVoided, rep.HedgePromoted)
		if counted != admitted {
			t.Errorf("seed %d: nodes admitted %d copies, front end counts %d", seed, admitted, counted)
		}
		if rep.HedgesVoided == 0 || rep.HedgePromoted == 0 || rep.LostLeases == 0 {
			t.Errorf("seed %d: crashes killed no hedge, promoted none or voided no lease; the test exercises nothing", seed)
		}
	}
}
