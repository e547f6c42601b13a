package cluster

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"repro/internal/coe"
	"repro/internal/hw"
	"repro/internal/pool"
	"repro/internal/sim"
	"repro/internal/workload"
)

// checkResidency compares the fleet's residency view with a
// brute-force scan of every node's pools: each node's tally equals the
// number of its pools holding the expert, the node's holder bit is set
// exactly while that number is nonzero, no bit is set past the last
// node, and every pool's Loaded bitset (IsLoaded) equals a scan of its
// entries' statuses.
func checkResidency(c *Cluster) error {
	f, experts := c.fleet, c.m.NumExperts()
	for i, n := range c.nodes {
		for id := 0; id < experts; id++ {
			e := coe.ExpertID(id)
			want := 0
			for _, pl := range n.sys.Pools() {
				if pl.Resident(e) {
					want++
				}
				if st := pl.Status(e); pl.IsLoaded(e) != (st == pool.Loaded) {
					return fmt.Errorf("node %d pool %s expert %d: Loaded bit %v, status %v", i, pl.Name(), id, pl.IsLoaded(e), st)
				}
			}
			if got := int(f.tally[i*experts+id]); got != want {
				return fmt.Errorf("node %d expert %d: tally counts %d pools, scan finds %d", i, id, got, want)
			}
			if n.Resident(e) != (want > 0) {
				return fmt.Errorf("node %d expert %d: holder bit %v, %d pools hold it", i, id, n.Resident(e), want)
			}
		}
	}
	for id := 0; id < experts; id++ {
		for k, w := range f.holders.Row(id) {
			if w&^f.all[k] != 0 {
				return fmt.Errorf("expert %d: holder bits %#x set past the fleet's %d nodes", id, w&^f.all[k], len(c.nodes))
			}
		}
	}
	return nil
}

// residencyChecker routes like its inner router and checks the residency
// table before every pick. Picks run in front-end context on the
// fleet's one event kernel, so scanning node pools there is safe.
type residencyChecker struct {
	inner Router
	c     *Cluster
	picks int
	err   error
}

func (r *residencyChecker) Name() string { return r.inner.Name() }

func (r *residencyChecker) Pick(now sim.Time, nodes []*Node, req *coe.Request) int {
	r.picks++
	if r.err == nil {
		if err := checkResidency(r.c); err != nil {
			r.err = fmt.Errorf("pick %d at %v: %w", r.picks, now, err)
		}
	}
	return r.inner.Pick(now, nodes, req)
}

// TestResidencyTableMatchesPools is the residency table's property test:
// across random fleets under generated crash/recover plans, served twice
// (the second serve a warm restart), the table equals a scan of every
// node's pools at every routing decision and after every stream — with
// synchronous hops and over an interconnect.
func TestResidencyTableMatchesPools(t *testing.T) {
	board := boardFor(t, workload.BoardA())
	for _, timed := range []bool{false, true} {
		for seed := int64(1); seed <= 3; seed++ {
			rng := rand.New(rand.NewSource(seed))
			n := 2 + rng.Intn(3)
			mttr := time.Duration(10+rng.Intn(400)) * time.Millisecond
			plan, err := sim.GenerateFaultPlan(n, time.Second, mttr, 4*time.Second, seed)
			if err != nil {
				t.Fatal(err)
			}
			chk := &residencyChecker{inner: Affinity{}}
			cfg := Config{
				Nodes:     Uniform(n, nodeConfig(t, hw.NUMADevice())),
				Router:    chk,
				Placement: UsageProportional{},
				SLO:       time.Second,
				Faults:    plan,
			}
			if timed {
				cfg.Interconnect = testInterconnect
			}
			cl := buildCluster(t, cfg, board.Model)
			chk.c = cl
			if err := checkResidency(cl); err != nil {
				t.Fatalf("timed=%v seed=%d after placement: %v", timed, seed, err)
			}
			for stream := int64(0); stream < 2; stream++ {
				rate := 40 + 40*rng.Float64()
				rep, err := cl.Serve(poissonFor(t, board, rate, 200, 10*seed+stream))
				if err != nil {
					t.Fatalf("timed=%v seed=%d stream %d: %v", timed, seed, stream, err)
				}
				if rep.Completions+rep.RedeliveredRejected != rep.N {
					t.Errorf("timed=%v seed=%d stream %d: %d completions + %d rejected != %d arrivals",
						timed, seed, stream, rep.Completions, rep.RedeliveredRejected, rep.N)
				}
				if chk.err != nil {
					t.Fatalf("timed=%v seed=%d stream %d: %v", timed, seed, stream, chk.err)
				}
				if err := checkResidency(cl); err != nil {
					t.Fatalf("timed=%v seed=%d after stream %d: %v", timed, seed, stream, err)
				}
			}
			if chk.picks == 0 {
				t.Fatalf("timed=%v seed=%d: the router was never consulted", timed, seed)
			}
		}
	}
}

// TestAffinityPickZeroAllocs pins the routing hot path: an affinity pick
// — a residency hit and the least-loaded fallback alike — allocates
// nothing.
func TestAffinityPickZeroAllocs(t *testing.T) {
	board := boardFor(t, workload.BoardA())
	cl := buildCluster(t, Config{Nodes: Uniform(8, nodeConfig(t, hw.NUMADevice()))}, board.Model)
	hot := board.Model.ExpertsByUsage()[0].ID
	cold := coe.NoExpert
	for id := 0; id < board.Model.NumExperts() && cold == coe.NoExpert; id++ {
		resident := false
		for _, n := range cl.nodes {
			resident = resident || n.Resident(coe.ExpertID(id))
		}
		if !resident {
			cold = coe.ExpertID(id)
		}
	}
	if cold == coe.NoExpert || !cl.nodes[0].Resident(hot) {
		t.Fatal("mirror placement left no cold expert or dropped the hottest one; the test exercises nothing")
	}
	for _, id := range []coe.ExpertID{hot, cold} {
		r := coe.NewRequest(1, 0, []coe.ExpertID{id})
		if allocs := testing.AllocsPerRun(100, func() { Affinity{}.Pick(0, cl.nodes, r) }); allocs > 0 {
			t.Errorf("Affinity.Pick for expert %d allocated %.2f objects/op, want 0", id, allocs)
		}
	}
}

// TestGeneratedPlanQuickRecoveries: sim.GenerateFaultPlan draws repair
// times from an exponential, so a node often recovers while a batch
// taken before its crash still waits on activation memory or compute.
// The restarted executors must leave that batch alone — it is voided,
// not served or corrupted — and every arrival still completes exactly
// once.
func TestGeneratedPlanQuickRecoveries(t *testing.T) {
	board := boardFor(t, workload.BoardA())
	for seed := int64(1); seed <= 4; seed++ {
		plan, err := sim.GenerateFaultPlan(3, time.Second, 30*time.Millisecond, 5*time.Second, seed)
		if err != nil {
			t.Fatal(err)
		}
		rep, err := chaosCluster(t, 3, plan).Serve(poissonFor(t, board, 60, 300, seed))
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if rep.N != 300 || rep.Completions != 300 {
			t.Errorf("seed %d: arrivals/completions = %d/%d, want 300/300", seed, rep.N, rep.Completions)
		}
		if rep.Crashes == 0 || rep.LostLeases == 0 {
			t.Errorf("seed %d: %d crashes voided %d leases; the test exercises nothing", seed, rep.Crashes, rep.LostLeases)
		}
	}
}
