package cluster

import (
	"testing"
	"time"

	"repro/internal/coe"
	"repro/internal/control"
	"repro/internal/core"
	"repro/internal/hw"
	"repro/internal/sim"
	"repro/internal/workload"
)

// backlogChecker is the affinity router with a check on every pick:
// each node's Queued() — the counter its active queues keep current in
// the fleet's backlog slice — must equal a recount of Len() over those
// queues, its bit in the fleet's idle bitset must be set exactly while
// that count is 0, and the pick must be the full scan's over the nodes
// it is handed (the whole fleet, or the subset routing or hedging
// presents). It also counts the
// active-set shrinks and growths it saw between picks, so a test can
// tell that the autoscaler really moved the active set under it.
type backlogChecker struct {
	t          testing.TB
	gpus       int // GPU executors per node; the CPU queues follow them
	fleet      int // fleet size, to count the picks over a subset
	subsets    int
	picks      int
	errs       int
	active     []int // each node's active executor count at the last pick
	downs, ups int
	// detachedWork counts node checks where an inactive queue still held
	// requests: queued work that must not count.
	detachedWork int
}

func (c *backlogChecker) Name() string { return "affinity" }

func (c *backlogChecker) Pick(now sim.Time, nodes []*Node, r *coe.Request) int {
	c.picks++
	if c.active == nil {
		c.active = make([]int, len(nodes))
	}
	for i, n := range nodes {
		gpu, cpu := n.System().Active()
		switch prev := c.active[i]; {
		case prev != 0 && gpu+cpu < prev:
			c.downs++
		case prev != 0 && gpu+cpu > prev:
			c.ups++
		}
		c.active[i] = gpu + cpu
		want, all := 0, 0
		for j, q := range n.System().Queues() {
			all += q.Len()
			if j < gpu || j >= c.gpus && j < c.gpus+cpu {
				want += q.Len()
			}
		}
		if all > want {
			c.detachedWork++
		}
		if got := n.Queued(); got != want && c.errs < 5 {
			c.errs++
			c.t.Errorf("pick %d at %v: %s Queued() = %d, active queues hold %d", c.picks, now, n.ID(), got, want)
		}
		if idle := n.f.idle[n.idx>>6]>>(n.idx&63)&1 == 1; idle != (n.Queued() == 0) && c.errs < 5 {
			c.errs++
			c.t.Errorf("pick %d at %v: %s idle bit %v with Queued() = %d", c.picks, now, n.ID(), idle, n.Queued())
		}
	}
	got := Affinity{}.Pick(now, nodes, r)
	if want := scanAffinity(nodes, r); got != want && c.errs < 5 {
		c.errs++
		c.t.Errorf("pick %d at %v: affinity picked %d of %d nodes, full scan %d", c.picks, now, got, len(nodes), want)
	}
	if len(nodes) < c.fleet {
		c.subsets++
	}
	return got
}

func newBacklogChecker(t testing.TB, node core.Config, fleet int) *backlogChecker {
	return &backlogChecker{t: t, gpus: node.GPUExecutors, fleet: fleet}
}

// TestBacklogCounterUnderFaultsAndHedging: crashes purge a node's queues
// and hedges put extra copies on the survivors; the counter must follow
// both.
func TestBacklogCounterUnderFaultsAndHedging(t *testing.T) {
	board := boardFor(t, workload.BoardA())
	node := nodeConfig(t, hw.NUMADevice())
	check := newBacklogChecker(t, node, 4)
	cl := buildCluster(t, Config{
		Nodes:     Uniform(4, node),
		Router:    check,
		Placement: UsageProportional{},
		SLO:       3 * time.Second,
		Faults: &sim.FaultPlan{Events: []sim.FaultEvent{
			{At: time.Second, Node: 1, Kind: sim.FaultCrash},
			{At: time.Second, Node: 2, Kind: sim.FaultSlow, Factor: 150},
			{At: 3 * time.Second, Node: 1, Kind: sim.FaultRecover},
			{At: 5 * time.Second, Node: 3, Kind: sim.FaultCrash},
			{At: 6 * time.Second, Node: 3, Kind: sim.FaultRecover},
			{At: 12 * time.Second, Node: 2, Kind: sim.FaultRecover},
		}},
		Health: grayHealth,
		Hedge:  HedgeConfig{After: time.Second},
	}, board.Model)
	rep, err := cl.Serve(poissonFor(t, board, 30, 300, 41))
	if err != nil {
		t.Fatal(err)
	}
	if rep.LostLeases == 0 || rep.HedgesFired == 0 {
		t.Fatalf("lost leases %d, hedges fired %d: the plan must purge queues and hedge", rep.LostLeases, rep.HedgesFired)
	}
	if int64(check.picks) < rep.N {
		t.Errorf("checked %d picks for %d arrivals", check.picks, rep.N)
	}
	if check.subsets == 0 {
		t.Error("no pick ran over a subset of the fleet")
	}
}

// flipScaler alternates each node between one GPU executor and its
// full topology every window, whatever the load: queues leave the count
// while still holding work and rejoin it later.
type flipScaler struct{ down bool }

func (f *flipScaler) Name() string { return "flip" }

func (f *flipScaler) Scale(sim.Time, control.Utilization, int, int) (int, int) {
	f.down = !f.down
	if f.down {
		return 1, 0
	}
	return 1 << 10, 1 << 10 // clamped to the built topology
}

// TestBacklogCounterUnderNodeAutoscaling: each node's executor
// autoscaler shrinks and regrows the active set mid-stream, so queues
// leave and rejoin the count, some of them with work still queued.
func TestBacklogCounterUnderNodeAutoscaling(t *testing.T) {
	board := boardFor(t, workload.BoardA())
	node := nodeConfig(t, hw.NUMADevice())
	nodes := Uniform(2, node)
	for i := range nodes {
		nodes[i].Autoscaler = &flipScaler{}
		nodes[i].Window = 200 * time.Millisecond
	}
	check := newBacklogChecker(t, node, len(nodes))
	cl := buildCluster(t, Config{Nodes: nodes, Router: check}, board.Model)
	if _, err := cl.Serve(poissonFor(t, board, 40, 300, 43)); err != nil {
		t.Fatal(err)
	}
	if check.downs == 0 || check.ups == 0 || check.detachedWork == 0 {
		t.Fatalf("picks saw %d shrinks, %d growths and %d inactive queues holding work, want all three",
			check.downs, check.ups, check.detachedWork)
	}
}

// TestBacklogCounterAcrossWarmRestart: a second stream on the same
// fleet starts from the counters the first one left.
func TestBacklogCounterAcrossWarmRestart(t *testing.T) {
	board := boardFor(t, workload.BoardA())
	node := nodeConfig(t, hw.NUMADevice())
	check := newBacklogChecker(t, node, 3)
	cl := buildCluster(t, Config{
		Nodes:     Uniform(3, node),
		Router:    check,
		Placement: UsageProportional{},
	}, board.Model)
	for seed := int64(51); seed < 53; seed++ {
		if _, err := cl.Serve(poissonFor(t, board, 60, 300, seed)); err != nil {
			t.Fatal(err)
		}
		for _, n := range cl.Nodes() {
			if q := n.Queued(); q != 0 {
				t.Errorf("stream %d left %s with Queued() = %d", seed, n.ID(), q)
			}
		}
	}
	if check.picks != 600 {
		t.Errorf("checked %d picks, want 600", check.picks)
	}
}
