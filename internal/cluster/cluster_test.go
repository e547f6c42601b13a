package cluster

import (
	"reflect"
	"slices"
	"testing"
	"time"

	"repro/internal/coe"
	"repro/internal/core"
	"repro/internal/hw"
	"repro/internal/model"
	"repro/internal/profiler"
	"repro/internal/workload"
)

var testArchs = []model.Architecture{model.ResNet101, model.YOLOv5m, model.YOLOv5l}

var perfCache = map[string]model.PerfMatrix{}

func perfFor(t testing.TB, dev *hw.Device) model.PerfMatrix {
	t.Helper()
	if pm, ok := perfCache[dev.Name]; ok {
		return pm
	}
	pm, err := profiler.Matrix(dev, testArchs)
	if err != nil {
		t.Fatal(err)
	}
	perfCache[dev.Name] = pm
	return pm
}

var boardCache = map[string]*workload.Board{}

func boardFor(t testing.TB, spec workload.BoardSpec) *workload.Board {
	t.Helper()
	if b, ok := boardCache[spec.Name]; ok {
		return b
	}
	b, err := spec.Build()
	if err != nil {
		t.Fatal(err)
	}
	boardCache[spec.Name] = b
	return b
}

// nodeConfig assembles one CoServe-casual node config on the device.
func nodeConfig(t testing.TB, dev *hw.Device) core.Config {
	t.Helper()
	pm := perfFor(t, dev)
	g, c := core.DefaultExecutors(dev)
	return core.Config{
		Device: dev, Variant: core.CoServe,
		GPUExecutors: g, CPUExecutors: c,
		Alloc: core.CasualAllocation(dev, pm, g, c), Perf: pm,
	}
}

func poissonFor(t testing.TB, board *workload.Board, rate float64, n int, seed int64) workload.Source {
	t.Helper()
	src, err := workload.Poisson{Name: "poisson", Board: board, Rate: rate, N: n, Seed: seed}.NewSource()
	if err != nil {
		t.Fatal(err)
	}
	return src
}

func buildCluster(t testing.TB, cfg Config, m *coe.Model) *Cluster {
	t.Helper()
	c, err := New(cfg, m)
	if err != nil {
		t.Fatal(err)
	}
	// After the test's last stream, every hold and lease must be back in
	// its pool (a broken stream legitimately strands some).
	t.Cleanup(func() {
		if c.broken == nil {
			checkPools(t, c)
		}
	})
	return c
}

// TestZeroAllocNodesPlanSamePlacement: New resolves each node's default
// layout before it sizes placement from the allocation, so a fleet of
// nodes that leave executors and Alloc at zero preloads exactly what a
// fleet of explicit default nodes does.
func TestZeroAllocNodesPlanSamePlacement(t *testing.T) {
	board := boardFor(t, workload.BoardA())
	explicit := nodeConfig(t, hw.NUMADevice())
	zero := core.Config{Device: explicit.Device, Variant: core.CoServe, Perf: explicit.Perf}
	var resident [2][]bool
	for i, node := range []core.Config{explicit, zero} {
		cl := buildCluster(t, Config{Nodes: Uniform(4, node), Placement: UsageProportional{}}, board.Model)
		for _, n := range cl.Nodes() {
			for e := 0; e < board.Model.NumExperts(); e++ {
				resident[i] = append(resident[i], n.Resident(coe.ExpertID(e)))
			}
		}
	}
	if !slices.Contains(resident[0], true) {
		t.Fatal("the explicit fleet preloaded nothing")
	}
	if !slices.Equal(resident[0], resident[1]) {
		t.Error("a fleet of zero-Alloc nodes planned a different placement from explicit default nodes")
	}
}

// TestSingleNodeMatchesSystem is the env-ownership refactor's contract:
// a one-node cluster under the default router and placement serves a
// stream through exactly the same data-plane path as a standalone
// System, so the node's report equals the System's report field for
// field (only the wall-clock scheduling-cost average, a real-time
// measurement, is exempt).
func TestSingleNodeMatchesSystem(t *testing.T) {
	board := boardFor(t, workload.BoardA())
	cfg := nodeConfig(t, hw.NUMADevice())
	cfg.SLO = 500 * time.Millisecond

	sys, err := core.NewSystem(cfg, board.Model)
	if err != nil {
		t.Fatal(err)
	}
	want, err := sys.Serve(poissonFor(t, board, 50, 300, 7))
	if err != nil {
		t.Fatal(err)
	}

	cl := buildCluster(t, Config{Nodes: Uniform(1, cfg), SLO: cfg.SLO}, board.Model)
	rep, err := cl.Serve(poissonFor(t, board, 50, 300, 7))
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.PerNode) != 1 {
		t.Fatalf("PerNode = %d reports, want 1", len(rep.PerNode))
	}
	got := rep.PerNode[0]

	// Executor/pool names carry the node prefix; strip it for the
	// comparison — everything else must match exactly.
	gotCopy := *got
	gotCopy.PerExecutor = append([]core.ExecutorStats(nil), got.PerExecutor...)
	for i := range gotCopy.PerExecutor {
		gotCopy.PerExecutor[i].Name = want.PerExecutor[i].Name
	}
	gotCopy.PerPool = append([]core.PoolStats(nil), got.PerPool...)
	for i := range gotCopy.PerPool {
		gotCopy.PerPool[i].Name = want.PerPool[i].Name
	}
	wantCopy := *want
	gotCopy.SchedPerOp, wantCopy.SchedPerOp = 0, 0
	if !reflect.DeepEqual(&gotCopy, &wantCopy) {
		t.Errorf("one-node cluster report differs from standalone System report:\ncluster: %+v\nsystem:  %+v", gotCopy, wantCopy)
	}

	// Fleet aggregates agree with the node's view.
	if rep.N != want.N || rep.Completions != want.Completions ||
		rep.Switches != want.Switches || rep.Latency != want.Latency {
		t.Errorf("fleet aggregate differs from single node: %+v vs %+v", rep, want)
	}
	if rep.Imbalance != 1 {
		t.Errorf("one-node imbalance = %v, want 1", rep.Imbalance)
	}
}

// TestClusterDeterministic pins the shared-env guarantee: two identical
// multi-node clusters serve identical streams identically, node by
// node.
func TestClusterDeterministic(t *testing.T) {
	board := boardFor(t, workload.BoardA())
	run := func() *Report {
		cfg := Config{
			Nodes:     Uniform(3, nodeConfig(t, hw.NUMADevice())),
			Router:    Affinity{},
			Placement: UsageProportional{},
			SLO:       time.Second,
		}
		rep, err := buildCluster(t, cfg, board.Model).Serve(poissonFor(t, board, 80, 400, 11))
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}
	a, b := run(), run()
	if a.Throughput != b.Throughput || a.Switches != b.Switches ||
		a.Makespan != b.Makespan || !reflect.DeepEqual(a.Routed, b.Routed) {
		t.Errorf("nondeterministic cluster serve:\n%+v\nvs\n%+v", a, b)
	}
	for i := range a.PerNode {
		if a.PerNode[i].N != b.PerNode[i].N || a.PerNode[i].Switches != b.PerNode[i].Switches {
			t.Errorf("node %d diverged across identical runs", i)
		}
	}
}

// TestClusterScalesThroughput: four nodes under an overloading stream
// must complete it materially faster than one node.
func TestClusterScalesThroughput(t *testing.T) {
	board := boardFor(t, workload.BoardA())
	serve := func(nodes int) *Report {
		cfg := Config{Nodes: Uniform(nodes, nodeConfig(t, hw.NUMADevice()))}
		rep, err := buildCluster(t, cfg, board.Model).Serve(poissonFor(t, board, 100, 400, 3))
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}
	one, four := serve(1), serve(4)
	if four.Throughput < 2*one.Throughput {
		t.Errorf("4-node throughput %.1f not at least 2x 1-node %.1f", four.Throughput, one.Throughput)
	}
	if four.Completions != one.Completions {
		t.Errorf("completions differ: %d vs %d", four.Completions, one.Completions)
	}
}

// TestClusterWarmRestart: consecutive streams on one cluster reuse the
// nodes' pools, paying fewer switches the second time.
func TestClusterWarmRestart(t *testing.T) {
	board := boardFor(t, workload.BoardA())
	cl := buildCluster(t, Config{
		Nodes:  Uniform(2, nodeConfig(t, hw.NUMADevice())),
		Router: Affinity{},
	}, board.Model)
	r1, err := cl.Serve(poissonFor(t, board, 60, 300, 5))
	if err != nil {
		t.Fatal(err)
	}
	r2, err := cl.Serve(poissonFor(t, board, 60, 300, 5))
	if err != nil {
		t.Fatal(err)
	}
	if cl.Runs() != 2 {
		t.Errorf("Runs = %d, want 2", cl.Runs())
	}
	if r2.Switches >= r1.Switches {
		t.Errorf("warm second run switched %d experts, not fewer than the first run's %d", r2.Switches, r1.Switches)
	}
}

// TestAffinityPrefersResidency: the affinity router must route a
// request to the node already holding its expert even when that node
// has the longer queue, and fall back to least-loaded for absent
// experts.
func TestAffinityPrefersResidency(t *testing.T) {
	board := boardFor(t, workload.BoardA())
	cfg := Config{
		Nodes:     Uniform(2, nodeConfig(t, hw.NUMADevice())),
		Placement: Partition{},
	}
	cl := buildCluster(t, cfg, board.Model)
	nodes := cl.Nodes()

	// Find an expert resident on exactly one node (Partition guarantees
	// single homes for everything it placed).
	var expert coe.ExpertID = -1
	home := -1
	for _, e := range board.Model.Experts() {
		on0, on1 := nodes[0].Resident(e.ID), nodes[1].Resident(e.ID)
		if on0 != on1 {
			expert = e.ID
			home = 0
			if on1 {
				home = 1
			}
			break
		}
	}
	if expert < 0 {
		t.Fatal("partition left no single-homed expert")
	}
	r := coe.NewRequest(0, 0, []coe.ExpertID{expert})
	if got := (Affinity{}).Pick(0, nodes, r); got != home {
		t.Errorf("affinity picked node %d, want resident home %d", got, home)
	}

	// An expert resident nowhere falls back to least-loaded (node 0 on
	// an idle fleet).
	var absent coe.ExpertID = -1
	for _, e := range board.Model.Experts() {
		if !nodes[0].Resident(e.ID) && !nodes[1].Resident(e.ID) {
			absent = e.ID
			break
		}
	}
	if absent >= 0 {
		r := coe.NewRequest(1, 0, []coe.ExpertID{absent})
		if got := (Affinity{}).Pick(0, nodes, r); got != 0 {
			t.Errorf("affinity fallback picked node %d, want 0", got)
		}
	}
}

// TestLeastLoadedPicksSmallestQueue exercises the router against
// synthetic queue depths by dispatching onto a real node.
func TestLeastLoadedPicksSmallestQueue(t *testing.T) {
	board := boardFor(t, workload.BoardA())
	cl := buildCluster(t, Config{Nodes: Uniform(3, nodeConfig(t, hw.NUMADevice()))}, board.Model)
	nodes := cl.Nodes()
	r := coe.NewRequest(0, 0, []coe.ExpertID{0})
	if got := (LeastLoaded{}).Pick(0, nodes, r); got != 0 {
		t.Errorf("idle fleet: least-loaded picked %d, want 0 (lowest index)", got)
	}
}

// TestPartitionDisjointCoverage: the partition plan gives every expert
// at most one home and covers more distinct experts than one node's
// pools alone.
func TestPartitionDisjointCoverage(t *testing.T) {
	board := boardFor(t, workload.BoardA())
	nc := nodeConfig(t, hw.NUMADevice())
	caps := []NodeCapacity{
		{ID: "node0", ExpertBytes: nc.Alloc.GPUExpertBytes + nc.Alloc.CPUExpertBytes},
		{ID: "node1", ExpertBytes: nc.Alloc.GPUExpertBytes + nc.Alloc.CPUExpertBytes},
	}
	plan, err := (Partition{}).Plan(board.Model, caps)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[coe.ExpertID]int{}
	for ni, list := range plan {
		for _, id := range list {
			if prev, dup := seen[id]; dup {
				t.Fatalf("expert %d partitioned onto nodes %d and %d", id, prev, ni)
			}
			seen[id] = ni
		}
	}
	if len(plan[0]) == 0 || len(plan[1]) == 0 {
		t.Fatalf("partition left a node empty: %d/%d", len(plan[0]), len(plan[1]))
	}
	if len(seen) <= len(plan[0]) {
		t.Errorf("partition coverage %d not beyond one node's %d", len(seen), len(plan[0]))
	}
}

// TestUsagePlacementReplicatesHotExperts: the §4.4-generalized plan
// gives the hottest expert strictly more instances than a tail expert,
// and never two instances on one node.
func TestUsagePlacementReplicatesHotExperts(t *testing.T) {
	board := boardFor(t, workload.BoardA())
	nc := nodeConfig(t, hw.NUMADevice())
	caps := make([]NodeCapacity, 4)
	for i := range caps {
		caps[i] = NodeCapacity{ID: "n", ExpertBytes: nc.Alloc.GPUExpertBytes + nc.Alloc.CPUExpertBytes}
	}
	plan, err := (UsageProportional{}).Plan(board.Model, caps)
	if err != nil {
		t.Fatal(err)
	}
	instances := map[coe.ExpertID]int{}
	for ni, list := range plan {
		perNode := map[coe.ExpertID]bool{}
		for _, id := range list {
			if perNode[id] {
				t.Fatalf("expert %d twice on node %d", id, ni)
			}
			perNode[id] = true
			instances[id]++
		}
	}
	byUsage := board.Model.ExpertsByUsage()
	hottest := byUsage[0]
	coldest := byUsage[len(byUsage)-1]
	if instances[hottest.ID] <= 1 {
		t.Errorf("hottest expert (p=%.4f) got %d instances, want replication", hottest.UsageProb, instances[hottest.ID])
	}
	if instances[hottest.ID] <= instances[coldest.ID] {
		t.Errorf("hottest expert %d instances not above coldest's %d", instances[hottest.ID], instances[coldest.ID])
	}
}

// TestHeterogeneousFleet: a NUMA node and a UMA node serve one stream
// together — per-node device profiles are genuinely per node.
func TestHeterogeneousFleet(t *testing.T) {
	board := boardFor(t, workload.BoardA())
	cfg := Config{
		Nodes:  []core.Config{nodeConfig(t, hw.NUMADevice()), nodeConfig(t, hw.UMADevice())},
		Router: Predict{},
	}
	rep, err := buildCluster(t, cfg, board.Model).Serve(poissonFor(t, board, 40, 300, 13))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Completions != 300 {
		t.Fatalf("completions = %d, want 300", rep.Completions)
	}
	if rep.PerNode[0].Device == rep.PerNode[1].Device {
		t.Errorf("both nodes report device %q", rep.PerNode[0].Device)
	}
	if rep.Routed[0]+rep.Routed[1] != 300 {
		t.Errorf("routed %v does not cover the stream", rep.Routed)
	}
}

// TestClusterRefusesUnboundedAndForeignStreams mirrors the single-node
// Serve guards.
func TestClusterRefusesUnboundedAndForeignStreams(t *testing.T) {
	a := boardFor(t, workload.BoardA())
	b := boardFor(t, workload.BoardB())
	cl := buildCluster(t, Config{Nodes: Uniform(1, nodeConfig(t, hw.NUMADevice()))}, a.Model)
	steady, err := workload.Steady{Name: "s", Board: a, Rate: 10, Seed: 1}.NewSource()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cl.Serve(steady); err == nil {
		t.Error("cluster served an unbounded source")
	}
	if _, err := cl.Serve(poissonFor(t, b, 10, 10, 1)); err == nil {
		t.Error("cluster served a stream from a foreign model")
	}
}
