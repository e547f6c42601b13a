package cluster

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/coe"
	"repro/internal/hw"
	"repro/internal/model"
	"repro/internal/workload"
)

// refPartition is the reference Partition.Plan: each expert in usage
// order scans every node for the widest that fits.
func refPartition(m *coe.Model, nodes []NodeCapacity) [][]coe.ExpertID {
	plan := make([][]coe.ExpertID, len(nodes))
	for i := range plan {
		plan[i] = []coe.ExpertID{}
	}
	remaining := refCapacities(nodes)
	for _, e := range m.ExpertsByUsage() {
		if i := refWidestNode(remaining, e.WeightBytes(), nil); i >= 0 {
			plan[i] = append(plan[i], e.ID)
			remaining[i] -= e.WeightBytes()
		}
	}
	return plan
}

// refUsage is the reference UsageProportional.Plan, quadratic by
// design: every round rescans all experts for the highest marginal gain
// that still has a node to land on, ties to the higher usage rank.
func refUsage(m *coe.Model, nodes []NodeCapacity) [][]coe.ExpertID {
	plan := make([][]coe.ExpertID, len(nodes))
	for i := range plan {
		plan[i] = []coe.ExpertID{}
	}
	remaining := refCapacities(nodes)
	experts := m.ExpertsByUsage()
	instances := make([]int, len(experts))
	homes := make([][]bool, len(experts))
	for i := range homes {
		homes[i] = make([]bool, len(nodes))
	}
	for {
		best, bestNode := -1, -1
		var bestGain float64
		for rank, e := range experts {
			if instances[rank] >= len(nodes) {
				continue
			}
			gain := e.UsageProb / float64(instances[rank]+1)
			if best >= 0 && gain <= bestGain {
				continue
			}
			if node := refWidestNode(remaining, e.WeightBytes(), homes[rank]); node >= 0 {
				best, bestNode, bestGain = rank, node, gain
			}
		}
		if best < 0 {
			break
		}
		e := experts[best]
		plan[bestNode] = append(plan[bestNode], e.ID)
		remaining[bestNode] -= e.WeightBytes()
		instances[best]++
		homes[best][bestNode] = true
	}
	return plan
}

func refCapacities(nodes []NodeCapacity) []int64 {
	out := make([]int64, len(nodes))
	for i, n := range nodes {
		out[i] = n.ExpertBytes
	}
	return out
}

// refWidestNode scans every node for the most remaining capacity that
// fits need and is not excluded, ties to the lowest index.
func refWidestNode(remaining []int64, need int64, excluded []bool) int {
	best := -1
	for i, rem := range remaining {
		if rem < need || (excluded != nil && excluded[i]) {
			continue
		}
		if best < 0 || rem > remaining[best] {
			best = i
		}
	}
	return best
}

// checkPlansMatch fails unless both planners equal their references
// entry for entry.
func checkPlansMatch(t *testing.T, name string, m *coe.Model, nodes []NodeCapacity) {
	t.Helper()
	for _, tc := range []struct {
		p   Placement
		ref func(*coe.Model, []NodeCapacity) [][]coe.ExpertID
	}{
		{Partition{}, refPartition},
		{UsageProportional{}, refUsage},
	} {
		got, err := tc.p.Plan(m, nodes)
		if err != nil {
			t.Fatalf("%s %s: %v", name, tc.p.Name(), err)
		}
		want := tc.ref(m, nodes)
		if !slices.EqualFunc(got, want, slices.Equal) {
			t.Errorf("%s %s: plan differs from the reference\n got %v\nwant %v", name, tc.p.Name(), got, want)
		}
	}
}

// randomModel builds a model of n experts with weights drawn from a few
// sizes (so sizes tie) and usage probabilities from draw.
func randomModel(t *testing.T, rng *rand.Rand, n int, draw func() float64) *coe.Model {
	t.Helper()
	b := coe.NewBuilder("random")
	for i := range n {
		arch := model.Architecture{Name: "a", Params: int64(1 + rng.Intn(6)), BytesPerParam: 100}
		b.AddExpert(fmt.Sprint("e", i), arch, coe.Preliminary)
	}
	m, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	for i := range n {
		m.Expert(coe.ExpertID(i)).UsageProb = draw()
	}
	return m
}

// TestPlacementMatchesQuadraticReference: the heap-driven usage plan and
// the ordered-node partition plan equal the quadratic planners they
// replaced, entry for entry, on seeded random models and fleets —
// heterogeneous capacities, tied and zero usage probabilities, nodes too
// small for any expert, one node, and more nodes than experts.
func TestPlacementMatchesQuadraticReference(t *testing.T) {
	rng := rand.New(rand.NewSource(27))
	usages := []struct {
		name string
		draw func() float64
	}{
		{"distinct", rng.Float64},
		// Three levels, one of them zero: ties everywhere.
		{"tied", func() float64 { return []float64{0, 0.25, 0.5}[rng.Intn(3)] }},
		{"zero", func() float64 { return 0 }},
	}
	fleets := []struct {
		name  string
		nodes func(experts int) []NodeCapacity
	}{
		{"uniform", func(int) []NodeCapacity { return capsOf(rng, 8, 1500, 1500) }},
		{"mixed", func(int) []NodeCapacity { return capsOf(rng, 12, 0, 3000) }},
		// Every node below the smallest expert (100 bytes).
		{"tiny", func(int) []NodeCapacity { return capsOf(rng, 5, 0, 99) }},
		{"half-tiny", func(int) []NodeCapacity { return append(capsOf(rng, 3, 0, 99), capsOf(rng, 3, 400, 900)...) }},
		{"one", func(int) []NodeCapacity { return capsOf(rng, 1, 500, 5000) }},
		{"crowd", func(experts int) []NodeCapacity { return capsOf(rng, experts+7, 200, 1200) }},
		{"roomy", func(int) []NodeCapacity { return capsOf(rng, 4, 1e6, 1e6) }},
		{"none", func(int) []NodeCapacity { return nil }},
	}
	for _, u := range usages {
		for _, f := range fleets {
			for trial := range 5 {
				n := 1 + rng.Intn(40)
				m := randomModel(t, rng, n, u.draw)
				checkPlansMatch(t, fmt.Sprintf("%s/%s/%d", u.name, f.name, trial), m, f.nodes(n))
			}
		}
	}
}

// TestPlacementMatchesReferenceOnFleetSteady: the 100-node uniform
// NUMA fleet on board A that the fleet-steady benchmark and
// BenchmarkFleetServe build plans exactly as the reference planners.
func TestPlacementMatchesReferenceOnFleetSteady(t *testing.T) {
	board := boardFor(t, workload.BoardA())
	nc := nodeConfig(t, hw.NUMADevice())
	caps := make([]NodeCapacity, 100)
	for i := range caps {
		caps[i] = NodeCapacity{ID: fmt.Sprint("node", i), ExpertBytes: nc.Alloc.GPUExpertBytes + nc.Alloc.CPUExpertBytes}
	}
	checkPlansMatch(t, "fleet-steady", board.Model, caps)
}

// capsOf draws n node capacities uniformly in [lo, hi].
func capsOf(rng *rand.Rand, n int, lo, hi int64) []NodeCapacity {
	out := make([]NodeCapacity, n)
	for i := range out {
		out[i] = NodeCapacity{ID: fmt.Sprint("n", i), ExpertBytes: lo + rng.Int63n(hi-lo+1)}
	}
	return out
}
