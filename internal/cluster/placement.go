package cluster

import (
	"cmp"
	"fmt"
	"slices"

	"repro/internal/coe"
)

// NodeCapacity is the slice of a node's configuration placement plans
// consume: its identity and total expert-storage budget (GPU plus CPU
// pool bytes). Heterogeneous fleets present heterogeneous capacities
// here, and the plans weight instance placement by them.
type NodeCapacity struct {
	ID string
	// ExpertBytes is the node's total expert-pool budget.
	ExpertBytes int64
}

// Placement plans expert preloading across the fleet before the first
// stream: Plan returns one ordered expert list per node, preloaded
// round-robin into that node's pools until they fill
// (core.Config.Preload), or a nil plan to leave every node on its own
// §4.1 descending-usage default. Plans must be deterministic.
type Placement interface {
	// Name identifies the placement in reports and tables.
	Name() string
	// Plan returns one preload list per node, or nil for the default.
	Plan(m *coe.Model, nodes []NodeCapacity) ([][]coe.ExpertID, error)
}

// Mirror is the identity placement: every node independently preloads
// the §4.1 descending-usage order, so the fleet holds N copies of the
// hottest experts. It maximizes hot-expert service capacity and
// warm-restart locality at the cost of total coverage — the fleet's
// effective pool is no larger than one node's.
type Mirror struct{}

// Name implements Placement.
func (Mirror) Name() string { return "mirror" }

// Plan implements Placement: nil means "every node defaults".
func (Mirror) Plan(*coe.Model, []NodeCapacity) ([][]coe.ExpertID, error) { return nil, nil }

// Partition gives every expert exactly one home: walking experts in
// descending usage probability, each is placed on the node with the
// most remaining capacity that fits it (ties to the lowest index). The
// fleet's effective pool is the sum of the nodes' pools — maximal
// coverage, no replication — so a partitioned fleet wants an
// affinity-style router to send requests where their expert lives. It
// is UsageProportional's deal capped at one instance per expert.
type Partition struct{}

// Name implements Placement.
func (Partition) Name() string { return "partition" }

// Plan implements Placement.
func (Partition) Plan(m *coe.Model, nodes []NodeCapacity) ([][]coe.ExpertID, error) {
	return deal(m, nodes, 1), nil
}

// UsageProportional generalizes the paper's §4.4 capacity planning to a
// fleet: instead of asking "how many experts should one device hold",
// it asks "how many instances of each expert should the fleet hold, and
// where". Instances are dealt by marginal gain — the next copy goes to
// the expert maximizing UsageProb/(instances+1), the water-filling rule
// that equalizes expected load per instance — until every node's
// capacity is spent, with each instance placed on the
// largest-remaining-capacity node not yet holding the expert. Hot
// experts end up replicated on several (heterogeneously sized) nodes,
// cold experts keep at most one home, and the split between replication
// and coverage follows the usage distribution instead of a fixed rule.
type UsageProportional struct{}

// Name implements Placement.
func (UsageProportional) Name() string { return "usage" }

// Plan implements Placement.
func (UsageProportional) Plan(m *coe.Model, nodes []NodeCapacity) ([][]coe.ExpertID, error) {
	return deal(m, nodes, len(nodes)), nil
}

// deal plans up to most instances of each expert by marginal gain,
// ordered by (gain descending, usage rank ascending), with the nodes
// ordered widest first. An expert's gain is its usage probability until
// its first instance lands, so first instances come from a cursor over
// the usage order; only an expert with an instance and room for another
// waits in a max-heap at its next gain, and each step takes the better
// of the two. A candidate with no node to land on is dropped for good:
// capacities only shrink and the nodes holding it only grow. The plan
// is O(P·(log E + N)) for P placements, E experts and N nodes; with most
// 1 the heap stays empty.
func deal(m *coe.Model, nodes []NodeCapacity, most int) [][]coe.ExpertID {
	plan := make([][]coe.ExpertID, len(nodes))
	for i := range plan {
		plan[i] = []coe.ExpertID{}
	}
	space := newSpace(nodes)
	experts := m.ExpertsByUsage()
	h := gainHeap{gain: make([]float64, len(experts)), ranks: make([]int, 0, len(experts))}
	instances := make([]int, len(experts))
	// homes(rank) marks the nodes already holding expert rank.
	held := make([]bool, len(experts)*len(nodes))
	homes := func(rank int) []bool { return held[rank*len(nodes) : (rank+1)*len(nodes)] }
	for rank, e := range experts {
		h.gain[rank] = e.UsageProb
	}
	// next is the cursor: experts[next:] have no instance yet.
	for next := 0; next < len(experts) || len(h.ranks) > 0; {
		rank, first := next, next < len(experts) && (len(h.ranks) == 0 || h.above(next, h.ranks[0]))
		if first {
			next++
		} else {
			rank = h.ranks[0]
		}
		e := experts[rank]
		at := space.widest(e.WeightBytes(), homes(rank))
		if at >= 0 {
			node := space.take(at, e.WeightBytes())
			plan[node] = append(plan[node], e.ID)
			homes(rank)[node] = true
			instances[rank]++
			h.gain[rank] = e.UsageProb / float64(instances[rank]+1)
		}
		switch again := at >= 0 && instances[rank] < most; {
		case again && first:
			h.push(rank)
		case again:
			h.down(0)
		case !first:
			h.pop()
		}
	}
	return plan
}

// gainHeap is deal's candidate max-heap: expert usage ranks ordered by
// (gain descending, rank ascending), so the top is the candidate the
// water-filling rule deals the next instance to.
type gainHeap struct {
	gain  []float64 // by rank: the next instance's marginal gain
	ranks []int     // the heap
}

// above reports whether expert rank a goes before rank b.
func (h *gainHeap) above(a, b int) bool {
	return h.gain[a] > h.gain[b] || (h.gain[a] == h.gain[b] && a < b)
}

// push adds a candidate and lifts it to its place.
func (h *gainHeap) push(rank int) {
	h.ranks = append(h.ranks, rank)
	for i := len(h.ranks) - 1; i > 0 && h.above(rank, h.ranks[(i-1)/2]); i = (i - 1) / 2 {
		h.ranks[i], h.ranks[(i-1)/2] = h.ranks[(i-1)/2], h.ranks[i]
	}
}

// pop removes the top candidate.
func (h *gainHeap) pop() {
	last := len(h.ranks) - 1
	h.ranks[0] = h.ranks[last]
	h.ranks = h.ranks[:last]
	h.down(0)
}

// down sinks the candidate at i, whose gain may have fallen, to its
// place.
func (h *gainHeap) down(i int) {
	n := len(h.ranks)
	for {
		c := 2*i + 1
		if c >= n {
			return
		}
		if c+1 < n && h.above(h.ranks[c+1], h.ranks[c]) {
			c++
		}
		if !h.above(h.ranks[c], h.ranks[i]) {
			return
		}
		h.ranks[i], h.ranks[c] = h.ranks[c], h.ranks[i]
		i = c
	}
}

// space tracks the nodes' remaining expert budgets with the node indices
// kept widest first: remaining capacity descending, index ascending.
type space struct {
	remaining []int64
	order     []int
}

func newSpace(nodes []NodeCapacity) *space {
	s := &space{remaining: make([]int64, len(nodes)), order: make([]int, len(nodes))}
	for i, n := range nodes {
		s.remaining[i] = n.ExpertBytes
		s.order[i] = i
	}
	slices.SortFunc(s.order, s.compare)
	return s
}

// compare orders nodes i and j widest first, ties to the lower index.
func (s *space) compare(i, j int) int {
	return cmp.Or(cmp.Compare(s.remaining[j], s.remaining[i]), cmp.Compare(i, j))
}

// widest returns the position in the order of the node with the most
// remaining capacity that fits need and is not excluded, ties to the
// lowest index; -1 when none fits. That node is the first one the order
// does not exclude: when it does not fit, no narrower node can.
func (s *space) widest(need int64, excluded []bool) int {
	for at, i := range s.order {
		if excluded[i] {
			continue
		}
		if s.remaining[i] < need {
			return -1
		}
		return at
	}
	return -1
}

// take spends need bytes of the node at position at in the order, moves
// it down to its new place, and returns its index.
func (s *space) take(at int, need int64) int {
	i := s.order[at]
	s.remaining[i] -= need
	rest := s.order[at+1:]
	k, _ := slices.BinarySearchFunc(rest, i, s.compare)
	copy(s.order[at:], rest[:k])
	s.order[at+k] = i
	return i
}

// PlacementNames lists the built-in placement names in presentation
// order.
func PlacementNames() []string { return []string{"mirror", "partition", "usage"} }

// PlacementByName builds a placement from its CLI name: "mirror" (or
// ""), "partition", or "usage".
func PlacementByName(name string) (Placement, error) {
	switch name {
	case "", "mirror":
		return Mirror{}, nil
	case "partition":
		return Partition{}, nil
	case "usage":
		return UsageProportional{}, nil
	default:
		return nil, fmt.Errorf("cluster: unknown placement %q (want mirror, partition, usage)", name)
	}
}
