package cluster

import (
	"fmt"
	"math/bits"

	"repro/internal/coe"
	"repro/internal/core"
	"repro/internal/memory"
	"repro/internal/sim"
)

// Router picks the node an arriving request runs on. Pick is called
// once per arrival at the request's due instant, before the node's
// admission policy sees it; it must return an index into nodes and be
// deterministic in virtual time. The request's whole chain then runs on
// the picked node.
type Router interface {
	// Name identifies the router in reports and tables.
	Name() string
	// Pick returns the index of the node to offer the request to.
	Pick(now sim.Time, nodes []*Node, r *coe.Request) int
}

// LeastLoaded routes to the node with the smallest backlog (queued
// requests across its active executors), ties to the lowest index. It
// balances queue depth while staying blind to expert residency: two
// nodes with equal backlogs are equivalent to it even when only one
// already holds the request's expert. An idle routable node wins at
// once — the lowest set bit of the fleet's idle and routable masks —
// since backlogs are never negative and ties go to the lowest index;
// otherwise it takes the minimum over the routable nodes' backlogs.
type LeastLoaded struct{}

// Name implements Router.
func (LeastLoaded) Name() string { return "least-loaded" }

// Pick implements Router.
func (LeastLoaded) Pick(_ sim.Time, nodes []*Node, _ *coe.Request) int {
	f := nodes[0].f
	routable := f.routableFor(nodes)
	return rank(routable, f.leastLoaded(routable))
}

// Affinity routes to where the expert already is: among the nodes whose
// pools hold the request's first-stage expert (Loaded, or Loading with
// the switch-in in flight), the least loaded wins; when no node holds
// it, the request falls back to least-loaded — and the node it lands on
// becomes the expert's home for followers. Residency-first routing is
// what turns a fleet of small pools into one large effective pool:
// requests chase experts instead of experts chasing requests. The pick
// is a few word operations on the fleet's bitsets: the lowest set bit
// of holders & idle & routable is an idle holder, which no other holder
// can beat (backlogs are never negative, ties go to the lowest index);
// failing that, the least backlog over holders & routable.
type Affinity struct{}

// Name implements Router.
func (Affinity) Name() string { return "affinity" }

// Pick implements Router.
func (Affinity) Pick(_ sim.Time, nodes []*Node, r *coe.Request) int {
	f := nodes[0].f
	routable := f.routableFor(nodes)
	row, idle := f.holders.Row(int(r.Expert())), f.idle
	for k, w := range routable {
		if x := row[k] & idle[k] & w; x != 0 {
			return rank(routable, k<<6|bits.TrailingZeros64(x))
		}
	}
	best, bestQ := -1, 0
	for k, w := range routable {
		for x := row[k] & w; x != 0; x &= x - 1 {
			i := k<<6 | bits.TrailingZeros64(x)
			if q := f.backlog[i]; best < 0 || q < bestQ {
				best, bestQ = i, q
			}
		}
	}
	if best < 0 {
		best = f.leastLoaded(routable)
	}
	return rank(routable, best)
}

// Predict routes to the node whose §4.2 cost model predicts the lowest
// end-to-end latency for the request (sched.Queue.Predict across the
// node's active queues, summed over the chain's stages), ties to the
// lowest index. It subsumes both load (queue finish times) and
// residency (predicted switch latency) in one number, at the cost of
// evaluating the prediction on every node per arrival.
type Predict struct{}

// Name implements Router.
func (Predict) Name() string { return "predict" }

// Pick implements Router.
func (Predict) Pick(_ sim.Time, nodes []*Node, r *coe.Request) int {
	best := 0
	bestD := nodes[0].PredictLatency(r)
	for i := 1; i < len(nodes); i++ {
		if d := nodes[i].PredictLatency(r); d < bestD {
			best, bestD = i, d
		}
	}
	return best
}

// RouterNames lists the built-in router names in presentation order.
func RouterNames() []string { return []string{"least-loaded", "affinity", "predict"} }

// RouterByName builds a router from its CLI name: "least-loaded" (or
// ""), "affinity", or "predict".
func RouterByName(name string) (Router, error) {
	switch name {
	case "", "least-loaded":
		return LeastLoaded{}, nil
	case "affinity":
		return Affinity{}, nil
	case "predict":
		return Predict{}, nil
	default:
		return nil, fmt.Errorf("cluster: unknown router %q (want least-loaded, affinity, predict)", name)
	}
}

// fleet is the routing view of a cluster's nodes, kept as bitsets with
// one bit per node (node i is bit i%64 of word i/64) so that a routing
// decision is a few word operations rather than a walk of the nodes.
type fleet struct {
	// holders has node i in slot i: its bit in an expert's row is set
	// while any of its pools holds the expert, Loaded or Loading. tally
	// counts those pools, one row of a byte per expert for each node; the
	// pools keep both current (pool.TrackResidency).
	holders memory.Residency
	tally   []uint8
	// backlog is each node's queued requests across its active queues,
	// and idle has node i's bit set while backlog[i] is 0; the nodes'
	// active queues keep both current (core.System.CountBacklogInto).
	backlog []int
	idle    []uint64
	// up has node i's bit set while the node is Up; the front end sets
	// and clears it at every lifecycle move it drives. open backs the
	// breaker's bitset (healthState.open), which a stream with health
	// scoring clears when it starts. all has every node's bit.
	up, open, all []uint64
	// nodes is the fleet in index order. sub is the in-order subset
	// route built last and subMask its mask; pick is scratch for the
	// masks the front end builds, and mask backs the mask of any other
	// slice a router is handed (routableFor).
	nodes      []*Node
	sub        []*Node
	subMask    []uint64
	pick, mask []uint64
}

// newFleet returns the empty view of a fleet of n nodes serving a model
// with the given number of experts, every node Up.
func newFleet(n, experts int) *fleet {
	w := (n + 63) >> 6
	f := &fleet{
		holders: memory.NewResidency(n, experts),
		tally:   make([]uint8, n*experts),
		backlog: make([]int, n),
	}
	// One block for the six node bitsets.
	sets := make([]uint64, 6*w)
	for k, set := range []*[]uint64{&f.idle, &f.up, &f.open, &f.all, &f.pick, &f.mask} {
		*set = sets[k*w : (k+1)*w : (k+1)*w]
	}
	for i := 0; i < n; i++ {
		setBit(f.all, i, true)
	}
	copy(f.up, f.all)
	return f
}

// join makes sys node i of the view: its pools report residency into
// the holder table and its queues count into backlog[i] and idle.
func (f *fleet) join(i int, id string, sys *core.System) *Node {
	experts := f.holders.Experts()
	for _, pl := range sys.Pools() {
		pl.TrackResidency(f.tally[i*experts:(i+1)*experts], f.holders, f.holders.Slot(i))
	}
	sys.CountBacklogInto(&f.backlog[i], &f.idle[i>>6], 1<<(i&63))
	return &Node{id: id, sys: sys, f: f, idx: i}
}

// subset returns the nodes mask sets, in fleet order, in the view's
// scratch slice, and records mask as that slice's routable mask.
func (f *fleet) subset(mask []uint64) []*Node {
	sub := f.sub[:0]
	for k, w := range mask {
		for ; w != 0; w &= w - 1 {
			sub = append(sub, f.nodes[k<<6|bits.TrailingZeros64(w)])
		}
	}
	f.sub, f.subMask = sub, mask
	return sub
}

// routableFor returns the routable mask of nodes: all for the fleet's
// own slice, the recorded mask for the subset route built, and
// otherwise a mask marked from the slice, which must list fleet nodes in
// index order.
func (f *fleet) routableFor(nodes []*Node) []uint64 {
	switch {
	case len(nodes) == len(f.nodes) && &nodes[0] == &f.nodes[0]:
		return f.all
	case len(nodes) == len(f.sub) && &nodes[0] == &f.sub[0]:
		return f.subMask
	}
	clear(f.mask)
	prev := -1
	for _, n := range nodes {
		if n.f != f || n.idx <= prev {
			panic("cluster: a router takes the fleet's nodes or an in-order subset of them")
		}
		prev = n.idx
		setBit(f.mask, n.idx, true)
	}
	return f.mask
}

// setBit sets or clears node i's bit in mask.
func setBit(mask []uint64, i int, on bool) {
	if on {
		mask[i>>6] |= 1 << (i & 63)
	} else {
		mask[i>>6] &^= 1 << (i & 63)
	}
}

// hasBit reports whether node i's bit is set in mask.
func hasBit(mask []uint64, i int) bool { return mask[i>>6]>>(i&63)&1 == 1 }

// count returns the number of nodes mask sets.
func count(mask []uint64) int {
	n := 0
	for _, w := range mask {
		n += bits.OnesCount64(w)
	}
	return n
}

// leastLoaded returns the fleet index of the routable node with the
// smallest backlog, ties to the lowest index: the lowest routable idle
// node when there is one, else the minimum over the routable backlogs.
// routable must have a bit set.
func (f *fleet) leastLoaded(routable []uint64) int {
	for k, w := range routable {
		if x := w & f.idle[k]; x != 0 {
			return k<<6 | bits.TrailingZeros64(x)
		}
	}
	best, bestQ := -1, 0
	for k, w := range routable {
		for x := w; x != 0; x &= x - 1 {
			i := k<<6 | bits.TrailingZeros64(x)
			if q := f.backlog[i]; best < 0 || q < bestQ {
				best, bestQ = i, q
			}
		}
	}
	return best
}

// rank returns the position of fleet node i in the node slice whose
// mask is routable: the number of routable nodes below it.
func rank(routable []uint64, i int) int {
	return bits.OnesCount64(routable[i>>6]&(1<<(i&63)-1)) + count(routable[:i>>6])
}
