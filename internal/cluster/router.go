package cluster

import (
	"fmt"

	"repro/internal/coe"
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
// already holds the request's expert. The scan stops at the first node
// with an empty backlog: backlogs are never negative and ties go to the
// lowest index, so no later node can beat it.
type LeastLoaded struct{}

// Name implements Router.
func (LeastLoaded) Name() string { return "least-loaded" }

// Pick implements Router.
func (LeastLoaded) Pick(_ sim.Time, nodes []*Node, _ *coe.Request) int {
	best, bestQ := 0, nodes[0].Queued()
	for i := 1; i < len(nodes) && bestQ > 0; i++ {
		if q := nodes[i].Queued(); q < bestQ {
			best, bestQ = i, q
		}
	}
	return best
}

// Affinity routes to where the expert already is: among the nodes whose
// pools hold the request's first-stage expert (Loaded, or Loading with
// the switch-in in flight), the least loaded wins; when no node holds
// it, the request falls back to least-loaded — and the node it lands on
// becomes the expert's home for followers. Residency-first routing is
// what turns a fleet of small pools into one large effective pool:
// requests chase experts instead of experts chasing requests. The first
// holder with an empty backlog ends the scan, for the same reason as in
// LeastLoaded: no later holder can have a smaller backlog or win a tie.
type Affinity struct{}

// Name implements Router.
func (Affinity) Name() string { return "affinity" }

// Pick implements Router.
func (Affinity) Pick(_ sim.Time, nodes []*Node, r *coe.Request) int {
	expert := r.Expert()
	best, bestQ := -1, 0
	for i, n := range nodes {
		if !n.Resident(expert) {
			continue
		}
		if q := n.Queued(); best < 0 || q < bestQ {
			if q == 0 {
				return i
			}
			best, bestQ = i, q
		}
	}
	if best >= 0 {
		return best
	}
	return LeastLoaded{}.Pick(0, nodes, r)
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
