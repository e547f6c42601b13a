package cluster

import (
	"testing"
	"time"

	"repro/internal/coe"
	"repro/internal/core"
	"repro/internal/hw"
	"repro/internal/metrics"
	"repro/internal/sim"
	"repro/internal/workload"
)

// routeChecker is a router that re-derives the routable set at every
// pick. From each node's State() and breaker phase alone it rebuilds
// the exact node slice the pick should be handed and compares it with
// the slice it was handed. An arrival, a redelivery or a bounced offer
// gets the Up nodes the breaker does not hold out (open, or half-open
// with every probe slot taken), or every Up node when the breaker holds
// them all (a bypass). A hedge, whose request is the cluster's probe,
// gets the Up nodes whose breaker is closed, less the primary's node.
// It also checks the fleet's up bit of every node against State() and
// each open bit against the breaker phase, then picks by affinity.
type routeChecker struct {
	t    testing.TB
	cl   *Cluster
	want []*Node

	picks, hedges, subsets, errs int
	// bypasses counts the non-hedge picks the breaker yielded on.
	bypasses int64
}

func (c *routeChecker) Name() string { return "affinity" }

func (c *routeChecker) Pick(now sim.Time, nodes []*Node, r *coe.Request) int {
	cl, h := c.cl, c.cl.health
	c.picks++
	for i, n := range cl.nodes {
		if up := n.sys.State() == core.NodeUp; hasBit(cl.fleet.up, i) != up {
			c.errorf("pick %d at %v: %s up bit %v in state %v", c.picks, now, n.id, !up, n.sys.State())
		}
		if h != nil && hasBit(h.open, i) != (n.phase != breakerClosed) {
			c.errorf("pick %d at %v: %s open bit %v in phase %v", c.picks, now, n.id, hasBit(h.open, i), n.phase)
		}
	}
	c.want = c.want[:0]
	if r == &cl.probe {
		c.hedges++
		primary := c.primary(r.ID)
		for i, n := range cl.nodes {
			if n.sys.State() == core.NodeUp && i != primary && (h == nil || n.phase == breakerClosed) {
				c.want = append(c.want, n)
			}
		}
	} else {
		for _, n := range cl.nodes {
			if n.sys.State() != core.NodeUp {
				continue
			}
			if h != nil && (n.phase == breakerOpen || n.phase == breakerHalfOpen && n.probes >= h.cfg.Probes) {
				continue
			}
			c.want = append(c.want, n)
		}
		if len(c.want) == 0 {
			c.bypasses++
			for _, n := range cl.nodes {
				if n.sys.State() == core.NodeUp {
					c.want = append(c.want, n)
				}
			}
		}
	}
	same := len(nodes) == len(c.want)
	for i := 0; same && i < len(nodes); i++ {
		same = nodes[i] == c.want[i]
	}
	if !same {
		c.errorf("pick %d at %v (hedge %v): handed %v, want %v", c.picks, now, r == &cl.probe, ids(nodes), ids(c.want))
	}
	if len(nodes) < len(cl.nodes) {
		c.subsets++
	}
	return Affinity{}.Pick(now, nodes, r)
}

// primary returns the node holding lease id's primary copy, found on
// the nodes' hold lists; -1 when no node holds it.
func (c *routeChecker) primary(id int64) int {
	for i, n := range c.cl.nodes {
		for h := n.firstHeld; h != nil; h = h.next {
			if h.l != nil && h.l.id == id && h.l.primary == h {
				return i
			}
		}
	}
	c.errorf("hedge for lease %d, which no node holds as primary", id)
	return -1
}

// errorf reports a failed check, and stops the test at the fifth: a
// node routed to in error can bounce its offer back into routing
// without end.
func (c *routeChecker) errorf(format string, args ...any) {
	c.t.Errorf(format, args...)
	if c.errs++; c.errs == 5 {
		c.t.FailNow()
	}
}

func ids(nodes []*Node) []string {
	s := make([]string, len(nodes))
	for i, n := range nodes {
		s[i] = n.id
	}
	return s
}

// flipFleet asks for one Up node and for the whole fleet in turn, so the
// fleet autoscaler drains and resumes nodes every window.
type flipFleet struct{ down bool }

func (f *flipFleet) Name() string { return "flip" }

func (f *flipFleet) Scale(_ sim.Time, _ metrics.Window, _ time.Duration, _, total int) int {
	f.down = !f.down
	if f.down {
		return 1
	}
	return total
}

// TestRoutingMatchesStateAtEveryPick serves faulted, quarantined,
// hedged and autoscaled streams through the route checker. Each case
// must reach the routing paths it is there for.
func TestRoutingMatchesStateAtEveryPick(t *testing.T) {
	board := boardFor(t, workload.BoardA())
	node := nodeConfig(t, hw.NUMADevice())
	for _, tc := range []struct {
		name  string
		cfg   Config
		check func(*Report) bool
	}{{
		// Two stragglers trip their breakers, then a crash and a drain
		// leave only quarantined nodes Up: the breaker yields. Offers on
		// the wire to the crashed node bounce, its leases redeliver, and
		// the stragglers' leases hedge.
		name: "breaker",
		cfg: Config{
			Nodes:        Uniform(4, node),
			Placement:    UsageProportional{},
			Interconnect: testInterconnect,
			Faults: &sim.FaultPlan{Events: []sim.FaultEvent{
				{At: time.Second, Node: 2, Kind: sim.FaultSlow, Factor: 150},
				{At: time.Second, Node: 3, Kind: sim.FaultSlow, Factor: 150},
				{At: 4 * time.Second, Node: 0, Kind: sim.FaultCrash},
				{At: 4 * time.Second, Node: 1, Kind: sim.FaultDrain},
				{At: 5 * time.Second, Node: 0, Kind: sim.FaultRecover},
				{At: 6 * time.Second, Node: 1, Kind: sim.FaultRecover},
				{At: 7 * time.Second, Node: 2, Kind: sim.FaultRecover},
				{At: 7 * time.Second, Node: 3, Kind: sim.FaultRecover},
			}},
			Health: grayHealth,
			Hedge:  HedgeConfig{After: time.Second},
		},
		check: func(rep *Report) bool {
			return rep.BreakerTrips > 0 && rep.BreakerReinstates > 0 && rep.ProbesSent > 0 &&
				rep.BreakerBypasses > 0 && rep.HedgesFired > 0 && rep.Redelivered > 0 && rep.Bounced > 0
		},
	}, {
		// No health: a deadline alone fires a hedge, so only the mask
		// keeps the copy off the primary's node.
		name: "hedge",
		cfg: Config{
			Nodes:     Uniform(3, node),
			Placement: UsageProportional{},
			Faults: &sim.FaultPlan{Events: []sim.FaultEvent{
				{At: time.Second, Node: 1, Kind: sim.FaultSlow, Factor: 50},
				{At: 3 * time.Second, Node: 2, Kind: sim.FaultCrash},
				{At: 4 * time.Second, Node: 2, Kind: sim.FaultRecover},
			}},
			Hedge: HedgeConfig{After: 300 * time.Millisecond},
		},
		check: func(rep *Report) bool { return rep.HedgesFired > 0 && rep.Redelivered > 0 },
	}, {
		name: "autoscale",
		cfg: Config{
			Nodes:      Uniform(4, node),
			Placement:  UsageProportional{},
			Window:     250 * time.Millisecond,
			Autoscaler: &flipFleet{},
			Faults: &sim.FaultPlan{Events: []sim.FaultEvent{
				{At: 2 * time.Second, Node: 0, Kind: sim.FaultCrash},
				{At: 3 * time.Second, Node: 0, Kind: sim.FaultRecover},
			}},
		},
		check: func(rep *Report) bool { return rep.ScaleDowns > 0 && rep.ScaleUps > 0 && rep.Crashes > 0 },
	}} {
		t.Run(tc.name, func(t *testing.T) {
			check := &routeChecker{t: t}
			tc.cfg.Router = check
			cl := buildCluster(t, tc.cfg, board.Model)
			check.cl = cl
			rep, err := cl.Serve(poissonFor(t, board, 20, 300, 61))
			if err != nil {
				t.Fatal(err)
			}
			if check.bypasses != rep.BreakerBypasses {
				t.Errorf("%d picks read as bypasses, report counts %d", check.bypasses, rep.BreakerBypasses)
			}
			if check.picks < int(rep.N) || check.subsets == 0 || !tc.check(rep) {
				t.Errorf("%d picks (%d hedges, %d over a subset) for %d arrivals; report %+v %+v %+v",
					check.picks, check.hedges, check.subsets, rep.N, rep.ChaosStats, rep.HealthStats, rep.HedgeStats)
			}
		})
	}
}
