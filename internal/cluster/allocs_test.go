package cluster

import (
	"testing"
	"time"

	"repro/internal/coe"
	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/workload"
)

// TestInterconnectSteadyStateAllocsPin pins the interconnect hot path's
// allocation discipline: once the message, hold and lease pools, arena,
// and sketches are warm, a full stream of offer → accept fold → completion
// fold round trips across the interconnect must stay within a small
// per-request allocation budget. A leak in any pool — messages never
// returned to the free list, leases never released, requests not
// recycled — shows up here as a per-request slope, not a constant.
func TestInterconnectSteadyStateAllocsPin(t *testing.T) {
	board := boardFor(t, workload.BoardA())
	arena := coe.NewArena()
	cfg := interconnectConfig(t, nil, HealthConfig{}, HedgeConfig{})
	cfg.Arena = arena
	cfg.Percentiles = core.PercentilesSketch
	c := buildCluster(t, cfg, board.Model)

	const n = 2000
	seed := int64(1)
	stream := func() workload.Source {
		src, err := workload.Poisson{
			Name: "allocs-pin", Board: board, Rate: 120, N: n, Seed: seed, Arena: arena,
		}.NewSource()
		if err != nil {
			t.Fatal(err)
		}
		seed++
		return src
	}

	// Warm everything: the first stream grows the arena to the in-flight
	// peak, stocks the message free list and the hold and lease pools,
	// and sizes the recorder sketches.
	if _, err := c.Serve(stream()); err != nil {
		t.Fatal(err)
	}

	avg := testing.AllocsPerRun(2, func() {
		if _, err := c.Serve(stream()); err != nil {
			t.Error(err)
		}
	})
	// The interconnect path itself — pooled messages, holds and leases,
	// all kept across streams — contributes ~0 here; the budget covers
	// what remains: per-stream fixed overhead (the report, source
	// construction) and node-internal expert-cache eviction churn at
	// under one allocation per request.
	// The closure-era kernel's ~10 allocs/request blows through the
	// bound seven-fold, so any message-, hold- or lease-pool leak fails
	// loudly.
	perReq := avg / n
	t.Logf("allocs: %.0f total, %.3f per request", avg, perReq)
	if perReq > 1.5 {
		t.Errorf("steady-state interconnect serve allocates %.3f per request (%.0f total for %d), want <= 1.5",
			perReq, avg, n)
	}
}

// TestWarmLifecycleAllocatesNothing: a cluster starts each stream on the
// state the last one left. The durable-delivery and health state, the
// nodes' drain timing and tenant tags are reset in place, so once a
// stream has been served beginLifecycle allocates nothing, with health
// and breaker, hedging, a fault plan and an interconnect all armed.
func TestWarmLifecycleAllocatesNothing(t *testing.T) {
	board := boardFor(t, workload.BoardA())
	plan := &sim.FaultPlan{Events: []sim.FaultEvent{
		{At: time.Second, Node: 1, Kind: sim.FaultSlow, Factor: 150},
		{At: 3 * time.Second, Node: 2, Kind: sim.FaultCrash},
		{At: 5 * time.Second, Node: 2, Kind: sim.FaultRecover},
		{At: 20 * time.Second, Node: 1, Kind: sim.FaultRecover},
	}}
	c := buildCluster(t, interconnectConfig(t, plan, grayHealth, HedgeConfig{After: time.Second}), board.Model)
	rep, err := c.Serve(tenantMix(t, board, 8, 120, 2, 30))
	if err != nil {
		t.Fatal(err)
	}
	if rep.BreakerTrips == 0 || rep.HedgesFired == 0 || rep.Crashes == 0 {
		t.Fatalf("%d trips, %d hedges, %d crashes: the stream exercises nothing", rep.BreakerTrips, rep.HedgesFired, rep.Crashes)
	}
	if allocs := testing.AllocsPerRun(10, c.beginLifecycle); allocs != 0 {
		t.Errorf("beginLifecycle allocates %v times after a served stream, want 0", allocs)
	}
}

// TestHedgeDueAllocatesNothing: a lease's deadline runs a callback bound
// once per lease, so a fired deadline allocates nothing. The lease's
// primary is held on a node whose breaker is closed, so each deadline
// holds the hedge back and re-arms, three times, before the primary
// keeps the lease.
func TestHedgeDueAllocatesNothing(t *testing.T) {
	board := boardFor(t, workload.BoardA())
	c := buildCluster(t, interconnectConfig(t, nil, HealthConfig{Window: 500 * time.Millisecond, Breaker: true}, HedgeConfig{After: time.Second}), board.Model)
	if _, err := c.Serve(tenantMix(t, board, 8, 120, 2, 30)); err != nil {
		t.Fatal(err)
	}
	if c.nodes[0].phase != breakerClosed {
		t.Fatalf("node 0's breaker is %v after the serve, want closed", c.nodes[0].phase)
	}
	l := c.newLease()
	l.primary = c.newHold(0)
	l.primary.l, l.primary.held = l, true
	fired := c.chaos.HedgeRetries
	allocs := testing.AllocsPerRun(10, func() {
		l.retries = 0
		c.armHedge(l, time.Second)
		c.env.Run()
	})
	if allocs != 0 {
		t.Errorf("a fired deadline allocates %v times, want 0", allocs)
	}
	if got := c.chaos.HedgeRetries - fired; got != 11*hedgeRetries {
		t.Errorf("%d deadlines re-armed over 11 runs, want %d", got, 11*hedgeRetries)
	}
	h := l.primary
	l.primary, l.done = nil, true
	c.freeHold(h)
	c.settle(l)
}
