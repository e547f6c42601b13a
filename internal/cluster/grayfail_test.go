package cluster

import (
	"reflect"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/hw"
	"repro/internal/sim"
	"repro/internal/workload"
)

// grayCluster builds a 4-node pinned fleet — affinity routing over a
// disjoint partition, the configuration where a straggler cannot be
// dodged by load-aware routing — with the given gray fault plan and
// mitigation stack.
func grayCluster(t testing.TB, plan *sim.FaultPlan, health HealthConfig, hedge HedgeConfig) *Cluster {
	t.Helper()
	board := boardFor(t, workload.BoardA())
	return buildCluster(t, Config{
		Nodes:     Uniform(4, nodeConfig(t, hw.NUMADevice())),
		Router:    Affinity{},
		Placement: Partition{},
		SLO:       3 * time.Second,
		Faults:    plan,
		Health:    health,
		Hedge:     hedge,
	}, board.Model)
}

var grayHealth = HealthConfig{Window: 500 * time.Millisecond, Breaker: true, Cooldown: 4, Probes: 2}

// TestGraySlowBreakerTripsAndReinstates: a fail-slow node keeps
// accepting work and publishing healthy predictions, so only measured
// completion latency can catch it — the breaker trips it out of
// routing, and once the degradation clears, half-open probing earns the
// node its way back in. Exactly-once completion holds throughout.
func TestGraySlowBreakerTripsAndReinstates(t *testing.T) {
	board := boardFor(t, workload.BoardA())
	cl := grayCluster(t, &sim.FaultPlan{Events: []sim.FaultEvent{
		{At: time.Second, Node: 1, Kind: sim.FaultSlow, Factor: 150},
		{At: 8 * time.Second, Node: 1, Kind: sim.FaultRecover},
	}}, grayHealth, HedgeConfig{})
	rep, err := cl.Serve(poissonFor(t, board, 8, 120, 20260807))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Slows != 1 || rep.Recoveries != 1 {
		t.Errorf("Slows = %d, Recoveries = %d, want 1 and 1", rep.Slows, rep.Recoveries)
	}
	if rep.BreakerTrips < 1 {
		t.Errorf("BreakerTrips = %d, want >= 1 (the straggler must be caught)", rep.BreakerTrips)
	}
	if rep.BreakerReinstates < 1 {
		t.Errorf("BreakerReinstates = %d, want >= 1 (the recovered node must earn its way back)", rep.BreakerReinstates)
	}
	if rep.ProbesSent < int64(grayHealth.Probes) {
		t.Errorf("ProbesSent = %d, want >= %d (reinstatement needs a probe quorum)", rep.ProbesSent, grayHealth.Probes)
	}
	if rep.Completions+rep.RedeliveredRejected != rep.N {
		t.Errorf("exactly-once broken: %d completions + %d rejected != %d admitted",
			rep.Completions, rep.RedeliveredRejected, rep.N)
	}
}

// TestGrayStallTripsWithoutCompletions: a stalled node completes
// nothing, so there are no latency samples to score — the dry-window
// stall detector (two consecutive silent windows while holding work)
// must zero its score and trip the breaker anyway.
func TestGrayStallTripsWithoutCompletions(t *testing.T) {
	board := boardFor(t, workload.BoardA())
	cl := grayCluster(t, &sim.FaultPlan{Events: []sim.FaultEvent{
		{At: time.Second, Node: 1, Kind: sim.FaultStall, For: 6 * time.Second},
	}}, grayHealth, HedgeConfig{})
	rep, err := cl.Serve(poissonFor(t, board, 8, 120, 20260807))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Stalls != 1 {
		t.Errorf("Stalls = %d, want 1", rep.Stalls)
	}
	if rep.BreakerTrips < 1 {
		t.Errorf("BreakerTrips = %d, want >= 1 (zero-throughput stall must read as score 0)", rep.BreakerTrips)
	}
	if rep.Completions+rep.RedeliveredRejected != rep.N {
		t.Errorf("exactly-once broken: %d completions + %d rejected != %d admitted",
			rep.Completions, rep.RedeliveredRejected, rep.N)
	}
}

// TestGrayHedgeExactlyOnceAccounting: hedges fire only for leases whose
// holder the breaker has already removed from routing, first completion
// wins, and every fired copy is accounted as exactly one of won-ledger
// resolution, wasted duplicate work, or crash-voided — never a second
// completion.
func TestGrayHedgeExactlyOnceAccounting(t *testing.T) {
	board := boardFor(t, workload.BoardA())
	cl := grayCluster(t, &sim.FaultPlan{Events: []sim.FaultEvent{
		{At: time.Second, Node: 1, Kind: sim.FaultSlow, Factor: 150},
		{At: 20 * time.Second, Node: 1, Kind: sim.FaultRecover},
	}}, grayHealth, HedgeConfig{After: time.Second})
	rep, err := cl.Serve(poissonFor(t, board, 8, 120, 20260807))
	if err != nil {
		t.Fatal(err)
	}
	if rep.HedgesFired < 1 {
		t.Fatalf("HedgesFired = %d, want >= 1 (a tripped holder with overdue leases must hedge)", rep.HedgesFired)
	}
	if rep.HedgeWins < 1 {
		t.Errorf("HedgeWins = %d, want >= 1 (copies on healthy nodes should beat a 150x straggler)", rep.HedgeWins)
	}
	if rep.HedgeWins > rep.HedgesFired {
		t.Errorf("HedgeWins = %d > HedgesFired = %d", rep.HedgeWins, rep.HedgesFired)
	}
	if rep.HedgeWasted+rep.HedgesVoided != rep.HedgesFired {
		t.Errorf("hedge accounting leak: %d wasted + %d voided != %d fired",
			rep.HedgeWasted, rep.HedgesVoided, rep.HedgesFired)
	}
	if rep.HedgePromoted != 0 {
		t.Errorf("HedgePromoted = %d, want 0 (no crashes in this plan)", rep.HedgePromoted)
	}
	if rep.Completions+rep.RedeliveredRejected != rep.N {
		t.Errorf("exactly-once broken: %d completions + %d rejected != %d admitted",
			rep.Completions, rep.RedeliveredRejected, rep.N)
	}
}

// TestGrayDeterministic: the full gray stack — slow, jitter, and stall
// injection with breaker and hedging armed, timer cancellation and all —
// serves identical streams identically.
func TestGrayDeterministic(t *testing.T) {
	board := boardFor(t, workload.BoardA())
	run := func() *Report {
		cl := grayCluster(t, &sim.FaultPlan{Events: []sim.FaultEvent{
			{At: time.Second, Node: 1, Kind: sim.FaultSlow, Factor: 150},
			{At: 1500 * time.Millisecond, Node: 2, Kind: sim.FaultJitter, Factor: 400},
			{At: 2 * time.Second, Node: 3, Kind: sim.FaultStall, For: 4 * time.Second},
			{At: 9 * time.Second, Node: 1, Kind: sim.FaultRecover},
			{At: 9 * time.Second, Node: 2, Kind: sim.FaultRecover},
		}}, grayHealth, HedgeConfig{After: time.Second})
		rep, err := cl.Serve(poissonFor(t, board, 8, 120, 20260807))
		if err != nil {
			t.Fatal(err)
		}
		return normalize(rep)
	}
	a, b := run(), run()
	if !reflect.DeepEqual(a, b) {
		t.Errorf("nondeterministic gray serve:\n%+v\nvs\n%+v", a, b)
	}
}

// TestGrayMonitorOnlyIsPassive: health scoring without the breaker
// observes but never steers — a stream serves exactly as it would with
// health disabled, down to every latency, routing and hedge count; only
// the health/breaker report fields differ. That holds on a fault-free
// stream and on a straggler fleet with hedging on, where only the
// breaker's verdict may hold a hedge back.
func TestGrayMonitorOnlyIsPassive(t *testing.T) {
	board := boardFor(t, workload.BoardA())
	straggler := &sim.FaultPlan{Events: []sim.FaultEvent{
		{At: time.Second, Node: 1, Kind: sim.FaultSlow, Factor: 150},
		{At: 8 * time.Second, Node: 1, Kind: sim.FaultRecover},
	}}
	for _, tc := range []struct {
		name  string
		plan  *sim.FaultPlan
		hedge HedgeConfig
	}{
		{"fault-free", nil, HedgeConfig{}},
		{"straggler-hedged", straggler, HedgeConfig{After: time.Second}},
	} {
		run := func(health HealthConfig) *Report {
			cl := grayCluster(t, tc.plan, health, tc.hedge)
			rep, err := cl.Serve(poissonFor(t, board, 8, 120, 20260807))
			if err != nil {
				t.Fatal(err)
			}
			out := normalize(rep)
			out.HealthScores = nil
			return out
		}
		monitored := run(HealthConfig{Window: 500 * time.Millisecond})
		if monitored.BreakerTrips != 0 {
			t.Errorf("%s: BreakerTrips = %d with Breaker off, want 0", tc.name, monitored.BreakerTrips)
		}
		plain := run(HealthConfig{})
		if tc.hedge.Enabled() && plain.HedgesFired == 0 {
			t.Errorf("%s: no hedge fired without health; the case shows nothing", tc.name)
		}
		if !reflect.DeepEqual(monitored, plain) {
			t.Errorf("%s: monitor-only health changed the serve:\nmonitored: %+v\nplain:     %+v", tc.name, monitored, plain)
		}
	}
}

// TestBreakerCapAndQuorum exercises the breaker FSM's liveness guards
// directly: a fleet-wide score collapse quarantines at most half the
// nodes and never the last routable one, and a half-open node without a
// full probe quorum of completions is not judged — one fast batch must
// not reinstate it.
func TestBreakerCapAndQuorum(t *testing.T) {
	cl := grayCluster(t, nil, grayHealth, HedgeConfig{})
	h := cl.health

	for _, n := range cl.nodes {
		n.score = 0.1
	}
	cl.breakerTick()
	if open := count(h.open); open != 2 || h.BreakerTrips != 2 {
		t.Errorf("fleet-wide collapse: %d open, trips = %d, want 2 and 2 (cap is half the fleet)", open, h.BreakerTrips)
	}
	if got := cl.routableHealthy(); got != 2 {
		t.Errorf("routableHealthy = %d, want 2", got)
	}

	// Drive node 0 to half-open and score it healthy: without a full
	// probe quorum of completions this window, it must stay half-open.
	n0 := cl.nodes[0]
	for n0.phase != breakerHalfOpen {
		cl.breakerTick()
	}
	n0.score = 1
	h.onComplete(n0, 0.01) // one completion < Probes (2)
	cl.breakerTick()
	if n0.phase != breakerHalfOpen {
		t.Fatalf("phase[0] = %v after a single completion, want half-open held (quorum is %d)", n0.phase, h.cfg.Probes)
	}
	h.onComplete(n0, 0.01)
	cl.breakerTick()
	if n0.phase != breakerClosed || h.BreakerReinstates != 1 {
		t.Errorf("phase[0] = %v, reinstates = %d after quorum, want closed and 1", n0.phase, h.BreakerReinstates)
	}
}

// TestHealthConfigValidation: the config seam rejects a breaker without
// a scoring window, negative windows and hedge deadlines, windows below
// the floor, and a one-stream replay node.
func TestHealthConfigValidation(t *testing.T) {
	board := boardFor(t, workload.BoardA())
	replay := nodeConfig(t, hw.NUMADevice())
	replay.PreschedPicks = []int{} // non-nil: a replay system, one stream only
	bad := []Config{
		{Health: HealthConfig{Breaker: true}},
		{Health: HealthConfig{Window: -time.Second}},
		{Health: HealthConfig{Window: core.MinWindow / 2}},
		{Window: core.MinWindow / 2},
		{Hedge: HedgeConfig{After: -time.Second}},
		{Nodes: []core.Config{nodeConfig(t, hw.NUMADevice()), replay}},
	}
	for _, cfg := range bad {
		if cfg.Nodes == nil {
			cfg.Nodes = Uniform(2, nodeConfig(t, hw.NUMADevice()))
		}
		if _, err := New(cfg, board.Model); err == nil {
			t.Errorf("config %+v accepted, want error", cfg)
		}
	}
}
