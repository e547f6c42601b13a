package cluster

import (
	"reflect"
	"testing"
	"time"

	"repro/internal/hw"
	"repro/internal/sim"
	"repro/internal/workload"
)

// testInterconnect is the hop model the interconnect tests run under: a
// split fleet with the first two nodes on the front end's board and a
// slower class beyond it, so per-node latencies genuinely differ.
var testInterconnect = Interconnect{
	Dispatch:   200 * time.Microsecond,
	IntraBoard: 100 * time.Microsecond,
	InterNode:  600 * time.Microsecond,
	BoardSize:  2,
}

// interconnectConfig builds a 4-node fleet over the hop model with
// the given lifecycle knobs.
func interconnectConfig(t testing.TB, plan *sim.FaultPlan, health HealthConfig, hedge HedgeConfig) Config {
	t.Helper()
	return Config{
		Nodes:        Uniform(4, nodeConfig(t, hw.NUMADevice())),
		Router:       Affinity{},
		Placement:    Partition{},
		SLO:          3 * time.Second,
		Faults:       plan,
		Health:       health,
		Hedge:        hedge,
		Interconnect: testInterconnect,
	}
}

// serveInterconnect runs one stream over an interconnect fleet and returns
// the normalized report.
func serveInterconnect(t *testing.T, cfg Config, rate float64, n int, seed int64) *Report {
	t.Helper()
	board := boardFor(t, workload.BoardA())
	cl := buildCluster(t, cfg, board.Model)
	rep, err := cl.Serve(poissonFor(t, board, rate, n, seed))
	if err != nil {
		t.Fatal(err)
	}
	return normalize(rep)
}

// deprecatedShards is the value the determinism tests give the ignored
// Config.Shards field on their second serve. The benchmark module still
// sets the field, so it must change nothing.
const deprecatedShards = 3

// serveTwice serves one stream on two fresh fleets built from cfg, the
// second with the deprecated Shards field set, and fails unless the
// reports are identical. It returns the first report.
func serveTwice(t *testing.T, cfg Config, rate float64, n int, seed int64) *Report {
	t.Helper()
	want := serveInterconnect(t, cfg, rate, n, seed)
	cfg.Shards = deprecatedShards
	if got := serveInterconnect(t, cfg, rate, n, seed); !reflect.DeepEqual(want, got) {
		t.Errorf("Shards=%d serve diverged from the first:\n%+v\nvs\n%+v", deprecatedShards, want, got)
	}
	return want
}

// TestShardedFleetDeterministicAcrossShardCounts pins determinism on a
// fault-free fleet: the full report — fleet percentiles, per-node
// reports, imbalance — is identical on a second fleet, whatever the
// deprecated Shards field says.
func TestShardedFleetDeterministicAcrossShardCounts(t *testing.T) {
	rep := serveTwice(t, interconnectConfig(t, nil, HealthConfig{}, HedgeConfig{}), 40, 200, 13)
	if rep.Completions == 0 || rep.N == 0 {
		t.Fatalf("reference run served nothing: %d arrivals, %d completions", rep.N, rep.Completions)
	}
}

// TestShardedChaosDeterministicAcrossShardCounts does the same for the
// crash/drain/recover machinery — lease voiding, redelivery racing
// completion folds on the wire, pending-queue flushes.
func TestShardedChaosDeterministicAcrossShardCounts(t *testing.T) {
	plan := &sim.FaultPlan{Events: []sim.FaultEvent{
		{At: time.Second, Node: 1, Kind: sim.FaultCrash},
		{At: 2500 * time.Millisecond, Node: 1, Kind: sim.FaultRecover},
		{At: 3 * time.Second, Node: 2, Kind: sim.FaultDrain},
		{At: 4500 * time.Millisecond, Node: 2, Kind: sim.FaultRecover},
	}}
	rep := serveTwice(t, interconnectConfig(t, plan, HealthConfig{}, HedgeConfig{}), 30, 150, 9)
	if rep.LostLeases == 0 {
		t.Fatal("crash voided no leases; the test exercises nothing")
	}
}

// TestShardedGrayfailDeterministicAcrossShardCounts does the same for
// the full gray stack — slow/jitter/stall injection, breaker, hedged
// offers in flight.
func TestShardedGrayfailDeterministicAcrossShardCounts(t *testing.T) {
	plan := &sim.FaultPlan{Events: []sim.FaultEvent{
		{At: time.Second, Node: 1, Kind: sim.FaultSlow, Factor: 150},
		{At: 1500 * time.Millisecond, Node: 2, Kind: sim.FaultJitter, Factor: 400},
		{At: 2 * time.Second, Node: 3, Kind: sim.FaultStall, For: 4 * time.Second},
		{At: 9 * time.Second, Node: 1, Kind: sim.FaultRecover},
		{At: 9 * time.Second, Node: 2, Kind: sim.FaultRecover},
	}}
	serveTwice(t, interconnectConfig(t, plan, grayHealth, HedgeConfig{After: time.Second}), 8, 120, 20260807)
}

// TestInterconnectExactlyOnceUnderChaos asserts the accounting contract
// over an interconnect directly: every arrival resolves exactly once
// even with crashes racing completion acks across the interconnect,
// and redelivery covers every voided lease.
func TestInterconnectExactlyOnceUnderChaos(t *testing.T) {
	plan := &sim.FaultPlan{Events: []sim.FaultEvent{
		{At: time.Second, Node: 1, Kind: sim.FaultCrash},
		{At: 2 * time.Second, Node: 1, Kind: sim.FaultRecover},
		{At: 3 * time.Second, Node: 0, Kind: sim.FaultCrash},
		{At: 4 * time.Second, Node: 0, Kind: sim.FaultRecover},
	}}
	rep := serveInterconnect(t, interconnectConfig(t, plan, HealthConfig{}, HedgeConfig{}), 30, 150, 11)
	if rep.N != 150 {
		t.Fatalf("admitted %d of 150", rep.N)
	}
	if rep.Completions+rep.RedeliveredRejected != rep.N {
		t.Errorf("exactly-once broken: %d completions + %d rejected != %d admitted",
			rep.Completions, rep.RedeliveredRejected, rep.N)
	}
	if rep.LostLeases == 0 {
		t.Fatal("two crashes voided no leases; the test exercises nothing")
	}
	if rep.Redelivered < rep.LostLeases-rep.RedeliveredRejected {
		t.Errorf("redelivered %d of %d voided leases (%d terminally rejected)",
			rep.Redelivered, rep.LostLeases, rep.RedeliveredRejected)
	}
}

// TestInterconnectReopenDeterministic pins warm restarts over an
// interconnect: consecutive Serve calls reopen the environment, hedge
// timers and leases from the first stream never leak into the second,
// and a second fleet
// — with the deprecated Shards field set — serves both streams
// identically.
func TestInterconnectReopenDeterministic(t *testing.T) {
	plan := &sim.FaultPlan{Events: []sim.FaultEvent{
		{At: time.Second, Node: 1, Kind: sim.FaultCrash},
		{At: 2 * time.Second, Node: 1, Kind: sim.FaultRecover},
	}}
	board := boardFor(t, workload.BoardA())
	run := func(shards int) []*Report {
		cfg := interconnectConfig(t, plan, grayHealth, HedgeConfig{After: time.Second})
		cfg.Shards = shards
		cl := buildCluster(t, cfg, board.Model)
		var reps []*Report
		for round := 0; round < 2; round++ {
			rep, err := cl.Serve(poissonFor(t, board, 25, 100, int64(17+round)))
			if err != nil {
				t.Fatalf("shards=%d round %d: %v", shards, round, err)
			}
			if rep.Completions+rep.RedeliveredRejected != rep.N {
				t.Fatalf("shards=%d round %d: %d completions + %d rejected != %d admitted",
					shards, round, rep.Completions, rep.RedeliveredRejected, rep.N)
			}
			reps = append(reps, normalize(rep))
		}
		return reps
	}
	want, got := run(0), run(deprecatedShards)
	for round := range want {
		if !reflect.DeepEqual(want[round], got[round]) {
			t.Errorf("round %d diverged:\n%+v\nvs\n%+v", round, want[round], got[round])
		}
	}
}

// TestShardedZeroInterconnectUnsharded pins the engagement seam: a
// zero-valued Interconnect keeps every hop synchronous regardless of
// the deprecated Shards field, byte-identical to a config that never
// mentions either knob.
func TestShardedZeroInterconnectUnsharded(t *testing.T) {
	board := boardFor(t, workload.BoardA())
	base := Config{
		Nodes:     Uniform(3, nodeConfig(t, hw.NUMADevice())),
		Router:    Affinity{},
		Placement: UsageProportional{},
		SLO:       time.Second,
	}
	plain := buildCluster(t, base, board.Model)
	shardy := base
	shardy.Shards = 4
	cl := buildCluster(t, shardy, board.Model)
	for _, n := range append(plain.nodes, cl.nodes...) {
		if n.hop != 0 {
			t.Fatal("a cluster without an Interconnect has timed hops")
		}
	}
	a, err := plain.Serve(poissonFor(t, board, 40, 200, 13))
	if err != nil {
		t.Fatal(err)
	}
	b, err := cl.Serve(poissonFor(t, board, 40, 200, 13))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(normalize(a), normalize(b)) {
		t.Error("Shards knob changed a latency-free serve")
	}
}

// TestInterconnectConfigValidation pins the constructor's contract checks.
func TestInterconnectConfigValidation(t *testing.T) {
	board := boardFor(t, workload.BoardA())
	bad := []struct {
		name string
		mut  func(*Config)
	}{
		{"negative latency", func(c *Config) { c.Interconnect = Interconnect{Dispatch: -time.Millisecond} }},
		{"zero hop", func(c *Config) {
			// Enabled, but the front end's board reaches its nodes for free.
			c.Interconnect = Interconnect{InterNode: time.Millisecond, BoardSize: 2}
		}},
		{"hop above the ceiling", func(c *Config) {
			// now + hop would overflow the clock.
			c.Interconnect = Interconnect{Dispatch: 2562047 * time.Hour}
		}},
		{"hops summing above the ceiling", func(c *Config) {
			c.Interconnect = Interconnect{Dispatch: maxHop / 2, InterNode: maxHop, BoardSize: 2}
		}},
	}
	for _, tc := range bad {
		cfg := interconnectConfig(t, nil, HealthConfig{}, HedgeConfig{})
		tc.mut(&cfg)
		if _, err := New(cfg, board.Model); err == nil {
			t.Errorf("%s: New accepted the config", tc.name)
		}
	}
	for _, n := range buildCluster(t, interconnectConfig(t, nil, HealthConfig{}, HedgeConfig{}), board.Model).nodes {
		if n.hop == 0 {
			t.Error("an enabled Interconnect did not make hops timed")
		}
	}
	cfg := interconnectConfig(t, nil, HealthConfig{}, HedgeConfig{})
	cfg.Interconnect = Interconnect{Dispatch: maxHop}
	if _, err := New(cfg, board.Model); err != nil {
		t.Errorf("a hop at the ceiling was refused: %v", err)
	}
}

// TestInterconnectLatencyShowsUp sanity-checks that the hop model actually
// costs something: the same stream served with a 10x slower
// interconnect completes with a strictly higher mean latency.
func TestInterconnectLatencyShowsUp(t *testing.T) {
	fast := serveInterconnect(t, interconnectConfig(t, nil, HealthConfig{}, HedgeConfig{}), 40, 200, 13)
	slowIC := interconnectConfig(t, nil, HealthConfig{}, HedgeConfig{})
	slowIC.Interconnect = Interconnect{
		Dispatch:   2 * time.Millisecond,
		IntraBoard: time.Millisecond,
		InterNode:  6 * time.Millisecond,
		BoardSize:  2,
	}
	slow := serveInterconnect(t, slowIC, 40, 200, 13)
	if slow.Latency.Mean <= fast.Latency.Mean {
		t.Errorf("10x interconnect did not raise mean latency: fast %v, slow %v",
			time.Duration(fast.Latency.Mean*float64(time.Second)),
			time.Duration(slow.Latency.Mean*float64(time.Second)))
	}
}

// TestCrashWithAcceptOnTheWire: a node that admits a request and
// crashes before its accept fold reaches the front end has already
// purged the request, so the lease the fold opens must be voided and
// redelivered on landing — not left open forever waiting for an ack the
// dead node will never send.
func TestCrashWithAcceptOnTheWire(t *testing.T) {
	board := boardFor(t, workload.BoardA())
	src := func() workload.Source { return poissonFor(t, board, 20, 40, 5) }
	first, _ := src().Next()
	hop := testInterconnect.NodeLatency(0)
	// The offer lands one hop after the arrival and the accept needs one
	// more to come back: crash halfway through the return hop.
	crash := first.At + hop + hop/2
	plan := &sim.FaultPlan{Events: []sim.FaultEvent{
		{At: crash, Node: 0, Kind: sim.FaultCrash},
		{At: crash + 10*time.Millisecond, Node: 0, Kind: sim.FaultRecover},
	}}
	cfg := Config{
		Nodes:        Uniform(1, nodeConfig(t, hw.NUMADevice())),
		SLO:          time.Second,
		Faults:       plan,
		Interconnect: testInterconnect,
	}
	rep, err := buildCluster(t, cfg, board.Model).Serve(src())
	if err != nil {
		t.Fatal(err)
	}
	if rep.N != 40 || rep.Completions != 40 {
		t.Errorf("arrivals/completions = %d/%d, want 40/40", rep.N, rep.Completions)
	}
	if rep.LostLeases == 0 {
		t.Error("the crash voided no lease; the test exercises nothing")
	}
}
