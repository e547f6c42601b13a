package cluster

import (
	"slices"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/hw"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/trace"
	"repro/internal/workload"
)

// TestFleetRecordsEachCompletionOnce: the front end records every
// completion once, tagged with its serving node and tenant, and the
// per-node and per-node-tenant latency rows are folds over that one
// record. Under crashes, hedging and an interconnect, with two tenants,
// in exact and sketch mode and across a warm restart, the node rows
// and the tenant rows each sum to the fleet's completions, each node's
// tenant rows sum to the node's row, and no node report carries a
// sketch.
func TestFleetRecordsEachCompletionOnce(t *testing.T) {
	board := boardFor(t, workload.BoardA())
	plan, err := sim.GenerateFaultPlan(4, 2*time.Second, 500*time.Millisecond, 40*time.Second, 3)
	if err != nil {
		t.Fatal(err)
	}
	for _, mode := range []core.PercentileMode{core.PercentilesExact, core.PercentilesSketch} {
		c := buildCluster(t, Config{
			Nodes:        Uniform(4, nodeConfig(t, hw.NUMADevice())),
			Router:       Affinity{},
			Faults:       plan,
			Hedge:        HedgeConfig{After: 300 * time.Millisecond},
			Interconnect: testInterconnect,
			SLO:          500 * time.Millisecond,
			Percentiles:  mode,
		}, board.Model)
		for round := 0; round < 2; round++ {
			rep, err := c.Serve(tenantMix(t, board, 30, 900, 10, 300))
			if err != nil {
				t.Fatal(err)
			}
			if rep.Crashes == 0 || rep.Redelivered == 0 || rep.HedgeWasted == 0 {
				t.Fatalf("mode %d round %d: %d crashes, %d redelivered, %d hedges wasted: the test exercises nothing",
					mode, round, rep.Crashes, rep.Redelivered, rep.HedgeWasted)
			}
			var nodeN, tenantN int
			for _, nr := range rep.PerNode {
				if nr.LatencySketch != nil {
					t.Errorf("mode %d: node %s report carries a sketch", mode, nr.System)
				}
				if int64(nr.Latency.N) > nr.Completions {
					t.Errorf("mode %d: node latency over %d samples for %d node completions", mode, nr.Latency.N, nr.Completions)
				}
				rows := 0
				for _, ts := range nr.PerTenant {
					rows += ts.Latency.N
				}
				if rows != nr.Latency.N {
					t.Errorf("mode %d: a node's tenant rows hold %d samples, its own row %d", mode, rows, nr.Latency.N)
				}
				if nr.Latency.N > 0 && (nr.Latency.Max > rep.Latency.Max || nr.Latency.Min < rep.Latency.Min) {
					t.Errorf("mode %d: node range [%v, %v] outside the fleet's [%v, %v]",
						mode, nr.Latency.Min, nr.Latency.Max, rep.Latency.Min, rep.Latency.Max)
				}
				nodeN += nr.Latency.N
				tenantN += rows
			}
			if int64(nodeN) != rep.Completions || int64(tenantN) != rep.Completions {
				t.Errorf("mode %d round %d: node rows hold %d samples and tenant rows %d, for %d completions",
					mode, round, nodeN, tenantN, rep.Completions)
			}
		}
	}
}

// TestFleetNodeLatencyMatchesTrace: on a fault-free, hedge-free fleet
// without an interconnect a node's completions and the front end's
// records of them coincide — same instants, same order — so each node's
// folded latency equals stats.Summarize over the durations of its own
// trace's completion events, bit for bit.
func TestFleetNodeLatencyMatchesTrace(t *testing.T) {
	board := boardFor(t, workload.BoardA())
	const slo = 500 * time.Millisecond
	cfg := Config{Nodes: Uniform(3, nodeConfig(t, hw.NUMADevice())), Router: Affinity{}, SLO: slo}
	for i := range cfg.Nodes {
		cfg.Nodes[i].Trace = trace.New()
		cfg.Nodes[i].SLO = slo
	}
	c := buildCluster(t, cfg, board.Model)
	rep, err := c.Serve(poissonFor(t, board, 40, 600, 5))
	if err != nil {
		t.Fatal(err)
	}
	for i, nr := range rep.PerNode {
		var durs []float64
		for _, ev := range cfg.Nodes[i].Trace.Events() {
			if ev.Kind == trace.KindComplete {
				durs = append(durs, ev.Dur.Seconds())
			}
		}
		if len(durs) == 0 {
			t.Fatalf("node %d completed nothing", i)
		}
		if want := stats.SummarizeInPlace(slices.Clone(durs)); nr.Latency != want {
			t.Errorf("node %d: latency %+v, want the trace's %+v", i, nr.Latency, want)
		}
		if want := stats.Attainment(durs, slo.Seconds()); nr.SLOAttainment != want {
			t.Errorf("node %d: attainment %v, want the trace's %v", i, nr.SLOAttainment, want)
		}
		if int64(len(durs)) != nr.Completions {
			t.Errorf("node %d: %d completion events for %d completions", i, len(durs), nr.Completions)
		}
	}
}

// TestFleetTenantLatencyMatchesTrace: on a fault-free, hedge-free fleet
// without an interconnect each node's tenant rows equal, bit for bit,
// stats.SummarizeInPlace and stats.Attainment over that tenant's
// completion durations in the node's own trace. Two warm streams see
// their tenants first in opposite orders, so every node's tenant slots
// swap between them and the front end's slot-keyed tags must follow.
func TestFleetTenantLatencyMatchesTrace(t *testing.T) {
	board := boardFor(t, workload.BoardA())
	const slo = 500 * time.Millisecond
	cfg := Config{Nodes: Uniform(3, nodeConfig(t, hw.NUMADevice())), Router: Affinity{}, SLO: slo}
	for i := range cfg.Nodes {
		cfg.Nodes[i].Trace = trace.New()
		cfg.Nodes[i].SLO = slo
	}
	c := buildCluster(t, cfg, board.Model)
	// mix yields tenant fast at 40 req/s and tenant slow at 4, so every
	// node admits fast's requests first.
	mix := func(fast, slow string, seed int64) *workload.RecordingSource {
		a, err := workload.Poisson{Name: fast, Board: board, Rate: 40, N: 400, Seed: seed}.NewSource()
		if err != nil {
			t.Fatal(err)
		}
		b, err := workload.Poisson{Name: slow, Board: board, Rate: 4, N: 60, Seed: seed + 1}.NewSource()
		if err != nil {
			t.Fatal(err)
		}
		src, err := workload.Mix{Name: "tenants", Tenants: []workload.Source{a, b}}.NewSource()
		if err != nil {
			t.Fatal(err)
		}
		return workload.Record(src)
	}
	firstSeen := make([]string, len(cfg.Nodes))
	for round, names := range [][2]string{{"flood", "quiet"}, {"quiet", "flood"}} {
		marks := make([]int, len(cfg.Nodes))
		for i, nc := range cfg.Nodes {
			marks[i] = len(nc.Trace.Events())
		}
		src := mix(names[0], names[1], int64(31+2*round))
		rep, err := c.Serve(src)
		if err != nil {
			t.Fatal(err)
		}
		// The mix numbers its requests from 0 in arrival order.
		entries := src.Trace().Entries
		for i, nr := range rep.PerNode {
			if len(nr.PerTenant) != 2 || nr.PerTenant[0].Name != names[0] {
				t.Fatalf("round %d node %d: tenant rows %+v, want %s then %s", round, i, nr.PerTenant, names[0], names[1])
			}
			if round > 0 && nr.PerTenant[0].Name == firstSeen[i] {
				t.Fatalf("node %d saw %s first in both streams; its tenant slots did not swap", i, firstSeen[i])
			}
			firstSeen[i] = nr.PerTenant[0].Name
			durs := map[string][]float64{}
			for _, ev := range cfg.Nodes[i].Trace.Events()[marks[i]:] {
				if ev.Kind != trace.KindComplete {
					continue
				}
				if ev.Request < 0 || ev.Request >= int64(len(entries)) {
					t.Fatalf("round %d node %d: completed request %d of %d arrivals", round, i, ev.Request, len(entries))
				}
				name := entries[ev.Request].Tenant
				durs[name] = append(durs[name], ev.Dur.Seconds())
			}
			for _, ts := range nr.PerTenant {
				d := durs[ts.Name]
				if len(d) == 0 || int64(len(d)) != ts.Completions {
					t.Fatalf("round %d node %d tenant %s: %d completion events for %d completions", round, i, ts.Name, len(d), ts.Completions)
				}
				if want := stats.SummarizeInPlace(slices.Clone(d)); ts.Latency != want {
					t.Errorf("round %d node %d tenant %s: latency %+v, want the trace's %+v", round, i, ts.Name, ts.Latency, want)
				}
				if want := stats.Attainment(d, slo.Seconds()); ts.SLOAttainment != want {
					t.Errorf("round %d node %d tenant %s: attainment %v, want the trace's %v", round, i, ts.Name, ts.SLOAttainment, want)
				}
			}
		}
	}
}
