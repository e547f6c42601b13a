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
