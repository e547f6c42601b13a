package experiments

import (
	"fmt"
	"math"
	"time"

	"repro/internal/cluster"
	"repro/internal/coe"
	"repro/internal/core"
	"repro/internal/hw"
	"repro/internal/runner"
	"repro/internal/workload"
)

// Fleet-scale parameters: a 100-node CoServe fleet under an open-loop
// steady stream at ~83% of aggregate capacity (one NUMA node saturates
// near 12 img/s). The experiment keeps the horizon short so the
// registry stays cheap to run end to end; BenchmarkFleetServe drives
// the same fleet through ≥1M requests (at a sustainable offered rate)
// and records the memory story in BENCH_fleet.json.
const (
	fleetNodes   = 100
	fleetRate    = 1000.0
	fleetHorizon = 10 * time.Second
)

// fleetCluster assembles the 100-node fleet in the given percentile
// mode: every node is a CoServe-casual NUMA data plane, with
// residency-affinity routing and usage-proportional placement — the
// combination that sends requests where their experts already live,
// which is what keeps a 100-node fleet at ~84% of the offered 1000
// req/s instead of thrashing switches.
func fleetCluster(ctx *Context, mode core.PercentileMode) (*cluster.Cluster, *workload.Board, error) {
	board, err := ctx.Board(workload.BoardA())
	if err != nil {
		return nil, nil, err
	}
	nodeCfg, err := ctx.serveConfig(hw.NUMADevice(), core.CoServe)
	if err != nil {
		return nil, nil, err
	}
	cl, err := cluster.New(cluster.Config{
		Nodes:       cluster.Uniform(fleetNodes, nodeCfg),
		Router:      cluster.Affinity{},
		Placement:   cluster.UsageProportional{},
		SLO:         serveSLO,
		Percentiles: mode,
	}, board.Model)
	if err != nil {
		return nil, nil, err
	}
	return cl, board, nil
}

// fleetSource builds the unbounded steady arrival process bounded at
// the fleet horizon, leasing requests from the arena.
func fleetSource(board *workload.Board, arena *coe.Arena) (workload.Source, error) {
	src, err := workload.Steady{
		Name: "fleet-steady", Board: board,
		Rate: fleetRate, Seed: 20260807, Arena: arena,
	}.NewSource()
	if err != nil {
		return nil, err
	}
	return workload.Horizon(src, fleetHorizon), nil
}

// ServeFleet runs the 100-node fleet once per percentile mode — exact
// (store-every-sample, the golden mode) and sketch (O(1) streaming) —
// over the identical request stream, and reports both rows side by
// side with the sketch's percentile deviation from exact. The two
// timelines are the same simulation; only the accounting differs, so
// every column but the percentiles matches exactly and the deviation
// column is the sketch's whole observable cost.
func ServeFleet(ctx *Context) (*Table, error) {
	t := &Table{
		ID: "serve-fleet",
		Title: fmt.Sprintf("Fleet serving: %d nodes, steady %.0f req/s over %v, exact vs sketch percentiles (SLO %v)",
			fleetNodes, fleetRate, fleetHorizon, serveSLO),
		Columns: []string{"percentiles", "nodes", "completions", "throughput", "p50", "p95", "p99",
			"slo attainment", "imbalance", "p99 vs exact"},
		Notes: []string{
			"both rows serve the identical stream: sketch mode changes latency accounting, never the timeline",
			"sketch percentiles are rank-exact and value-accurate to ±1% (see README performance notes); counts, min/max, mean, throughput and imbalance stay exact",
			"requests are arena-recycled: steady-state allocation is bounded by in-flight requests, not stream length (BENCH_fleet.json pins it at 1M requests)",
		},
	}
	modes := []core.PercentileMode{core.PercentilesExact, core.PercentilesSketch}
	reports, err := runner.Sweep(ctx.par, modes, func(_ int, mode core.PercentileMode) (*cluster.Report, error) {
		cl, board, err := fleetCluster(ctx, mode)
		if err != nil {
			return nil, err
		}
		src, err := fleetSource(board, coe.NewArena())
		if err != nil {
			return nil, err
		}
		rep, err := cl.Serve(src)
		if err != nil {
			return nil, fmt.Errorf("serve-fleet %s: %w", mode, err)
		}
		return rep, nil
	})
	if err != nil {
		return nil, err
	}
	exact := reports[0]
	for i, mode := range modes {
		rep := reports[i]
		dev := "—"
		if i > 0 && exact.Latency.P99 > 0 {
			dev = fmt.Sprintf("%+.2f%%", 100*(rep.Latency.P99-exact.Latency.P99)/exact.Latency.P99)
		}
		t.Rows = append(t.Rows, []string{
			mode.String(),
			fmt.Sprintf("%d", rep.Nodes),
			fmt.Sprintf("%d", rep.Completions),
			fmt.Sprintf("%.1f", rep.Throughput),
			fmt.Sprintf("%.3fs", rep.Latency.P50),
			fmt.Sprintf("%.3fs", rep.Latency.P95),
			fmt.Sprintf("%.3fs", rep.Latency.P99),
			fmt.Sprintf("%.1f%%", 100*rep.SLOAttainment),
			fmt.Sprintf("%.2f", rep.Imbalance),
			dev,
		})
	}
	// The equivalence contract the table documents: if the sketch row
	// ever drifts past its bound, fail the experiment rather than print
	// a silently wrong table.
	sk := reports[1]
	if sk.LatencySketch == nil {
		return nil, fmt.Errorf("serve-fleet: sketch row carries no sketch")
	}
	alpha := sk.LatencySketch.RelativeAccuracy()
	for _, pair := range [][2]float64{
		{sk.Latency.P50, exact.Latency.P50},
		{sk.Latency.P95, exact.Latency.P95},
		{sk.Latency.P99, exact.Latency.P99},
	} {
		if pair[1] > 0 && math.Abs(pair[0]-pair[1]) > 2.5*alpha*pair[1] {
			return nil, fmt.Errorf("serve-fleet: sketch percentile %v outside the documented bound of exact %v", pair[0], pair[1])
		}
	}
	if sk.Completions != exact.Completions || sk.Imbalance != exact.Imbalance {
		return nil, fmt.Errorf("serve-fleet: sketch mode changed the serving timeline")
	}
	return t, nil
}
