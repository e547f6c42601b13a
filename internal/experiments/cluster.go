package experiments

import (
	"fmt"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/hw"
	"repro/internal/runner"
	"repro/internal/workload"
)

// ServeCluster sweeps the multi-node serving layer: node count × router
// × placement against one open-loop Poisson stream past a single node's
// saturation knee. One CoServe-casual NUMA node saturates near 12
// img/s, so the 24 req/s offered load overloads a single node, roughly
// matches two, and leaves four comfortable — the regime where routing
// and placement choices actually separate. Every (nodes, router,
// placement) point is an independent cluster in its own simulation
// environment, so each point is one job and the table is byte-identical
// at every worker count.
func ServeCluster(ctx *Context) (*Table, error) {
	t := &Table{
		ID:    "serve-cluster",
		Title: fmt.Sprintf("Cluster serving: node count × router × placement, NUMA board A, CoServe casual, Poisson 24 req/s (SLO %v)", serveSLO),
		Columns: []string{"nodes", "router", "placement", "throughput", "p50", "p99",
			"slo attainment", "switches", "imbalance"},
		Notes: []string{
			"one node saturates near 12 img/s: adding nodes converts the overload into headroom",
			"affinity/predict routing with partition/usage placement sends requests where their expert is resident — fewer switches than residency-blind least-loaded on mirrored pools",
			"imbalance is max/mean routed arrivals per node: 1.0 is perfectly balanced, N is all on one node",
		},
	}
	board, err := ctx.Board(workload.BoardA())
	if err != nil {
		return nil, err
	}
	type pointJob struct {
		nodes     int
		router    string
		placement string
	}
	var jobs []pointJob
	for _, nodes := range []int{1, 2, 4} {
		for _, r := range cluster.RouterNames() {
			for _, p := range cluster.PlacementNames() {
				jobs = append(jobs, pointJob{nodes, r, p})
			}
		}
	}
	rows, err := runner.Sweep(ctx.par, jobs, func(_ int, j pointJob) ([]string, error) {
		rep, err := serveFleet(ctx, board, j.nodes, j.router, j.placement, 24, cluster.Config{SLO: serveSLO})
		if err != nil {
			return nil, fmt.Errorf("serve-cluster %d×%s×%s: %w", j.nodes, j.router, j.placement, err)
		}
		return []string{
			fmt.Sprintf("%d", j.nodes), j.router, j.placement,
			fmt.Sprintf("%.1f", rep.Throughput),
			fmt.Sprintf("%.3fs", rep.Latency.P50),
			fmt.Sprintf("%.3fs", rep.Latency.P99),
			fmt.Sprintf("%.1f%%", 100*rep.SLOAttainment),
			fmt.Sprintf("%d", rep.Switches),
			fmt.Sprintf("%.2f", rep.Imbalance),
		}, nil
	})
	if err != nil {
		return nil, err
	}
	t.Rows = rows
	return t, nil
}

// serveFleet builds a fleet of identical CoServe NUMA nodes under the
// named router and placement, with the scenario fields of fc (SLO,
// Window, Faults, Health, Hedge, Interconnect), and serves it the
// 240-request cluster-poisson stream at rate req/s. Every node scores
// against the fleet's SLO.
func serveFleet(ctx *Context, board *workload.Board, nodes int, router, placement string, rate float64, fc cluster.Config) (*cluster.Report, error) {
	nodeCfg, err := ctx.serveConfig(hw.NUMADevice(), core.CoServe)
	if err != nil {
		return nil, err
	}
	nodeCfg.SLO = fc.SLO
	fc.Nodes = cluster.Uniform(nodes, nodeCfg)
	if fc.Router, err = cluster.RouterByName(router); err != nil {
		return nil, err
	}
	if fc.Placement, err = cluster.PlacementByName(placement); err != nil {
		return nil, err
	}
	cl, err := cluster.New(fc, board.Model)
	if err != nil {
		return nil, err
	}
	src, err := workload.Poisson{
		Name: "cluster-poisson", Board: board,
		Rate: rate, N: 240, Seed: 20260730,
	}.NewSource()
	if err != nil {
		return nil, err
	}
	return cl.Serve(src)
}

// checkHedges errors unless the hedge accounting is leak-free: every
// fired hedge makes a race with exactly one losing copy, which must
// surface as wasted work (or die with a crashed node) — never vanish,
// never complete a second time.
func checkHedges(rep *cluster.Report) error {
	if rep.HedgeWasted+rep.HedgesVoided != rep.HedgesFired || rep.HedgeWins > rep.HedgesFired {
		return fmt.Errorf("hedge accounting leaks: %d fired, %d wins, %d wasted + %d voided",
			rep.HedgesFired, rep.HedgeWins, rep.HedgeWasted, rep.HedgesVoided)
	}
	return nil
}
