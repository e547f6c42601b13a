package experiments

import (
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/hw"
	"repro/internal/runner"
	"repro/internal/workload"
)

// The serve experiment family exercises the serving layer beyond the
// paper's single-shot evaluation: offered-load sweeps with latency SLOs,
// warm restarts across consecutive tasks, and multi-tenant mixes over
// merged boards. They register alongside the paper artifacts and the
// extension experiments.

// serveSLO is the per-request latency objective the serve experiments
// score attainment against.
const serveSLO = 500 * time.Millisecond

// serveRegistry returns the serving-layer experiments.
func serveRegistry() []Experiment {
	return []Experiment{
		{"serve-load", "serving", "throughput and p99 latency vs offered Poisson load, per variant", ServeLoad},
		{"serve-warm", "serving", "warm restart: consecutive tasks on one system vs cold rebuilds", ServeWarm},
		{"serve-mix", "serving", "multi-tenant mix of board A and B streams on one merged model", ServeMix},
		{"serve-overload", "serving", "admission policies (accept-all, bounded queue, token bucket, SLO shed) vs offered load past the knee", ServeOverload},
		{"serve-cluster", "cluster", "multi-node serving: node count × router × placement, fleet aggregates", ServeCluster},
		{"serve-fleet", "cluster", "100-node fleet under steady load: exact vs sketch percentile accounting", ServeFleet},
		{"serve-chaos", "cluster", "rolling crash/drain/recover over a 4-node fleet: lease redelivery, time-to-drain, attainment dip and recovery", ServeChaos},
		{"serve-grayfail", "cluster", "gray failures: fail-slow/jitter/stall straggler vs {none, breaker, breaker+hedge} mitigation stacks", ServeGrayfail},
		{"serve-shard", "cluster", "interconnect: fleet over a non-zero interconnect, every offer and ack a timed hop", ServeShard},
	}
}

// serveSystems are the variants the load sweep compares: the strongest
// baseline arrangement, its parallel refinement, and CoServe casual
// (the offline-searched Best is omitted to keep the sweep cheap).
func serveSystems() []evalSystem {
	return []evalSystem{
		{"Samba-CoE", core.Samba, false},
		{"Samba-CoE Parallel", core.SambaParallel, false},
		{"CoServe Casual", core.CoServe, false},
	}
}

// serveConfig assembles a serving config for the variant with the SLO
// attached.
func (c *Context) serveConfig(dev *hw.Device, v core.Variant) (core.Config, error) {
	pm, err := c.Perf(dev)
	if err != nil {
		return core.Config{}, err
	}
	return core.Config{Device: dev, Variant: v, Perf: pm, SLO: serveSLO}, nil
}

// ServeLoad sweeps offered open-loop Poisson load on the NUMA device
// and reports throughput, tail latency, and SLO attainment per variant —
// the saturation picture a single closed-loop run cannot show. Each
// (rate, system) point builds its own System and stream, so every point
// is one job.
func ServeLoad(ctx *Context) (*Table, error) {
	t := &Table{
		ID:      "serve-load",
		Title:   fmt.Sprintf("Throughput, p99 latency and SLO attainment vs offered Poisson load, NUMA board A (SLO %v)", serveSLO),
		Columns: []string{"offered req/s", "system", "throughput", "p50", "p99", "slo attainment"},
		Notes: []string{
			"open-loop arrivals: offered load is independent of service capacity",
			"throughput saturates at each system's capacity; beyond it, p99 and attainment collapse",
		},
	}
	board, err := ctx.Board(workload.BoardA())
	if err != nil {
		return nil, err
	}
	type pointJob struct {
		rate float64
		sys  evalSystem
	}
	var jobs []pointJob
	for _, rate := range []float64{2, 10, 40, 120} {
		for _, s := range serveSystems() {
			jobs = append(jobs, pointJob{rate, s})
		}
	}
	rows, err := runner.Sweep(ctx.par, jobs, func(_ int, j pointJob) ([]string, error) {
		cfg, err := ctx.serveConfig(hw.NUMADevice(), j.sys.variant)
		if err != nil {
			return nil, err
		}
		sys, err := core.NewSystem(cfg, board.Model)
		if err != nil {
			return nil, err
		}
		src, err := workload.Poisson{
			Name: fmt.Sprintf("poisson-%g", j.rate), Board: board,
			Rate: j.rate, N: 400, Seed: 4242,
		}.NewSource()
		if err != nil {
			return nil, err
		}
		rep, err := sys.Serve(src)
		if err != nil {
			return nil, fmt.Errorf("serve-load %s @%g: %w", j.sys.label, j.rate, err)
		}
		return []string{
			fmt.Sprintf("%g", j.rate), j.sys.label,
			fmt.Sprintf("%.1f", rep.Throughput),
			fmt.Sprintf("%.3fs", rep.Latency.P50),
			fmt.Sprintf("%.3fs", rep.Latency.P99),
			fmt.Sprintf("%.1f%%", 100*rep.SLOAttainment),
		}, nil
	})
	if err != nil {
		return nil, err
	}
	t.Rows = rows
	return t, nil
}

// ServeWarm serves two consecutive tasks on one System per variant and
// compares the second (warm) run against a cold rebuild of the same
// task: the warm pools cut expert switches for CoServe and remove the
// cold ramp for the Samba baselines. Each variant's three runs share
// one System's history, so the variant — not the run — is the unit of
// parallelism.
func ServeWarm(ctx *Context) (*Table, error) {
	t := &Table{
		ID:      "serve-warm",
		Title:   "Warm restart: consecutive tasks on one System, NUMA board A",
		Columns: []string{"system", "run", "pools", "switches", "throughput"},
		Notes: []string{
			"warm = same System serving its second consecutive stream; cold = freshly built System",
			"CoServe's warm pools carry the learned working set: fewer switches than both its first run and a cold rebuild's run",
		},
	}
	board, err := ctx.Board(workload.BoardA())
	if err != nil {
		return nil, err
	}
	task := workload.Task{
		Name: "A-serve", Board: board, N: 800,
		ArrivalPeriod: workload.DefaultArrivalPeriod, Seed: 909,
	}
	variants := []evalSystem{
		{"Samba-CoE", core.Samba, false},
		{"CoServe Casual", core.CoServe, false},
	}
	groups, err := runner.Sweep(ctx.par, variants, func(_ int, s evalSystem) ([][]string, error) {
		cfg, err := ctx.serveConfig(hw.NUMADevice(), s.variant)
		if err != nil {
			return nil, err
		}
		sys, err := core.NewSystem(cfg, board.Model)
		if err != nil {
			return nil, err
		}
		r1, err := sys.RunTask(task)
		if err != nil {
			return nil, err
		}
		loaded1 := sys.LoadedExperts()
		r2, err := sys.RunTask(task)
		if err != nil {
			return nil, err
		}
		loaded2 := sys.LoadedExperts()
		cold, err := core.NewSystem(cfg, board.Model)
		if err != nil {
			return nil, err
		}
		rc, err := cold.RunTask(task)
		if err != nil {
			return nil, err
		}
		var rows [][]string
		for _, row := range []struct {
			run    string
			loaded int
			rep    *core.Report
		}{
			{"1 (cold pools)", loaded1, r1},
			{"2 (warm pools)", loaded2, r2},
			{"cold rebuild", cold.LoadedExperts(), rc},
		} {
			rows = append(rows, []string{
				s.label, row.run,
				fmt.Sprintf("%d experts", row.loaded),
				fmt.Sprintf("%d", row.rep.Switches),
				fmt.Sprintf("%.1f", row.rep.Throughput),
			})
		}
		return rows, nil
	})
	if err != nil {
		return nil, err
	}
	for _, rows := range groups {
		t.Rows = append(t.Rows, rows...)
	}
	return t, nil
}

// ServeMix fuses boards A and B into one CoE model and serves a
// two-tenant Poisson mix on a single System, reporting the per-tenant
// latency slices alongside the aggregate. One stream, one simulation —
// nothing to fan out.
func ServeMix(ctx *Context) (*Table, error) {
	t := &Table{
		ID:      "serve-mix",
		Title:   fmt.Sprintf("Multi-tenant mix: boards A+B merged, one System, two Poisson tenants (SLO %v)", serveSLO),
		Columns: []string{"tenant", "offered req/s", "completed", "p50", "p95", "slo attainment"},
		Notes: []string{
			"both tenants' experts share the same pools; per-tenant counts are preserved through the mix",
		},
	}
	a, err := ctx.Board(workload.BoardA())
	if err != nil {
		return nil, err
	}
	b, err := ctx.Board(workload.BoardB())
	if err != nil {
		return nil, err
	}
	merged, views, err := workload.MergeBoards("board-a+b", []float64{1, 1}, a, b)
	if err != nil {
		return nil, err
	}
	rates := []float64{3, 1.5}
	names := []string{"board-a", "board-b"}
	rateOf := map[string]float64{}
	tenants := make([]workload.Source, 2)
	for i := range tenants {
		src, err := workload.Poisson{
			Name: names[i], Board: views[i],
			Rate: rates[i], N: 300, Seed: int64(7000 + i),
		}.NewSource()
		if err != nil {
			return nil, err
		}
		tenants[i] = src
		rateOf[names[i]] = rates[i]
	}
	mix, err := workload.Mix{Name: "a+b", Tenants: tenants}.NewSource()
	if err != nil {
		return nil, err
	}
	cfg, err := ctx.serveConfig(hw.NUMADevice(), core.CoServe)
	if err != nil {
		return nil, err
	}
	sys, err := core.NewSystem(cfg, merged.Model)
	if err != nil {
		return nil, err
	}
	rep, err := sys.Serve(mix)
	if err != nil {
		return nil, err
	}
	for _, ts := range rep.PerTenant {
		t.Rows = append(t.Rows, []string{
			ts.Name, fmt.Sprintf("%g", rateOf[ts.Name]),
			fmt.Sprintf("%d", ts.Completions),
			fmt.Sprintf("%.3fs", ts.Latency.P50),
			fmt.Sprintf("%.3fs", ts.Latency.P95),
			fmt.Sprintf("%.1f%%", 100*ts.SLOAttainment),
		})
	}
	t.Rows = append(t.Rows, []string{
		"(all)", fmt.Sprintf("%g", rates[0]+rates[1]),
		fmt.Sprintf("%d", rep.Completions),
		fmt.Sprintf("%.3fs", rep.Latency.P50),
		fmt.Sprintf("%.3fs", rep.Latency.P95),
		fmt.Sprintf("%.1f%%", 100*rep.SLOAttainment),
	})
	return t, nil
}
