package experiments

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/runner"
	"repro/internal/sim"
	"repro/internal/workload"
)

// chaosPlan is the rolling-failure script every serve-chaos point runs:
// two staggered crash/recover cycles and one drain/resume across a
// 4-node fleet, all inside the ~10 s arrival horizon of the 24 req/s ×
// 240-request Poisson stream. Node 0 never faults, so the fleet is
// always eventually routable and every voided lease can be redelivered.
func chaosPlan() *sim.FaultPlan {
	return &sim.FaultPlan{Events: []sim.FaultEvent{
		{At: 2 * time.Second, Node: 1, Kind: sim.FaultCrash},
		{At: 3500 * time.Millisecond, Node: 1, Kind: sim.FaultRecover},
		{At: 4 * time.Second, Node: 2, Kind: sim.FaultCrash},
		{At: 5500 * time.Millisecond, Node: 2, Kind: sim.FaultRecover},
		{At: 6 * time.Second, Node: 3, Kind: sim.FaultDrain},
		{At: 8 * time.Second, Node: 3, Kind: sim.FaultRecover},
	}}
}

// ServeChaos drives the serve-cluster 4-node configuration — same node
// config, same Poisson stream, every router × placement pair — through
// the rolling fault script and reports the durable-delivery story:
// leases voided by crashes, their redeliveries to surviving nodes,
// time-to-drain, failover latency, and the per-second completion series
// showing the attainment dip and recovery. Each point hard-fails unless
// completion accounting is exactly-once: every one of the 240 arrivals
// completes exactly once (the cluster additionally verifies the lease
// ledger invariant at every fault boundary). With the fault plan
// removed this configuration is byte-identical to serve-cluster's
// 4-node rows — internal/cluster's TestChaosZeroFaultByteIdentical
// pins the underlying guarantee.
func ServeChaos(ctx *Context) (*Table, error) {
	t := &Table{
		ID: "serve-chaos",
		Title: fmt.Sprintf("Chaos serving: rolling crash/drain/recover on a 4-node fleet, NUMA board A, CoServe casual, Poisson 24 req/s (SLO %v)",
			serveSLO),
		Columns: []string{"router", "placement", "completions", "lost leases", "redelivered",
			"drain", "failover max", "slo attainment", "completions/s"},
		Notes: []string{
			"fault script: crash node1 @2s (recover @3.5s), crash node2 @4s (recover @5.5s), drain node3 @6s (resume @8s)",
			"every crash voids the node's outstanding leases; all are redelivered to surviving nodes and complete exactly once — 240/240 on every row",
			"drain is the time from the drain order until node3 had nothing outstanding; failover max is the longest void-to-completion gap",
			"completions/s is the fleet per-second series: the dip marks the blackout windows, the hump after each recovery is the redelivered backlog draining",
		},
	}
	board, err := ctx.Board(workload.BoardA())
	if err != nil {
		return nil, err
	}
	type pointJob struct {
		router    string
		placement string
	}
	var jobs []pointJob
	for _, r := range cluster.RouterNames() {
		for _, p := range cluster.PlacementNames() {
			jobs = append(jobs, pointJob{r, p})
		}
	}
	rows, err := runner.Sweep(ctx.par, jobs, func(_ int, j pointJob) ([]string, error) {
		rep, err := serveFleet(ctx, board, 4, j.router, j.placement, 24, cluster.Config{
			SLO: serveSLO, Window: time.Second, Faults: chaosPlan(),
		})
		if err != nil {
			return nil, fmt.Errorf("serve-chaos %s×%s: %w", j.router, j.placement, err)
		}
		// Exactly-once, zero-loss acceptance: all 240 arrivals complete,
		// none twice, none rejected, none lost.
		if rep.N != 240 || rep.Completions != 240 || rep.RedeliveredRejected != 0 {
			return nil, fmt.Errorf("serve-chaos %s×%s: lost completions: %d arrivals, %d completions, %d redelivery rejections",
				j.router, j.placement, rep.N, rep.Completions, rep.RedeliveredRejected)
		}
		if rep.Crashes != 2 || rep.Drains != 1 || rep.Recoveries != 3 {
			return nil, fmt.Errorf("serve-chaos %s×%s: fault script misfired: %d crashes, %d drains, %d recoveries",
				j.router, j.placement, rep.Crashes, rep.Drains, rep.Recoveries)
		}
		if rep.Dropped != rep.LostLeases {
			return nil, fmt.Errorf("serve-chaos %s×%s: node drops %d != voided leases %d",
				j.router, j.placement, rep.Dropped, rep.LostLeases)
		}
		for i, st := range rep.FinalStates {
			if st != core.NodeUp {
				return nil, fmt.Errorf("serve-chaos %s×%s: node%d ended %v, want up", j.router, j.placement, i, st)
			}
		}
		drain := "—"
		if len(rep.TimeToDrain) > 0 {
			drain = fmt.Sprintf("%.3fs", rep.TimeToDrain[0].Took.Seconds())
		}
		series := make([]string, len(rep.Windows))
		for i, w := range rep.Windows {
			series[i] = fmt.Sprintf("%d", w.Completions)
		}
		return []string{
			j.router, j.placement,
			fmt.Sprintf("%d/%d", rep.Completions, rep.N),
			fmt.Sprintf("%d", rep.LostLeases),
			fmt.Sprintf("%d", rep.Redelivered),
			drain,
			fmt.Sprintf("%.3fs", rep.FailoverMax.Seconds()),
			fmt.Sprintf("%.1f%%", 100*rep.SLOAttainment),
			strings.Join(series, " "),
		}, nil
	})
	if err != nil {
		return nil, err
	}
	t.Rows = rows
	return t, nil
}
