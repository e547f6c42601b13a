package experiments

import (
	"fmt"
	"time"

	"repro/internal/cluster"
	"repro/internal/runner"
	"repro/internal/sim"
	"repro/internal/workload"
)

// grayfailSLO is the per-request objective the gray-failure experiment
// scores against. It is deliberately looser than serveSLO: the
// partition fleet's clean attainment sits near 97% at 3 s, while a
// straggler's trapped victims wait tens of seconds — the objective
// separates served from trapped, not fast from slow.
const grayfailSLO = 3 * time.Second

// grayfailPlan returns the named gray-failure script. Each script
// degrades nodes 1 and 2 — the two busiest partition owners, together
// home to ~60% of the stream's classes — inside the ~30 s arrival
// horizon of the 8 req/s × 240-request Poisson stream. The nodes never
// leave the Up lifecycle state, which is the whole point: only a health
// measurement can tell they are sick.
func grayfailPlan(script string) *sim.FaultPlan {
	switch script {
	case "slow":
		// Stragglers: 150× service time from 1 s until the operator fixes
		// them at 25 s (past most of the stream).
		return &sim.FaultPlan{Events: []sim.FaultEvent{
			{At: time.Second, Node: 1, Kind: sim.FaultSlow, Factor: 150},
			{At: time.Second, Node: 2, Kind: sim.FaultSlow, Factor: 150},
			{At: 25 * time.Second, Node: 1, Kind: sim.FaultRecover},
			{At: 25 * time.Second, Node: 2, Kind: sim.FaultRecover},
		}}
	case "jitter":
		// Noisy degradation: each batch inflated by a seeded uniform
		// factor in [1, 400] — some batches race through, most crawl.
		return &sim.FaultPlan{Events: []sim.FaultEvent{
			{At: time.Second, Node: 1, Kind: sim.FaultJitter, Factor: 400},
			{At: time.Second, Node: 2, Kind: sim.FaultJitter, Factor: 400},
			{At: 25 * time.Second, Node: 1, Kind: sim.FaultRecover},
			{At: 25 * time.Second, Node: 2, Kind: sim.FaultRecover},
		}}
	case "stall":
		// Back-to-back freezes: nothing either node starts between 1 s and
		// 25 s can finish before the stall clears. Stalls clear themselves —
		// no recover event.
		return &sim.FaultPlan{Events: []sim.FaultEvent{
			{At: 1 * time.Second, Node: 1, Kind: sim.FaultStall, For: 12 * time.Second},
			{At: 1 * time.Second, Node: 2, Kind: sim.FaultStall, For: 12 * time.Second},
			{At: 13 * time.Second, Node: 1, Kind: sim.FaultStall, For: 12 * time.Second},
			{At: 13 * time.Second, Node: 2, Kind: sim.FaultStall, For: 12 * time.Second},
		}}
	}
	panic("experiments: unknown grayfail script " + script)
}

// grayfailMitigations are the three mitigation stacks each script runs
// under: nothing, the health-scored circuit breaker alone, and the
// breaker plus hedged requests.
func grayfailMitigations() []struct {
	name   string
	health cluster.HealthConfig
	hedge  cluster.HedgeConfig
} {
	health := cluster.HealthConfig{
		Window:  500 * time.Millisecond,
		Breaker: true,
		// A long cooldown and a three-probe reinstatement quorum keep a
		// jittering node from flapping back into rotation on one lucky
		// fast batch.
		Cooldown: 8,
		Probes:   3,
	}
	return []struct {
		name   string
		health cluster.HealthConfig
		hedge  cluster.HedgeConfig
	}{
		{"none", cluster.HealthConfig{}, cluster.HedgeConfig{}},
		{"breaker", health, cluster.HedgeConfig{}},
		{"breaker+hedge", health, cluster.HedgeConfig{After: time.Second}},
	}
}

// ServeGrayfail drives a 4-node fleet through gray-failure scripts —
// fail-slow, jitter, and stall on the two busiest nodes — under the
// affinity router and partition placement, the arrangement a gray
// failure hurts most: every expert lives on exactly one node, so
// residency-first routing keeps sending each class to its home no
// matter how sick that home is. The fleet's lifecycle layer sees four
// Up nodes throughout; nothing fail-stop ever fires. Each script then
// reruns with the health-scored circuit breaker (which un-pins new
// arrivals by removing the sick nodes from the candidate set), and
// with breaker plus hedged requests (which rescue the leases already
// trapped on the sick nodes); the table shows attainment collapsing
// unmitigated and recovering through the stack. Every row hard-fails
// unless completion accounting is exactly-once (240/240, with hedge
// losers counted as wasted work, never as completions; the cluster
// verifies the lease ledger invariant at every fault and hedge
// boundary).
func ServeGrayfail(ctx *Context) (*Table, error) {
	t := &Table{
		ID: "serve-grayfail",
		Title: fmt.Sprintf("Gray failures: fail-slow/jitter/stall on the two busiest partition owners, affinity router, NUMA board A, Poisson 8 req/s (SLO %v)",
			grayfailSLO),
		Columns: []string{"fault", "mitigation", "completions", "slo attainment", "p95",
			"trips", "hedges", "wins", "wasted"},
		Notes: []string{
			"scripts degrade node1+node2 (home to ~60% of traffic): slow = 150× service time @1s (recover @25s); jitter = ×[1,400] seeded per batch; stall = two back-to-back 12s freezes",
			"partition placement pins every class to one node, so the affinity router keeps feeding the sick homes — unmitigated attainment collapses with all four nodes Up the whole time",
			"breaker: health window 500ms, trip < 0.5, reinstate >= 0.8 after a 3-probe half-open quorum; hedge: leases on quarantined nodes re-offered after 1s, first completion wins",
			"completions are exactly-once on every row: hedge losers surface as wasted work, never as a second completion",
		},
	}
	board, err := ctx.Board(workload.BoardA())
	if err != nil {
		return nil, err
	}
	type pointJob struct {
		script     string
		mitigation int
	}
	var jobs []pointJob
	for _, s := range []string{"slow", "jitter", "stall"} {
		for m := range grayfailMitigations() {
			jobs = append(jobs, pointJob{s, m})
		}
	}
	rows, err := runner.Sweep(ctx.par, jobs, func(_ int, j pointJob) ([]string, error) {
		mit := grayfailMitigations()[j.mitigation]
		rep, err := serveFleet(ctx, board, 4, "affinity", "partition", 8, cluster.Config{
			SLO: grayfailSLO, Window: time.Second, Faults: grayfailPlan(j.script),
			Health: mit.health, Hedge: mit.hedge,
		})
		if err != nil {
			return nil, fmt.Errorf("serve-grayfail %s×%s: %w", j.script, mit.name, err)
		}
		// Exactly-once acceptance on every row: all 240 arrivals complete
		// exactly once — hedged rows additionally account every loser
		// copy as waste or a crash-voided hedge, never as a completion.
		if rep.N != 240 || rep.Completions != 240 {
			return nil, fmt.Errorf("serve-grayfail %s×%s: %d arrivals, %d completions, want 240/240",
				j.script, mit.name, rep.N, rep.Completions)
		}
		if err := checkHedges(rep); err != nil {
			return nil, fmt.Errorf("serve-grayfail %s×%s: %w", j.script, mit.name, err)
		}
		// The story the experiment exists to tell, pinned: the stragglers
		// drag unmitigated attainment below 50%; breaker+hedge restores
		// it above 90%.
		switch mit.name {
		case "none":
			if rep.SLOAttainment >= 0.5 {
				return nil, fmt.Errorf("serve-grayfail %s×none: attainment %.1f%%, want < 50%% (stragglers not hurting enough)",
					j.script, 100*rep.SLOAttainment)
			}
		case "breaker":
			if rep.BreakerTrips < 1 {
				return nil, fmt.Errorf("serve-grayfail %s×breaker: breaker never tripped", j.script)
			}
		case "breaker+hedge":
			if rep.SLOAttainment <= 0.9 {
				return nil, fmt.Errorf("serve-grayfail %s×breaker+hedge: attainment %.1f%%, want > 90%%",
					j.script, 100*rep.SLOAttainment)
			}
			if rep.HedgesFired < 1 {
				return nil, fmt.Errorf("serve-grayfail %s×breaker+hedge: no hedge ever fired", j.script)
			}
		}
		return []string{
			j.script, mit.name,
			fmt.Sprintf("%d/%d", rep.Completions, rep.N),
			fmt.Sprintf("%.1f%%", 100*rep.SLOAttainment),
			fmt.Sprintf("%.3fs", rep.Latency.P95),
			fmt.Sprintf("%d", rep.BreakerTrips),
			fmt.Sprintf("%d", rep.HedgesFired),
			fmt.Sprintf("%d", rep.HedgeWins),
			fmt.Sprintf("%d", rep.HedgeWasted),
		}, nil
	})
	if err != nil {
		return nil, err
	}
	t.Rows = rows
	return t, nil
}
