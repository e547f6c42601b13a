package experiments

import (
	"fmt"
	"time"

	"repro/internal/cluster"
	"repro/internal/runner"
	"repro/internal/sim"
	"repro/internal/workload"
)

// shardSLO is the per-request objective the interconnect experiment
// scores against — the grayfail objective, since the hardest scenario
// reuses that fault class.
const shardSLO = 3 * time.Second

// shardInterconnect is the hop model the experiment serves over: the
// front end shares a board with the first two nodes and reaches the
// rest over a slower link. Enabling it makes every offer and completion
// a timed hop.
var shardInterconnect = cluster.Interconnect{
	Dispatch:   200 * time.Microsecond,
	IntraBoard: 100 * time.Microsecond,
	InterNode:  600 * time.Microsecond,
	BoardSize:  2,
}

// shardScenario is one row of the experiment: a fault script (possibly
// empty) with the mitigation stack sized to it.
type shardScenario struct {
	name   string
	plan   *sim.FaultPlan
	health cluster.HealthConfig
	hedge  cluster.HedgeConfig
}

func shardScenarios() []shardScenario {
	breaker := cluster.HealthConfig{
		Window:   500 * time.Millisecond,
		Breaker:  true,
		Cooldown: 8,
		Probes:   3,
	}
	return []shardScenario{
		{name: "steady"},
		{name: "chaos", plan: &sim.FaultPlan{Events: []sim.FaultEvent{
			{At: 2 * time.Second, Node: 1, Kind: sim.FaultCrash},
			{At: 6 * time.Second, Node: 1, Kind: sim.FaultRecover},
			{At: 8 * time.Second, Node: 2, Kind: sim.FaultDrain},
			{At: 14 * time.Second, Node: 2, Kind: sim.FaultRecover},
		}}},
		{name: "grayfail", plan: &sim.FaultPlan{Events: []sim.FaultEvent{
			{At: time.Second, Node: 1, Kind: sim.FaultSlow, Factor: 150},
			{At: time.Second, Node: 2, Kind: sim.FaultSlow, Factor: 150},
			{At: 25 * time.Second, Node: 1, Kind: sim.FaultRecover},
			{At: 25 * time.Second, Node: 2, Kind: sim.FaultRecover},
		}}, health: breaker, hedge: cluster.HedgeConfig{After: time.Second}},
	}
}

// ServeShard serves a 4-node fleet over a non-zero interconnect, where
// every offer and ack is a timed message on the fleet's one event
// kernel. Three scenarios run: a steady stream, a crash/drain/recover script, and a
// fail-slow script under breaker + hedge. Every row hard-fails unless
// completion accounting is exactly-once.
func ServeShard(ctx *Context) (*Table, error) {
	t := &Table{
		ID: "serve-shard",
		Title: fmt.Sprintf("Interconnect: 4-node fleet over a %v/%v intra/inter-board interconnect, affinity router, NUMA board A, Poisson 8 req/s (SLO %v)",
			shardInterconnect.IntraBoard, shardInterconnect.InterNode, shardSLO),
		Columns: []string{"scenario", "completions", "slo attainment", "p95",
			"bounced", "dup acks", "redelivered", "hedges"},
		Notes: []string{
			"interconnect: dispatch 200µs + 100µs intra-board (nodes 0-1) or 600µs inter-board (nodes 2-3), each way; offers and completion acks are timed messages between the front end and the nodes",
			"the front end and every node run on one event kernel; messages due at one instant land in the order they were posted",
			"bounced: offers that crossed the wire into a node no longer Up and were re-routed; dup acks: completions that crossed a crash on the wire after redelivery — counted, never double-completed",
			"every row asserts exactly-once completion accounting and leak-free hedge accounting",
		},
	}
	board, err := ctx.Board(workload.BoardA())
	if err != nil {
		return nil, err
	}
	rows, err := runner.Sweep(ctx.par, shardScenarios(), func(_ int, sc shardScenario) ([]string, error) {
		rep, err := serveFleet(ctx, board, 4, "affinity", "partition", 8, cluster.Config{
			SLO: shardSLO, Faults: sc.plan, Health: sc.health, Hedge: sc.hedge,
			Interconnect: shardInterconnect,
		})
		if err != nil {
			return nil, fmt.Errorf("serve-shard %s: %w", sc.name, err)
		}
		// Exactly-once acceptance: every admitted request resolves exactly
		// once even with offers, acks, and crashes racing on the wire. A
		// crash can terminally reject a redelivery, so completions +
		// terminal rejections must cover every arrival.
		if rep.N != 240 || rep.Completions+rep.RedeliveredRejected != rep.N {
			return nil, fmt.Errorf("serve-shard %s: %d arrivals, %d completions + %d terminally rejected, want all 240 resolved",
				sc.name, rep.N, rep.Completions, rep.RedeliveredRejected)
		}
		if err := checkHedges(rep); err != nil {
			return nil, fmt.Errorf("serve-shard %s: %w", sc.name, err)
		}
		return []string{
			sc.name,
			fmt.Sprintf("%d/%d", rep.Completions, rep.N),
			fmt.Sprintf("%.1f%%", 100*rep.SLOAttainment),
			fmt.Sprintf("%.3fs", rep.Latency.P95),
			fmt.Sprintf("%d", rep.Bounced),
			fmt.Sprintf("%d", rep.DupAcks),
			fmt.Sprintf("%d", rep.Redelivered),
			fmt.Sprintf("%d", rep.HedgesFired),
		}, nil
	})
	if err != nil {
		return nil, err
	}
	t.Rows = rows
	return t, nil
}
