package main

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"time"

	coserve "repro"
	"repro/internal/cluster"
	"repro/internal/coe"
	"repro/internal/core"
	"repro/internal/hw"
	"repro/internal/pool"
	"repro/internal/sim"
	"repro/internal/workload"
)

// spec is one named workload: a fixed serving system and traffic shape.
// Only the request stream is drawn from the run's seed.
type spec struct {
	name string
	// nodes is the fleet size; 0 serves one core.System with no cluster.
	nodes int
	// rate is the offered load in req/s; requests and probe are the
	// stream lengths of a measured serve and of a capacity probe at
	// scale 1.
	rate            float64
	requests, probe int
	// slo is the latency objective slo_attainment scores against; limit
	// is the p99 latency limit of sim_capacity_rps.
	slo, limit time.Duration
	// capLo and capHi bound the sim_capacity_rps bisection, in req/s.
	capLo, capHi float64
}

// The fleets' capacity limit is 1 s, not their 500 ms SLO: their p99
// sits near 0.8 s at every rate below the knee (about a tenth of the
// requests wait behind an expert switch), so no rate would meet 500 ms.
// fleet-chaos offers 60 req/s, under half its capacity under faults:
// nearer its capacity its p99 swings by a tenth between seeds. Its
// capacity probes are 240k requests long: failover tails set its p99,
// and on 60k-request probes the p99 hovered around the 3 s limit at
// every rate from 70 to 120 req/s, so the search landed anywhere there.
var specs = []*spec{
	{
		name:  "fleet-steady",
		nodes: 100, rate: 600, requests: 100_000, probe: 20_000,
		slo: 500 * time.Millisecond, limit: time.Second,
		capLo: 150, capHi: 2400,
	},
	{
		name:  "fleet-sharded",
		nodes: 100, rate: 600, requests: 100_000, probe: 20_000,
		slo: 500 * time.Millisecond, limit: time.Second,
		capLo: 150, capHi: 2400,
	},
	{
		name:  "node-mix",
		nodes: 0, rate: 2.5, requests: 200_000, probe: 50_000,
		slo: 3 * time.Second, limit: 3 * time.Second,
		capLo: 0.5, capHi: 8,
	},
	{
		name:  "fleet-chaos",
		nodes: 16, rate: 60, requests: 200_000, probe: 240_000,
		slo: 3 * time.Second, limit: 3 * time.Second,
		capLo: 60, capHi: 320,
	},
}

func specByName(name string) (*spec, error) {
	for _, w := range specs {
		if w.name == name {
			return w, nil
		}
	}
	names := make([]string, len(specs))
	for i, w := range specs {
		names[i] = w.name
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %v or all)", name, names)
}

// Fixed parts of the workloads.
const (
	// capResolution is the capacity bisection's relative resolution.
	capResolution = 1.01
	// setupRepeats is how many times a measured serve sets up.
	setupRepeats = 3

	// fleet-chaos replays one crash schedule drawn from chaosSeed
	// whatever the run's seed: failovers set its p99, and a schedule
	// drawn per seed would make the p99 spread between seeds several
	// times wider.
	chaosSeed      = 20260730
	chaosMTBF      = 120 * time.Second
	chaosRepair    = 10 * time.Second
	chaosSlowdown  = 20
	chaosHedge     = time.Second
	chaosHealthWin = 500 * time.Millisecond
)

// fleetInterconnect is fleet-sharded's hop model: 100µs dispatch, 50µs
// to the 16 nodes on the front end's board, 300µs beyond.
var fleetInterconnect = cluster.Interconnect{
	Dispatch:   100 * time.Microsecond,
	IntraBoard: 50 * time.Microsecond,
	InterNode:  300 * time.Microsecond,
	BoardSize:  16,
}

// params selects one serve of a workload.
type params struct {
	seed     int64
	rate     float64 // offered load, req/s
	requests int     // stream length
	// traced wraps the layer probes with clocks; untraced serves only
	// count arrivals.
	traced bool
	// shards is the sharded kernel's worker count (fleet-sharded only).
	shards int
}

// defaults returns the workload's full-size parameters at a stream-length
// scale.
func (w *spec) defaults(seed int64, scale float64) params {
	return params{
		seed:     seed,
		rate:     w.rate,
		requests: scaled(w.requests, scale),
		shards:   runtime.NumCPU(),
	}
}

func scaled(n int, scale float64) int {
	return max(1, int(math.Round(float64(n)*scale)))
}

// horizon is the virtual time over which a steady stream offers the
// requested number of requests at the rate.
func (p params) horizon() time.Duration {
	return time.Duration(float64(p.requests) / p.rate * float64(time.Second))
}

// built is one workload system, constructed and ready to serve its
// stream once.
type built struct {
	serve     func(workload.Source) (outcome, int64, error)
	src       *countedSource
	probes    probes
	profileNs int64
}

// build constructs the workload's system and stream from scratch: board
// build, profiling, placement and system construction — the set-up.
func (w *spec) build(p params) (*built, error) {
	b := &built{}
	dev := hw.NUMADevice()
	boards, err := w.boards()
	if err != nil {
		return nil, err
	}
	t := time.Now()
	perf, err := coserve.Profile(dev, coserve.EvalArchitectures())
	b.profileNs = time.Since(t).Nanoseconds()
	if err != nil {
		return nil, err
	}
	g, c := core.DefaultExecutors(dev)
	node := core.Config{
		Device: dev, Variant: core.CoServe,
		GPUExecutors: g, CPUExecutors: c,
		Alloc: core.DefaultAllocation(core.CoServe, dev, perf, g, c), Perf: perf,
		SLO: w.slo,
	}
	var arena *coe.Arena
	if w.nodes == 0 {
		if p.traced {
			b.probes.policies = []*timedPolicy{{inner: pool.DepAware{}}}
			node.EvictPolicy = b.probes.policies[0]
		}
		sys, err := core.NewSystem(node, boards[0].Model)
		if err != nil {
			return nil, err
		}
		b.serve = func(src workload.Source) (outcome, int64, error) {
			rep, err := sys.Serve(src)
			if err != nil {
				return outcome{}, 0, err
			}
			return nodeOutcome(rep), schedNs(rep), nil
		}
	} else {
		arena = coe.NewArena()
		cl, err := w.cluster(node, boards[0].Model, arena, p, &b.probes)
		if err != nil {
			return nil, err
		}
		b.serve = func(src workload.Source) (outcome, int64, error) {
			rep, err := cl.Serve(src)
			if err != nil {
				return outcome{}, 0, err
			}
			var ns int64
			for _, n := range rep.PerNode {
				ns += schedNs(n)
			}
			return fleetOutcome(rep), ns, nil
		}
	}
	src, err := w.source(boards, arena, p)
	if err != nil {
		return nil, err
	}
	b.src = &countedSource{src: src, clock: p.traced}
	return b, nil
}

// serve sets the workload up setups times, timing each, and serves one
// stream on the last system built. The serve is timed and its heap
// allocations counted after a collection, so the garbage of set-up is
// not charged to it.
func (w *spec) serve(p params, setups int) (*sample, error) {
	s := &sample{}
	var b *built
	times := make([]float64, setups)
	for i := range times {
		t := time.Now()
		var err error
		if b, err = w.build(p); err != nil {
			return nil, err
		}
		times[i] = float64(time.Since(t).Nanoseconds())
	}
	s.SetupNs = int64(median(times))
	s.ProfileNs = b.profileNs

	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	t := time.Now()
	o, sched, err := b.serve(b.src)
	s.ServeNs = time.Since(t).Nanoseconds()
	runtime.ReadMemStats(&m1)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", w.name, err)
	}
	s.Allocs = m1.Mallocs - m0.Mallocs
	s.Bytes = m1.TotalAlloc - m0.TotalAlloc
	o.Offered = b.src.n
	s.Sim = o
	s.SchedNs = sched
	s.NextNs = b.src.ns
	b.probes.collect(s)
	return s, nil
}

// boards returns the board the system serves, followed by the per-tenant
// views of a merged board.
func (w *spec) boards() ([]*workload.Board, error) {
	a, err := workload.BoardA().Build()
	if err != nil {
		return nil, err
	}
	if w.nodes != 0 {
		return []*workload.Board{a}, nil
	}
	b, err := workload.BoardB().Build()
	if err != nil {
		return nil, err
	}
	merged, views, err := workload.MergeBoards("board-a+b", []float64{1, 1}, a, b)
	if err != nil {
		return nil, err
	}
	return append([]*workload.Board{merged}, views...), nil
}

// cluster builds the fleet workloads' cluster. Every node gets its own
// copy of the node config and, when traced, its own eviction probe: node
// partitions of the sharded kernel run concurrently.
func (w *spec) cluster(node core.Config, m *coe.Model, arena *coe.Arena, p params, ps *probes) (*cluster.Cluster, error) {
	node.DisablePicks = true
	cfg := cluster.Config{
		Nodes:       cluster.Uniform(w.nodes, node),
		Router:      cluster.Affinity{},
		Placement:   cluster.UsageProportional{},
		SLO:         w.slo,
		Percentiles: core.PercentilesSketch,
	}
	switch w.name {
	case "fleet-sharded":
		cfg.Interconnect = fleetInterconnect
		cfg.Shards = p.shards
	case "fleet-chaos":
		cfg.Placement = cluster.Partition{}
		// Exact percentiles: sketch-mode fleet percentiles fold the
		// per-node sketches, which also hold the completions of losing
		// hedge copies and of work finished after its lease was voided,
		// so they would count more samples than completions.
		cfg.Percentiles = core.PercentilesExact
		cfg.Faults = chaosPlan(w.nodes, p.horizon())
		cfg.Arena = arena
		cfg.Health = cluster.HealthConfig{Window: chaosHealthWin, Breaker: true, Cooldown: 8, Probes: 3}
		cfg.Hedge = cluster.HedgeConfig{After: chaosHedge}
	}
	if p.traced {
		ps.router = &timedRouter{inner: cfg.Router}
		ps.placement = &timedPlacement{inner: cfg.Placement}
		cfg.Router, cfg.Placement = ps.router, ps.placement
		for i := range cfg.Nodes {
			tp := &timedPolicy{inner: pool.DepAware{}}
			ps.policies = append(ps.policies, tp)
			cfg.Nodes[i].EvictPolicy = tp
		}
	}
	return cluster.New(cfg, m)
}

// chaosPlan is fleet-chaos's fault schedule over the horizon: on nodes
// 1..n-1, crashes after exponentially distributed up times (mean
// chaosMTBF), each followed by a recover chaosRepair later; node 0 never
// crashes but serves 20× slow from a quarter to half of the horizon.
//
// The repair time is fixed rather than drawn as sim.GenerateFaultPlan
// draws it: a node that recovers while a batch taken before its crash
// still waits for memory or compute panics in core (the batch's
// requests read back nil), and exponential repair times make such quick
// recoveries common enough to hit within one run.
func chaosPlan(nodes int, horizon time.Duration) *sim.FaultPlan {
	rng := rand.New(rand.NewSource(chaosSeed))
	plan := &sim.FaultPlan{Events: []sim.FaultEvent{
		{At: horizon / 4, Node: 0, Kind: sim.FaultSlow, Factor: chaosSlowdown},
		{At: horizon / 2, Node: 0, Kind: sim.FaultRecover},
	}}
	for node := 1; node < nodes; node++ {
		for t := time.Duration(0); ; {
			t += time.Duration(rng.ExpFloat64() * float64(chaosMTBF))
			if t >= horizon {
				break
			}
			plan.Events = append(plan.Events,
				sim.FaultEvent{At: t, Node: node, Kind: sim.FaultCrash},
				sim.FaultEvent{At: t + chaosRepair, Node: node, Kind: sim.FaultRecover})
			t += chaosRepair
		}
	}
	return plan
}

// source draws the workload's request stream from the seed. Arrivals
// are open-loop in virtual time: every request is due at its generated
// instant whatever the system's state, and latency counts from then.
func (w *spec) source(boards []*workload.Board, arena *coe.Arena, p params) (workload.Source, error) {
	if w.nodes == 0 {
		half := p.requests / 2
		a, err := workload.Poisson{Name: "board-a", Board: boards[1], Rate: p.rate / 2, N: max(1, half), Seed: 2 * p.seed}.NewSource()
		if err != nil {
			return nil, err
		}
		b, err := workload.Poisson{Name: "board-b", Board: boards[2], Rate: p.rate / 2, N: max(1, p.requests-half), Seed: 2*p.seed + 1}.NewSource()
		if err != nil {
			return nil, err
		}
		return workload.Mix{Name: w.name, Tenants: []workload.Source{a, b}}.NewSource()
	}
	src, err := workload.Steady{Name: w.name, Board: boards[0], Rate: p.rate, Seed: p.seed, Arena: arena}.NewSource()
	if err != nil {
		return nil, err
	}
	return workload.Horizon(src, p.horizon()), nil
}

// capacity is sim_capacity_rps: the highest offered rate at which a
// probe stream keeps p99 within the workload's limit. A backlog that
// grows over the probe pushes p99 past the limit once it adds more than
// the limit to the latency of the last 1% of requests, so the test also
// rules out growth beyond a few percent of the rate on these probes. It
// bisects geometrically over [capLo, capHi] to capResolution; the ends
// themselves are not probed, so a capacity outside the range reads
// within capResolution of the nearer end. Probes at different rates
// serve the same seeded stream scaled in time, and each is a
// deterministic simulation, so the result depends only on the seed and
// the scale.
func (w *spec) capacity(seed int64, scale float64) (float64, error) {
	ok := func(rate float64) (bool, error) {
		p := w.defaults(seed, scale)
		p.rate, p.requests = rate, scaled(w.probe, scale)
		s, err := w.serve(p, 1)
		if err != nil {
			return false, err
		}
		return s.Sim.P99S <= w.limit.Seconds(), nil
	}
	lo, hi := w.capLo, w.capHi
	for hi > lo*capResolution {
		mid := math.Sqrt(lo * hi)
		pass, err := ok(mid)
		if err != nil {
			return 0, err
		}
		if pass {
			lo = mid
		} else {
			hi = mid
		}
	}
	return lo, nil
}
