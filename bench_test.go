package coserve_test

import (
	"fmt"
	"math"
	"math/rand"
	"strconv"
	"strings"
	"testing"
	"time"

	coserve "repro"
	"repro/internal/cluster"
	"repro/internal/coe"
	"repro/internal/core"
	"repro/internal/hw"
	"repro/internal/memory"
	"repro/internal/model"
	"repro/internal/pool"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/workload"
	"repro/internal/xfer"
)

// benchCtx memoizes boards, perf matrices, and the evaluation grid, so
// every benchmark iteration after the first measures the (cached)
// regeneration path rather than re-simulating the world.
var benchCtx = coserve.NewExperimentContext()

// benchExperiment is the shared driver: one benchmark per paper table
// and figure, regenerating it through the public API.
func benchExperiment(b *testing.B, id string) {
	b.Helper()
	var out string
	for i := 0; i < b.N; i++ {
		var err error
		out, err = coserve.RunExperiment(benchCtx, id)
		if err != nil {
			b.Fatal(err)
		}
	}
	if len(out) == 0 {
		b.Fatal("empty experiment output")
	}
}

// One benchmark per evaluation artifact of the paper.
func BenchmarkTable1(b *testing.B)   { benchExperiment(b, "tab1") }
func BenchmarkFigure1(b *testing.B)  { benchExperiment(b, "fig1") }
func BenchmarkFigure5(b *testing.B)  { benchExperiment(b, "fig5") }
func BenchmarkFigure6(b *testing.B)  { benchExperiment(b, "fig6") }
func BenchmarkFigure11(b *testing.B) { benchExperiment(b, "fig11") }
func BenchmarkFigure12(b *testing.B) { benchExperiment(b, "fig12") }
func BenchmarkFigure13(b *testing.B) { benchExperiment(b, "fig13") }
func BenchmarkFigure14(b *testing.B) { benchExperiment(b, "fig14") }
func BenchmarkFigure15(b *testing.B) { benchExperiment(b, "fig15") }
func BenchmarkFigure16(b *testing.B) { benchExperiment(b, "fig16") }
func BenchmarkFigure17(b *testing.B) { benchExperiment(b, "fig17") }
func BenchmarkFigure18(b *testing.B) { benchExperiment(b, "fig18") }
func BenchmarkFigure19(b *testing.B) { benchExperiment(b, "fig19") }

// Extension experiments (design-choice ablation and sensitivity sweeps).
func BenchmarkExtEviction(b *testing.B)     { benchExperiment(b, "ext-evict") }
func BenchmarkExtSSDSweep(b *testing.B)     { benchExperiment(b, "ext-ssd") }
func BenchmarkExtArrivalSweep(b *testing.B) { benchExperiment(b, "ext-arrival") }

// BenchmarkTaskA1 measures one full, uncached Task A1 simulation per
// system variant on the NUMA device and reports the achieved virtual
// throughput — the end-to-end cost of the headline experiment.
func BenchmarkTaskA1(b *testing.B) {
	dev := hw.NUMADevice()
	board, err := workload.BoardA().Build()
	if err != nil {
		b.Fatal(err)
	}
	perf, err := coserve.Profile(dev, coserve.EvalArchitectures())
	if err != nil {
		b.Fatal(err)
	}
	for _, variant := range []core.Variant{core.Samba, core.CoServe} {
		variant := variant
		b.Run(variant.String(), func(b *testing.B) {
			var tp float64
			for i := 0; i < b.N; i++ {
				g, c := core.DefaultExecutors(dev)
				cfg := core.Config{Device: dev, Variant: variant, GPUExecutors: g, CPUExecutors: c, Perf: perf}
				if variant == core.Samba {
					cfg.Alloc = core.SambaAllocation(dev, perf)
				} else {
					cfg.Alloc = core.CasualAllocation(dev, perf, g, c)
				}
				sys, err := core.NewSystem(cfg, board.Model)
				if err != nil {
					b.Fatal(err)
				}
				rep, err := sys.RunTask(workload.TaskA1(board))
				if err != nil {
					b.Fatal(err)
				}
				tp = rep.Throughput
			}
			b.ReportMetric(tp, "img/s(virtual)")
		})
	}
}

// BenchmarkPoissonServe measures the open-loop serving path end to end:
// one System per iteration serving a Poisson stream through the
// controller, with SLO accounting on — the serving-layer overhead
// future PRs must not regress.
func BenchmarkPoissonServe(b *testing.B) {
	dev := hw.NUMADevice()
	board, err := workload.BoardA().Build()
	if err != nil {
		b.Fatal(err)
	}
	perf, err := coserve.Profile(dev, coserve.EvalArchitectures())
	if err != nil {
		b.Fatal(err)
	}
	g, c := core.DefaultExecutors(dev)
	cfg := core.Config{
		Device: dev, Variant: core.CoServe,
		GPUExecutors: g, CPUExecutors: c,
		Alloc: core.CasualAllocation(dev, perf, g, c), Perf: perf,
		SLO: 500 * time.Millisecond,
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sys, err := core.NewSystem(cfg, board.Model)
		if err != nil {
			b.Fatal(err)
		}
		src, err := workload.Poisson{
			Name: "bench-poisson", Board: board, Rate: 40, N: 500, Seed: 99,
		}.NewSource()
		if err != nil {
			b.Fatal(err)
		}
		rep, err := sys.Serve(src)
		if err != nil {
			b.Fatal(err)
		}
		if rep.Completions != 500 {
			b.Fatalf("completions = %d", rep.Completions)
		}
	}
}

// BenchmarkClusterServe measures the multi-node serving path end to
// end: one cluster per iteration (node construction, placement
// planning, shared-env simulation) serving a Poisson stream through the
// router. The 1-node case prices the cluster layer's overhead over a
// bare System; the 4-node case is the fleet path the serve-cluster
// experiment sweeps. Baseline in BENCH_cluster.json (`make
// bench-cluster` regenerates the measurement).
func BenchmarkClusterServe(b *testing.B) {
	dev := hw.NUMADevice()
	board, err := workload.BoardA().Build()
	if err != nil {
		b.Fatal(err)
	}
	perf, err := coserve.Profile(dev, coserve.EvalArchitectures())
	if err != nil {
		b.Fatal(err)
	}
	g, c := core.DefaultExecutors(dev)
	node := core.Config{
		Device: dev, Variant: core.CoServe,
		GPUExecutors: g, CPUExecutors: c,
		Alloc: core.CasualAllocation(dev, perf, g, c), Perf: perf,
		SLO: 500 * time.Millisecond,
	}
	for _, nodes := range []int{1, 4} {
		nodes := nodes
		b.Run(fmt.Sprintf("nodes=%d", nodes), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				cl, err := coserve.NewCluster(coserve.ClusterConfig{
					Nodes:     coserve.UniformNodes(nodes, node),
					Router:    cluster.Affinity{},
					Placement: cluster.UsageProportional{},
					SLO:       node.SLO,
				}, board.Model)
				if err != nil {
					b.Fatal(err)
				}
				src, err := workload.Poisson{
					Name: "bench-cluster", Board: board, Rate: 40, N: 500, Seed: 99,
				}.NewSource()
				if err != nil {
					b.Fatal(err)
				}
				rep, err := cl.Serve(src)
				if err != nil {
					b.Fatal(err)
				}
				if rep.Completions != 500 {
					b.Fatalf("completions = %d", rep.Completions)
				}
			}
		})
	}
}

// BenchmarkWarmRestartServe measures the warm path: the first stream
// pays system construction and pool initialization, then b.N
// consecutive streams reuse the loaded pools.
func BenchmarkWarmRestartServe(b *testing.B) {
	dev := hw.NUMADevice()
	board, err := workload.BoardA().Build()
	if err != nil {
		b.Fatal(err)
	}
	perf, err := coserve.Profile(dev, coserve.EvalArchitectures())
	if err != nil {
		b.Fatal(err)
	}
	g, c := core.DefaultExecutors(dev)
	cfg := core.Config{
		Device: dev, Variant: core.CoServe,
		GPUExecutors: g, CPUExecutors: c,
		Alloc: core.CasualAllocation(dev, perf, g, c), Perf: perf,
	}
	sys, err := core.NewSystem(cfg, board.Model)
	if err != nil {
		b.Fatal(err)
	}
	if _, err := sys.RunTask(workload.Task{
		Name: "warmup", Board: board, N: 200,
		ArrivalPeriod: workload.DefaultArrivalPeriod, Seed: 1,
	}); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rep, err := sys.RunTask(workload.Task{
			Name: "warm", Board: board, N: 200,
			ArrivalPeriod: workload.DefaultArrivalPeriod, Seed: int64(i + 2),
		})
		if err != nil {
			b.Fatal(err)
		}
		if rep.Completions != 200 {
			b.Fatalf("completions = %d", rep.Completions)
		}
	}
}

// BenchmarkSimKernel measures raw event throughput of the discrete-event
// kernel: four callback chains, each re-arming itself 250 times.
func BenchmarkSimKernel(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		env := sim.NewEnv()
		for p := 0; p < 4; p++ {
			left := 250
			var step func()
			step = func() {
				if left--; left > 0 {
					env.After(time.Millisecond, step)
				}
			}
			env.After(time.Millisecond, step)
		}
		env.Run()
	}
}

// BenchmarkTimerChurn prices the event heap at depth, which
// BenchmarkSimKernel's four chains never reach: about 1,000 pending
// AfterFunc timers, and each step cancels a random one and re-arms it
// (the hedge-timer pattern), then advances the clock by a microsecond,
// firing about one timer, which re-arms itself. A step allocates
// nothing: cancelled and fired events go back to the free list.
func BenchmarkTimerChurn(b *testing.B) {
	const pending = 1000
	env := sim.NewEnv()
	rng := rand.New(rand.NewSource(1))
	timers := make([]sim.Timer, pending)
	arm := make([]func(), pending)
	for i := range arm {
		arm[i] = func() {
			timers[i] = env.AfterFunc(time.Duration(1+rng.Int63n(int64(2*time.Millisecond))), arm[i])
		}
		arm[i]()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k := rng.Intn(pending)
		env.Cancel(timers[k])
		arm[k]()
		env.RunUntil(env.Now().Add(time.Microsecond))
	}
}

// BenchmarkGateWake prices wake-ups due now behind a deep heap: 64
// timers keep the event heap 64 deep, each re-arming itself 1–2 ms
// ahead when it fires, and each firing notifies one of 16 gates on which
// four continuations wait, each waiting again once woken: the
// enqueue-then-notify and release-then-retry pattern of a serving node,
// where about one event per request is due at the instant it is
// scheduled. One op advances the clock by 10 ms (about 430 firings and
// 1,700 wakes). The heap and the lane are warmed first, so an op
// allocates nothing.
func BenchmarkGateWake(b *testing.B) {
	const timers, gates, waiters = 64, 16, 4
	env := sim.NewEnv()
	rng := rand.New(rand.NewSource(1))
	gs := make([]*sim.Gate, gates)
	for g := range gs {
		gs[g] = sim.NewGate(env)
		for range waiters {
			var wake func()
			wake = func() { gs[g].Wait(wake) }
			gs[g].Wait(wake)
		}
	}
	for i := range timers {
		var fire func()
		fire = func() {
			gs[i%gates].Notify()
			env.After(time.Millisecond+time.Duration(rng.Int63n(int64(time.Millisecond))), fire)
		}
		env.After(time.Duration(rng.Int63n(int64(time.Millisecond))), fire)
	}
	env.RunUntil(env.Now().Add(10 * time.Millisecond))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		env.RunUntil(env.Now().Add(10 * time.Millisecond))
	}
}

// BenchmarkSketchObserve prices the sketch's per-completion cost: 4,096
// latencies, spread over six decades, each observed into two sketches
// (a stream's and a tenant's) with one bucket lookup. 0 allocs/op.
func BenchmarkSketchObserve(b *testing.B) {
	xs := make([]float64, 4096)
	rng := rand.New(rand.NewSource(1))
	for i := range xs {
		xs[i] = 1e-4 * math.Pow(10, 6*rng.Float64())
	}
	all, tenant := stats.NewSketch(), stats.NewSketch()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, x := range xs {
			stats.Observe(x, all, tenant)
		}
	}
}

// constQueues returns n grouped queues of one node for expert IDs below
// experts: one architecture with K = 2ms and B = 5ms, and a 1s switch-in
// for every expert (none is ever loaded, and there is no host cache).
func constQueues(env *sim.Env, n, experts int) []*sched.Queue {
	prices := xfer.NewPrices(make([]uint8, experts), func(int, xfer.Source, memory.Tier) time.Duration { return time.Second })
	loaded := memory.NewResidency(n, experts)
	node := sched.NewNode(n, prices, loaded)
	qs := make([]*sched.Queue, n)
	for i := range qs {
		qs[i] = node.NewQueue(env, fmt.Sprintf("q%d", i), sched.ModeGrouped, sched.Costs{
			K:    []time.Duration{2 * time.Millisecond},
			B:    []time.Duration{5 * time.Millisecond},
			Slot: loaded.Slot(i),
		})
	}
	return qs
}

// push enqueues the request on the queue as the queue prices it.
func push(q *sched.Queue, e *coe.Expert, r *coe.Request) { q.Enqueue(e, r, q.Predict(e)) }

// BenchmarkMinMaxAssign measures one dependency-aware assignment
// decision across 7 queues with realistic backlogs — the per-request
// scheduling cost of Figure 19.
func BenchmarkMinMaxAssign(b *testing.B) {
	env := sim.NewEnv()
	qs := constQueues(env, 7, 1000)
	for i, q := range qs {
		for j := 0; j < 40; j++ {
			e := &coe.Expert{ID: coe.ExpertID(i*100 + j%11), Arch: model.ResNet101}
			push(q, e, coe.NewRequest(int64(j), 0, []coe.ExpertID{e.ID}))
		}
	}
	assigner := sched.MinMax{}
	e := &coe.Expert{ID: 999, Arch: model.ResNet101}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		assigner.Pick(0, qs, e)
	}
}

// BenchmarkGroupedEnqueue measures the queue arranging hot path: one
// merge into an existing group plus the gate notify, the per-request
// cost Enqueue pays after assignment, priced by Predict.
func BenchmarkGroupedEnqueue(b *testing.B) {
	env := sim.NewEnv()
	q := constQueues(env, 1, 1000)[0]
	e := &coe.Expert{ID: 1, Arch: model.ResNet101}
	r := coe.NewRequest(0, 0, []coe.ExpertID{e.ID})
	push(q, e, r)
	var batch []*coe.Request
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		push(q, e, r)
		// Drain periodically so the group's item slice stays at a
		// steady-state size instead of growing with b.N.
		if q.Len() >= 1024 {
			for q.Len() > 0 {
				batch = q.TakeFromHead(batch[:0], 512)
			}
		}
	}
}

// BenchmarkSummarize measures the exact latency summary over a
// 10k-sample stream and over the 200k samples of a node-mix report —
// the per-report cost of every exact-mode serve. Each iteration copies
// the stream once (its one allocation), as a report summarizes its own
// copy, and selects the percentiles in place.
func BenchmarkSummarize(b *testing.B) {
	for _, n := range []int{10_000, 200_000} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			xs := make([]float64, n)
			for i := range xs {
				xs[i] = float64((i * 7919) % n)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				stats.SummarizeInPlace(append([]float64(nil), xs...))
			}
		})
	}
}

// BenchmarkDepAwareEviction measures a warm two-stage victim selection
// over a pool holding ~60 experts. One call before the timer fills the
// pool's reused candidate and victim buffers, so a single iteration
// reads the steady state: no allocations.
func BenchmarkDepAwareEviction(b *testing.B) {
	env := sim.NewEnv()
	mb := coe.NewBuilder("bench")
	var ids []coe.ExpertID
	for i := 0; i < 60; i++ {
		role := coe.Preliminary
		if i%5 == 4 {
			role = coe.Subsequent
		}
		id := mb.AddExpert("e", model.ResNet101, role)
		ids = append(ids, id)
		if role == coe.Preliminary {
			mb.AddRule(i, coe.Rule{Classifier: id})
		}
	}
	m, err := mb.Build()
	if err != nil {
		b.Fatal(err)
	}
	for i, e := range m.Experts() {
		e.UsageProb = float64(i%17) / 17
	}
	store := pool.NewStore(env, hw.NUMADevice(), 0, m)
	p := pool.New("bench", 61*model.ResNet101.WeightBytes(), store, 0, pool.DepAware{}, env.Now)
	pool.Carve([]*pool.Pool{p})
	for _, id := range ids {
		p.Preload(m.Expert(id))
	}
	policy := pool.DepAware{}
	policy.Victims(p, model.ResNet101.WeightBytes())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		victims := policy.Victims(p, model.ResNet101.WeightBytes())
		if len(victims) == 0 {
			b.Fatal("no victims")
		}
	}
}

// BenchmarkWorkloadGeneration measures deterministic request-stream
// generation for Task A2 (3,500 requests).
func BenchmarkWorkloadGeneration(b *testing.B) {
	board, err := workload.BoardA().Build()
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		reqs, err := workload.TaskA2(board).Generate()
		if err != nil || len(reqs) != 3500 {
			b.Fatalf("generation failed: %v (%d)", err, len(reqs))
		}
	}
}

// BenchmarkSampleType measures class sampling on the merged A+B board
// node-mix serves: one op draws 4,096 types, from uniforms drawn up
// front, through the board's guide table. Baseline in BENCH_kernel.json
// at 0 allocs/op (`make bench-kernel`).
func BenchmarkSampleType(b *testing.B) {
	a, err := workload.BoardA().Build()
	if err != nil {
		b.Fatal(err)
	}
	bb, err := workload.BoardB().Build()
	if err != nil {
		b.Fatal(err)
	}
	merged, _, err := workload.MergeBoards("board-a+b", []float64{1, 1}, a, bb)
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	us := make([]float64, 4096)
	for i := range us {
		us[i] = rng.Float64()
	}
	sum := 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, u := range us {
			sum += merged.SampleType(u)
		}
	}
	if sum < 0 {
		b.Fatal("negative type")
	}
}

// BenchmarkProfiledMatrix measures the whole offline microbenchmark
// phase for one device.
func BenchmarkProfiledMatrix(b *testing.B) {
	dev := hw.UMADevice()
	for i := 0; i < b.N; i++ {
		if _, err := coserve.Profile(dev, coserve.EvalArchitectures()); err != nil {
			b.Fatal(err)
		}
	}
}

// fleetNodes and fleetRate size the fleet benchmarks: 100 nodes offered
// 600 req/s, ~72% of the fleet's measured capacity (loaded, not
// backlogged).
const (
	fleetNodes = 100
	fleetRate  = 600.0
)

// fleetBench profiles the NUMA device once and returns board A with
// the config of the 100-node CoServe fleet the fleet benchmarks build:
// sketch percentiles, the affinity router and usage-proportional
// placement.
func fleetBench(b *testing.B) (*workload.Board, coserve.ClusterConfig) {
	dev := hw.NUMADevice()
	board, err := workload.BoardA().Build()
	if err != nil {
		b.Fatal(err)
	}
	perf, err := coserve.Profile(dev, coserve.EvalArchitectures())
	if err != nil {
		b.Fatal(err)
	}
	g, c := core.DefaultExecutors(dev)
	node := core.Config{
		Device: dev, Variant: core.CoServe,
		GPUExecutors: g, CPUExecutors: c,
		Alloc: core.CasualAllocation(dev, perf, g, c), Perf: perf,
		SLO:         500 * time.Millisecond,
		Percentiles: core.PercentilesSketch,
	}
	return board, coserve.ClusterConfig{
		Nodes:       coserve.UniformNodes(fleetNodes, node),
		Router:      cluster.Affinity{},
		Placement:   cluster.UsageProportional{},
		SLO:         node.SLO,
		Percentiles: core.PercentilesSketch,
	}
}

// BenchmarkFleetBuild measures fleet set-up alone: coserve.NewCluster
// for the 100-node usage-placement fleet BenchmarkFleetServe serves —
// the usage-proportional plan (§4.4 capacity planning across the
// fleet), then each node's construction and §4.1 expert preload. The
// device is profiled once, outside the loop. Baseline in
// BENCH_fleet.json (`make bench-fleet`).
func BenchmarkFleetBuild(b *testing.B) {
	board, cfg := fleetBench(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cl, err := coserve.NewCluster(cfg, board.Model)
		if err != nil {
			b.Fatal(err)
		}
		if len(cl.Nodes()) != fleetNodes {
			b.Fatalf("built %d nodes, want %d", len(cl.Nodes()), fleetNodes)
		}
	}
}

// BenchmarkAffinityPick measures one routing decision of the 100-node
// fleet BenchmarkFleetBuild builds: cluster.Affinity over the fleet's
// holder, idle and routable bitsets and its backlog slice. Holder
// density is the usage-proportional plan's; 19 nodes in 20 carry a
// backlog of one to three requests (seeded), so a pick passes about 20
// busy holders before an idle one, as fleet-steady's do; the requests'
// experts come from a Steady stream on the same board. Baseline in
// BENCH_cluster.json at 0 allocs/op (`make bench-cluster`).
func BenchmarkAffinityPick(b *testing.B) {
	board, cfg := fleetBench(b)
	cl, err := coserve.NewCluster(cfg, board.Model)
	if err != nil {
		b.Fatal(err)
	}
	nodes := cl.Nodes()
	rng := rand.New(rand.NewSource(29))
	var seq int64
	for _, n := range nodes {
		if rng.Intn(20) == 0 {
			continue
		}
		q := n.System().Queues()[0]
		for k := 1 + rng.Intn(3); k > 0; k-- {
			seq++
			push(q, board.Model.Expert(0), coe.NewRequest(seq, 0, []coe.ExpertID{0}))
		}
	}
	src, err := workload.Steady{Name: "bench-pick", Board: board, Rate: fleetRate, Seed: 20260807}.NewSource()
	if err != nil {
		b.Fatal(err)
	}
	reqs := make([]*coe.Request, 1024)
	for i := range reqs {
		tr, ok := src.Next()
		if !ok {
			b.Fatal("steady source ran dry")
		}
		reqs[i] = tr.Req
	}
	var router cluster.Affinity
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if j := router.Pick(0, nodes, reqs[i&(len(reqs)-1)]); j < 0 || j >= len(nodes) {
			b.Fatalf("picked node %d of %d", j, len(nodes))
		}
	}
}

// BenchmarkFleetServe measures the fleet-scale hot path: a 100-node
// CoServe cluster in sketch-percentile mode serving an arena-backed
// Steady stream — every O(stream-length) data structure replaced by its
// O(1) counterpart. The two sub-benchmarks
// differ only in stream length (100k vs 1M requests at the same
// offered rate); because completions recycle their requests, drained
// scheduler groups recycle, and the sketch is fixed-size, memory grows
// far sublinearly across the 10× (construction dominates; what scales
// is per-expert-switch eviction bookkeeping, ~4 B/request). Those
// absolute numbers are the regression gate pinned in BENCH_fleet.json
// (`make bench-fleet` regenerates and checks it).
func BenchmarkFleetServe(b *testing.B) {
	board, base := fleetBench(b)
	run := func(b *testing.B, requests int, ic coserve.Interconnect) {
		b.ReportAllocs()
		cfg := base
		cfg.Interconnect = ic
		for i := 0; i < b.N; i++ {
			cl, err := coserve.NewCluster(cfg, board.Model)
			if err != nil {
				b.Fatal(err)
			}
			arena := coe.NewArena()
			src, err := workload.Steady{
				Name: "bench-fleet", Board: board,
				Rate: fleetRate, Seed: 20260807, Arena: arena,
			}.NewSource()
			if err != nil {
				b.Fatal(err)
			}
			horizon := time.Duration(float64(requests) / fleetRate * float64(time.Second))
			rep, err := cl.Serve(workload.Horizon(src, horizon))
			if err != nil {
				b.Fatal(err)
			}
			if rep.Completions < int64(requests) {
				b.Fatalf("completions = %d, want >= %d", rep.Completions, requests)
			}
			if rep.LatencySketch == nil || rep.LatencySketch.Count() != rep.Completions {
				b.Fatal("fleet sketch missing or miscounted")
			}
			if free := arena.Free(); int64(free) >= rep.Completions/10 {
				b.Fatalf("arena free list %d not bounded by in-flight peak", free)
			}
		}
	}
	for _, requests := range []int{100_000, 1_000_000} {
		requests := requests
		b.Run(fmt.Sprintf("nodes=%d/requests=%d", fleetNodes, requests), func(b *testing.B) {
			run(b, requests, coserve.Interconnect{})
		})
	}
	// Interconnect row: the same fleet served over a minimal
	// interconnect (100µs dispatch, 50µs intra-board for the first 16
	// nodes, 300µs beyond — small against the 500ms SLO), so every offer
	// and completion ack is a timed hop. It prices the timed offer/fold
	// protocol against the zero-latency rows. Every hop is a pooled
	// typed message, so the row lands within a few percent of their
	// allocations — what remains above them is the extra timed events,
	// the modeled cost of distribution.
	ic := coserve.Interconnect{
		Dispatch:   100 * time.Microsecond,
		IntraBoard: 50 * time.Microsecond,
		InterNode:  300 * time.Microsecond,
		BoardSize:  16,
	}
	b.Run(fmt.Sprintf("nodes=%d/requests=%d/interconnect", fleetNodes, 100_000), func(b *testing.B) {
		run(b, 100_000, ic)
	})
}

// echoHarness is BenchmarkPostMsg's workload: pooled messages
// ping-ponging between places on one environment, exercising exactly
// the timed-message hot path — heap insertion, closure-free dispatch
// and a message free list — with no cluster, routing, or node model on
// top.
type echoHarness struct {
	env   *sim.Env
	hop   time.Duration
	free  *echoMsg
	count []int // per-place deliveries
}

type echoMsg struct {
	h    *echoHarness
	from int // posting place: the pong target
	part int // delivery place
	hops int // remaining round trips
	next *echoMsg
}

func (h *echoHarness) newMsg() *echoMsg {
	m := h.free
	if m == nil {
		return &echoMsg{h: h}
	}
	h.free = m.next
	m.next = nil
	return m
}

// Deliver implements sim.Message: count the hop, recycle the carrier,
// and pong back with a deterministic per-hop delay spread so the
// chains interleave.
func (m *echoMsg) Deliver(at sim.Time) {
	h := m.h
	from, part, hops := m.from, m.part, m.hops
	m.next = h.free
	h.free = m
	h.count[part]++
	if hops == 0 {
		return
	}
	nm := h.newMsg()
	nm.from, nm.part, nm.hops = part, from, hops-1
	jitter := time.Duration((hops*31+part*17)%97) * time.Microsecond
	h.env.PostMsg(at.Add(h.hop+jitter), nm)
}

// BenchmarkPostMsg prices the timed-message path alone: 32 chains of
// 512 round trips between 8 places, every hop a pooled echo message
// posted with Env.PostMsg — pure kernel overhead. Allocations are the
// regression gate (BENCH_kernel.json via `make bench-kernel`): the
// message pool holds the whole run to a near-constant alloc count
// regardless of hop volume.
func BenchmarkPostMsg(b *testing.B) {
	const (
		places = 8
		chains = 32
		hops   = 512
		hop    = 500 * time.Microsecond
	)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h := &echoHarness{env: sim.NewEnv(), hop: hop, count: make([]int, places)}
		for c := 0; c < chains; c++ {
			m := h.newMsg()
			m.from = c % places
			m.part = (c*5 + 3) % places
			m.hops = hops
			h.env.PostMsg(sim.Time(0).Add(time.Duration(c)*137*time.Microsecond), m)
		}
		h.env.Run()
		total := 0
		for _, n := range h.count {
			total += n
		}
		if want := chains * (hops + 1); total != want {
			b.Fatalf("delivered %d messages, want %d", total, want)
		}
	}
}

// BenchmarkChaosServe measures the fault-injected serving path: a
// 4-node cluster per iteration serving a Poisson stream with the fault
// plan, leases and holds, and (in the gray cases) health scoring, breaker,
// and hedging all active. The failstop sub-benchmark prices the
// crash/redeliver machinery; the gray one prices the full mitigation
// stack against a fail-slow straggler. gray/warm serves the gray stream
// on one cluster built and warmed by a first stream before the timer
// starts, one stream per iteration: the warm-restart path, health state
// reset in place rather than rebuilt. Absolute allocs/op and bytes/op
// are the regression gate pinned in BENCH_chaos.json (`make
// bench-chaos` regenerates and checks it) — the chaos layer must stay
// cheap enough that arming it is never a serving-path tax.
func BenchmarkChaosServe(b *testing.B) {
	dev := hw.NUMADevice()
	board, err := workload.BoardA().Build()
	if err != nil {
		b.Fatal(err)
	}
	perf, err := coserve.Profile(dev, coserve.EvalArchitectures())
	if err != nil {
		b.Fatal(err)
	}
	g, c := core.DefaultExecutors(dev)
	node := core.Config{
		Device: dev, Variant: core.CoServe,
		GPUExecutors: g, CPUExecutors: c,
		Alloc: core.CasualAllocation(dev, perf, g, c), Perf: perf,
		SLO: 3 * time.Second,
	}
	cases := []struct {
		name   string
		plan   *coserve.FaultPlan
		health coserve.HealthConfig
		hedge  coserve.HedgeConfig
		warm   bool
	}{
		{
			name: "faults=failstop",
			plan: &coserve.FaultPlan{Events: []coserve.FaultEvent{
				{At: 2 * time.Second, Node: 1, Kind: coserve.FaultCrash},
				{At: 4 * time.Second, Node: 1, Kind: coserve.FaultRecover},
				{At: 6 * time.Second, Node: 2, Kind: coserve.FaultDrain},
				{At: 9 * time.Second, Node: 2, Kind: coserve.FaultRecover},
			}},
		},
		{
			name: "faults=gray",
			plan: &coserve.FaultPlan{Events: []coserve.FaultEvent{
				{At: 2 * time.Second, Node: 1, Kind: coserve.FaultSlow, Factor: 150},
				{At: 20 * time.Second, Node: 1, Kind: coserve.FaultRecover},
			}},
			health: coserve.HealthConfig{Window: 500 * time.Millisecond, Breaker: true, Cooldown: 8, Probes: 3},
			hedge:  coserve.HedgeConfig{After: time.Second},
		},
	}
	warm := cases[1]
	warm.name, warm.warm = "faults=gray/warm", true
	cases = append(cases, warm)
	for _, tc := range cases {
		tc := tc
		b.Run(tc.name, func(b *testing.B) {
			b.ReportAllocs()
			build := func() *coserve.Cluster {
				cl, err := coserve.NewCluster(coserve.ClusterConfig{
					Nodes:     coserve.UniformNodes(4, node),
					Router:    cluster.Affinity{},
					Placement: cluster.Partition{},
					SLO:       node.SLO,
					Faults:    tc.plan,
					Health:    tc.health,
					Hedge:     tc.hedge,
				}, board.Model)
				if err != nil {
					b.Fatal(err)
				}
				return cl
			}
			serve := func(cl *coserve.Cluster) {
				src, err := workload.Poisson{
					Name: "bench-chaos", Board: board, Rate: 8, N: 240, Seed: 20260730,
				}.NewSource()
				if err != nil {
					b.Fatal(err)
				}
				rep, err := cl.Serve(src)
				if err != nil {
					b.Fatal(err)
				}
				// Exactly-once at the end of every iteration: arrivals either
				// completed once or were terminally rejected on redelivery.
				if rep.Completions+rep.RedeliveredRejected != rep.N {
					b.Fatalf("%d completions + %d terminal rejections != %d arrivals",
						rep.Completions, rep.RedeliveredRejected, rep.N)
				}
			}
			var cl *coserve.Cluster
			if tc.warm {
				cl = build()
				serve(cl)
				b.ResetTimer()
			}
			for i := 0; i < b.N; i++ {
				if !tc.warm {
					cl = build()
				}
				serve(cl)
			}
		})
	}
}

// TestBenchSanity keeps the bench harness honest under plain `go test`:
// the headline figure regenerates and contains every expected system.
func TestBenchSanity(t *testing.T) {
	out, err := coserve.RunExperiment(benchCtx, "fig13")
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"NUMA", "UMA", "A1", "B2"} {
		if !strings.Contains(out, want) {
			t.Errorf("fig13 output missing %q", want)
		}
	}
	// The rendered ratios must parse as multi-x wins.
	for _, line := range strings.Split(out, "\n") {
		fields := strings.Fields(line)
		if len(fields) > 2 && (fields[0] == "NUMA" || fields[0] == "UMA") {
			r := strings.TrimSuffix(fields[len(fields)-3], "×")
			ratio, err := strconv.ParseFloat(r, 64)
			if err != nil {
				t.Fatalf("unparseable ratio in %q", line)
			}
			if ratio < 2 {
				t.Errorf("ratio %v too small in %q", ratio, line)
			}
		}
	}
}
