package core

import (
	"fmt"
	"runtime"
	"testing"
	"time"

	"repro/internal/coe"
	"repro/internal/hw"
	"repro/internal/sim"
	"repro/internal/workload"
)

// TestServeConsecutiveTasksWarmPools is the warm-restart contract: one
// System serves two consecutive streams, and the second — replaying the
// same working set against pools the first run left warm — pays fewer
// expert switches than the first.
func TestServeConsecutiveTasksWarmPools(t *testing.T) {
	board := boardFor(t, workload.BoardA())
	s := buildSystem(t, hw.NUMADevice(), CoServe, board)
	task := smallTask(board, 400)
	r1, err := s.RunTask(task)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := s.RunTask(task)
	if err != nil {
		t.Fatal(err)
	}
	if r1.Completions != 400 || r2.Completions != 400 {
		t.Fatalf("completions = %d, %d; want 400, 400", r1.Completions, r2.Completions)
	}
	if r2.Switches >= r1.Switches {
		t.Errorf("warm second run switched %d experts, not fewer than the first run's %d",
			r2.Switches, r1.Switches)
	}
	if s.LoadedExperts() == 0 {
		t.Error("no experts resident after two runs — pools were not kept warm")
	}
}

// TestServeWarmBeatsColdRamp: a cold-start variant (Samba) served twice
// must ramp faster the second time — the warm pools absorb the initial
// load storm, lifting throughput.
func TestServeWarmBeatsColdRamp(t *testing.T) {
	board := boardFor(t, workload.BoardA())
	s := buildSystem(t, hw.NUMADevice(), Samba, board)
	task := smallTask(board, 400)
	r1, err := s.RunTask(task)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := s.RunTask(task)
	if err != nil {
		t.Fatal(err)
	}
	if r2.Throughput <= r1.Throughput {
		t.Errorf("warm Samba run throughput %.2f not above cold %.2f", r2.Throughput, r1.Throughput)
	}
}

// poissonFor builds a small open-loop stream against the board.
func poissonFor(t *testing.T, name string, board *workload.Board, rate float64, n int, seed int64) workload.Source {
	t.Helper()
	src, err := workload.Poisson{
		Name: name, Board: board, Rate: rate, N: n, Seed: seed,
	}.NewSource()
	if err != nil {
		t.Fatal(err)
	}
	return src
}

func TestServePoissonStream(t *testing.T) {
	board := boardFor(t, workload.BoardA())
	pm := perfFor(t, hw.NUMADevice())
	g, c := DefaultExecutors(hw.NUMADevice())
	cfg := Config{
		Device: hw.NUMADevice(), Variant: CoServe,
		GPUExecutors: g, CPUExecutors: c,
		Alloc: CasualAllocation(hw.NUMADevice(), pm, g, c), Perf: pm,
		SLO: 2 * time.Second,
	}
	s, err := NewSystem(cfg, board.Model)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := s.Serve(poissonFor(t, "poisson-test", board, 50, 300, 7))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Completions != 300 {
		t.Fatalf("completions = %d, want 300", rep.Completions)
	}
	if rep.Throughput <= 0 {
		t.Error("throughput not positive")
	}
	if rep.Latency.P50 > rep.Latency.P95 || rep.Latency.P95 > rep.Latency.P99 {
		t.Errorf("latency percentiles not monotone: p50=%v p95=%v p99=%v",
			rep.Latency.P50, rep.Latency.P95, rep.Latency.P99)
	}
	if rep.SLO != 2*time.Second {
		t.Errorf("report SLO = %v, want 2s", rep.SLO)
	}
	if rep.SLOAttainment < 0 || rep.SLOAttainment > 1 {
		t.Errorf("SLO attainment %v outside [0,1]", rep.SLOAttainment)
	}
}

func TestServePoissonDeterministic(t *testing.T) {
	board := boardFor(t, workload.BoardA())
	run := func() *Report {
		s := buildSystem(t, hw.NUMADevice(), CoServe, board)
		rep, err := s.Serve(poissonFor(t, "poisson-test", board, 100, 200, 11))
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}
	a, b := run(), run()
	if a.Throughput != b.Throughput || a.Switches != b.Switches || a.Makespan != b.Makespan {
		t.Errorf("nondeterministic poisson serve: %v/%v/%v vs %v/%v/%v",
			a.Throughput, a.Switches, a.Makespan, b.Throughput, b.Switches, b.Makespan)
	}
}

func TestServeBurstyStream(t *testing.T) {
	board := boardFor(t, workload.BoardA())
	src, err := workload.Bursty{
		Name: "bursty-test", Board: board,
		Period: 2 * time.Millisecond, On: 100 * time.Millisecond, Off: 400 * time.Millisecond,
		N: 250, Seed: 5,
	}.NewSource()
	if err != nil {
		t.Fatal(err)
	}
	s := buildSystem(t, hw.NUMADevice(), CoServe, board)
	rep, err := s.Serve(src)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Completions != 250 {
		t.Errorf("completions = %d, want 250", rep.Completions)
	}
}

// TestServeMixPerTenant serves a two-tenant mix over one board and
// checks the per-tenant breakdown: every tenant's requests are admitted
// and completed, and the slices add up to the stream totals.
func TestServeMixPerTenant(t *testing.T) {
	board := boardFor(t, workload.BoardA())
	fast := poissonFor(t, "tenant-fast", board, 150, 200, 21)
	slow := poissonFor(t, "tenant-slow", board, 40, 80, 22)
	src, err := workload.Mix{Name: "mix-test", Tenants: []workload.Source{fast, slow}}.NewSource()
	if err != nil {
		t.Fatal(err)
	}
	s := buildSystem(t, hw.NUMADevice(), CoServe, board)
	rep, err := s.Serve(src)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Completions != 280 {
		t.Fatalf("completions = %d, want 280", rep.Completions)
	}
	if len(rep.PerTenant) != 2 {
		t.Fatalf("per-tenant slices = %d, want 2", len(rep.PerTenant))
	}
	var admitted, completed int64
	for _, ts := range rep.PerTenant {
		admitted += ts.Admitted
		completed += ts.Completions
		if ts.Admitted != ts.Completions {
			t.Errorf("tenant %s: admitted %d != completed %d", ts.Name, ts.Admitted, ts.Completions)
		}
	}
	if admitted != 280 || completed != 280 {
		t.Errorf("tenant totals %d/%d, want 280/280", admitted, completed)
	}
}

// TestServeMergedBoards runs the full multi-tenant path: boards A and B
// fused into one CoE model, one System serving both tenants' streams.
func TestServeMergedBoards(t *testing.T) {
	a := boardFor(t, workload.BoardA())
	b, err := workload.BoardB().Build()
	if err != nil {
		t.Fatal(err)
	}
	merged, views, err := workload.MergeBoards("a+b", []float64{1, 1}, a, b)
	if err != nil {
		t.Fatal(err)
	}
	tenantA := poissonFor(t, "tenant-a", views[0], 60, 120, 31)
	tenantB := poissonFor(t, "tenant-b", views[1], 60, 120, 32)
	src, err := workload.Mix{Name: "a+b-mix", Tenants: []workload.Source{tenantA, tenantB}}.NewSource()
	if err != nil {
		t.Fatal(err)
	}
	s := buildSystem(t, hw.NUMADevice(), CoServe, merged)
	rep, err := s.Serve(src)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Completions != 240 {
		t.Fatalf("completions = %d, want 240", rep.Completions)
	}
	if len(rep.PerTenant) != 2 {
		t.Fatalf("per-tenant slices = %d, want 2", len(rep.PerTenant))
	}
	for _, ts := range rep.PerTenant {
		if ts.Completions != 120 {
			t.Errorf("tenant %s completed %d, want 120", ts.Name, ts.Completions)
		}
	}
}

// TestServeRejectsForeignModelStream: a stream drawing from a different
// CoE model than the System hosts is rejected upfront, not routed to
// the wrong experts.
func TestServeRejectsForeignModelStream(t *testing.T) {
	a := boardFor(t, workload.BoardA())
	b, err := workload.BoardB().Build()
	if err != nil {
		t.Fatal(err)
	}
	s := buildSystem(t, hw.NUMADevice(), CoServe, a)
	if _, err := s.Serve(poissonFor(t, "foreign", b, 50, 50, 3)); err == nil {
		t.Error("stream over board B's model accepted by board A's system")
	}
	// The rejection must not poison the system: board A streams still
	// serve.
	rep, err := s.Serve(poissonFor(t, "native", a, 50, 50, 3))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Completions != 50 {
		t.Errorf("completions = %d, want 50", rep.Completions)
	}
}

// TestOpenStreamRefusesReentry: while a stream is open — joined and not
// yet reported — neither Serve nor a second JoinStream may start
// another; once the stream is closed and reported, Serve runs the same
// protocol on the same system.
func TestOpenStreamRefusesReentry(t *testing.T) {
	board := boardFor(t, workload.BoardA())
	s := buildSystem(t, hw.NUMADevice(), CoServe, board)
	if err := s.JoinStream("open", recycler{s}); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Serve(poissonFor(t, "reentrant", board, 50, 10, 3)); err == nil {
		t.Error("Serve accepted while a stream was open")
	}
	if err := s.JoinStream("again", recycler{s}); err == nil {
		t.Error("JoinStream accepted while a stream was open")
	}
	s.CloseStream()
	s.Env().Run()
	if _, err := s.StreamReport(); err != nil {
		t.Fatal(err)
	}
	rep, err := s.Serve(poissonFor(t, "after", board, 50, 10, 3))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Completions != 10 || s.Runs() != 2 {
		t.Errorf("completions = %d after %d runs, want 10 after 2", rep.Completions, s.Runs())
	}
}

// keepDelegate is a stream delegate that resolves requests outside the
// node, as a fleet's front end does: it only recycles them.
type keepDelegate struct{}

func (keepDelegate) RequestDone(_ sim.Time, r *coe.Request)    { coe.Recycle(r) }
func (keepDelegate) RequestDropped(_ sim.Time, r *coe.Request) { coe.Recycle(r) }

// TestJoinedNodeKeepsNoSamples: a node whose delegate resolves its
// requests elsewhere counts every completion, per tenant too, but keeps
// no latency samples — the resolver records them — while the same
// stream served by the node itself records each completion once.
func TestJoinedNodeKeepsNoSamples(t *testing.T) {
	board := boardFor(t, workload.BoardA())
	mix := func() workload.Source {
		a := poissonFor(t, "tenant-a", board, 4, 60, 5)
		b := poissonFor(t, "tenant-b", board, 4, 60, 6)
		src, err := workload.Mix{Name: "joined", Tenants: []workload.Source{a, b}}.NewSource()
		if err != nil {
			t.Fatal(err)
		}
		return src
	}
	s := buildSystem(t, hw.NUMADevice(), CoServe, board)
	if err := s.JoinStream("joined", keepDelegate{}); err != nil {
		t.Fatal(err)
	}
	workload.Play(s.Env(), mix(), func(now sim.Time, tr workload.TimedRequest) {
		if !s.OfferAt(now, tr.Req) {
			coe.Recycle(tr.Req)
		}
	}, func(sim.Time) { s.CloseStream() })
	s.Env().Run()
	joined, err := s.StreamReport()
	if err != nil {
		t.Fatal(err)
	}
	if joined.Completions != 120 || len(joined.PerTenant) != 2 || joined.PerTenant[0].Completions+joined.PerTenant[1].Completions != 120 {
		t.Fatalf("joined node counted %d completions over %d tenants, want 120 over 2", joined.Completions, len(joined.PerTenant))
	}
	if n := s.recorder.LatencySummary().N; n != 0 || joined.Latency.N != 0 ||
		joined.PerTenant[0].Latency.N != 0 || joined.PerTenant[1].Latency.N != 0 {
		t.Errorf("joined node recorded %d latency samples", n)
	}
	own, err := s.Serve(mix())
	if err != nil {
		t.Fatal(err)
	}
	if own.Latency.N != 120 || own.PerTenant[0].Latency.N+own.PerTenant[1].Latency.N != 120 {
		t.Errorf("self-served stream recorded %d samples, tenants %d+%d, want 120",
			own.Latency.N, own.PerTenant[0].Latency.N, own.PerTenant[1].Latency.N)
	}
}

// TestServeSLOAttainmentBounds pins the attainment extremes: a very lax
// objective is fully attained, a sub-millisecond one is not (a chain
// takes at least one execution latency).
func TestServeSLOAttainmentBounds(t *testing.T) {
	board := boardFor(t, workload.BoardA())
	pm := perfFor(t, hw.NUMADevice())
	g, c := DefaultExecutors(hw.NUMADevice())
	base := Config{
		Device: hw.NUMADevice(), Variant: CoServe,
		GPUExecutors: g, CPUExecutors: c,
		Alloc: CasualAllocation(hw.NUMADevice(), pm, g, c), Perf: pm,
	}
	for _, tc := range []struct {
		slo  time.Duration
		want func(float64) bool
		desc string
	}{
		{0, func(a float64) bool { return a == 1 }, "disabled SLO reports full attainment"},
		{time.Hour, func(a float64) bool { return a == 1 }, "lax SLO fully attained"},
		{time.Microsecond, func(a float64) bool { return a < 0.01 }, "impossible SLO missed"},
	} {
		cfg := base
		cfg.SLO = tc.slo
		s, err := NewSystem(cfg, board.Model)
		if err != nil {
			t.Fatal(err)
		}
		rep, err := s.Serve(poissonFor(t, "poisson-test", board, 50, 100, 13))
		if err != nil {
			t.Fatal(err)
		}
		if !tc.want(rep.SLOAttainment) {
			t.Errorf("%s: attainment = %v (slo %v)", tc.desc, rep.SLOAttainment, tc.slo)
		}
	}
}

// warmMixServe returns one serve of an n-request two-tenant mix (2 req/s
// per tenant, NUMA board A) on a CoServe system that has already served
// one such stream, so its pools, queues and recorder blocks are warm. A
// light load (4 req/s against a ~10 req/s node) keeps the in-flight
// peak, which each stream's fresh source arenas grow to, small.
func warmMixServe(t *testing.T, n int) func() {
	board := boardFor(t, workload.BoardA())
	s := buildSystem(t, hw.NUMADevice(), CoServe, board)
	seed := int64(1)
	serve := func() {
		a := poissonFor(t, "tenant-a", board, 2, n/2, seed)
		b := poissonFor(t, "tenant-b", board, 2, n/2, seed+1)
		seed += 2
		src, err := workload.Mix{Name: "mix-allocs", Tenants: []workload.Source{a, b}}.NewSource()
		if err != nil {
			t.Fatal(err)
		}
		rep, err := s.Serve(src)
		if err != nil {
			t.Fatal(err)
		}
		if rep.Completions != int64(n) || len(rep.PerTenant) != 2 {
			t.Fatalf("served %d completions over %d tenants, want %d over 2", rep.Completions, len(rep.PerTenant), n)
		}
		// The tenants' latency rows fold the system's one record, which
		// a warm restart empties.
		if a, b := rep.PerTenant[0], rep.PerTenant[1]; a.Admitted+b.Admitted != int64(n) || a.Latency.N+b.Latency.N != n {
			t.Fatalf("tenants admitted %d+%d with %d+%d samples, want %d in all", a.Admitted, b.Admitted, a.Latency.N, b.Latency.N, n)
		}
	}
	serve()
	return serve
}

// TestMixServeAllocsPin: every request of a two-tenant Mix is leased
// from its tenant source's arena and recycled when its node is done, and
// its tenant rides on the request, so a warm serve allocates per stream
// (sources, tenant counters, report), not per request.
func TestMixServeAllocsPin(t *testing.T) {
	const n = 8000
	perReq := testing.AllocsPerRun(1, warmMixServe(t, n)) / n
	t.Logf("%.4f allocs per request", perReq)
	if perReq > 0.05 {
		t.Errorf("warm mix serve allocates %.4f per request, want <= 0.05", perReq)
	}
}

// TestMixServeBytesPin: a warm exact-mode serve records nothing per
// dispatch, records each completion once in the system's recorder,
// tagged with its tenant, and reuses that recorder's sample blocks and
// its one flat scratch copy for the stream's and the tenants'
// summaries, so it allocates per stream, not per request.
func TestMixServeBytesPin(t *testing.T) {
	const n = 8000
	serve := warmMixServe(t, n)
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	serve()
	runtime.ReadMemStats(&m1)
	perReq := float64(m1.TotalAlloc-m0.TotalAlloc) / n
	t.Logf("%.1f bytes per request", perReq)
	if perReq > 5 {
		t.Errorf("warm mix serve allocates %.1f bytes per request, want <= 5", perReq)
	}
}

// TestTenantSlotsBeyondScan: slot finds the first tenantScan tenants by
// a scan and the rest through its map; either way a tenant keeps the
// slot of its first request, slots follow first-seen order, and the map
// holds only the tenants past the scan.
func TestTenantSlotsBeyondScan(t *testing.T) {
	c := &controller{}
	const n = 3*tenantScan + 1
	names := make([]string, n)
	for i := range names {
		names[i] = fmt.Sprintf("tenant-%02d", i)
		if got := c.slot(names[i]); got != int32(i+1) {
			t.Fatalf("first request of %s: slot %d, want %d", names[i], got, i+1)
		}
	}
	for round := 0; round < 3; round++ {
		for i := n - 1; i >= 0; i-- {
			// A fresh copy of the name, so the lookup compares contents.
			if got := c.slot(string([]byte(names[i]))); got != int32(i+1) {
				t.Fatalf("round %d: %s has slot %d, want %d", round, names[i], got, i+1)
			}
		}
	}
	if c.slot("") != 0 {
		t.Error("the empty tenant has a slot")
	}
	for i, tc := range c.tenants {
		if tc.name != names[i] {
			t.Fatalf("tenant %d is %s, want first-seen %s", i, tc.name, names[i])
		}
	}
	if len(c.tenants) != n || len(c.tenantIdx) != n-tenantScan {
		t.Errorf("%d tenants, %d in the map; want %d and %d", len(c.tenants), len(c.tenantIdx), n, n-tenantScan)
	}
}

// TestServeManyTenantsFirstSeenOrder: a mix of more tenants than slot
// scans reports them in the order their first requests arrived, each
// with its own counts.
func TestServeManyTenantsFirstSeenOrder(t *testing.T) {
	board := boardFor(t, workload.BoardA())
	const tenants = tenantScan + 4
	mix := func() workload.Source {
		srcs := make([]workload.Source, tenants)
		for i := range srcs {
			srcs[i] = poissonFor(t, fmt.Sprintf("t%02d", i), board, float64(2+i%5), 12, int64(40+i))
		}
		src, err := workload.Mix{Name: "many", Tenants: srcs}.NewSource()
		if err != nil {
			t.Fatal(err)
		}
		return src
	}
	var order []string
	count := map[string]int64{}
	for src := mix(); ; {
		tr, ok := src.Next()
		if !ok {
			break
		}
		if count[tr.Req.Tenant] == 0 {
			order = append(order, tr.Req.Tenant)
		}
		count[tr.Req.Tenant]++
	}
	s := buildSystem(t, hw.NUMADevice(), CoServe, board)
	rep, err := s.Serve(mix())
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.PerTenant) != tenants {
		t.Fatalf("%d tenant rows, want %d", len(rep.PerTenant), tenants)
	}
	for i, ts := range rep.PerTenant {
		if ts.Name != order[i] || ts.Admitted != count[ts.Name] || ts.Completions != ts.Admitted {
			t.Errorf("row %d: %s admitted %d completed %d; want %s admitted %d", i, ts.Name, ts.Admitted, ts.Completions, order[i], count[order[i]])
		}
	}
}
