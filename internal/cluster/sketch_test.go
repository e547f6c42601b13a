package cluster

import (
	"math"
	"testing"
	"time"

	"repro/internal/coe"
	"repro/internal/core"
	"repro/internal/hw"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/workload"
)

// TestClusterSketchCountsEachRequestOnce: in sketch mode the fleet
// percentiles come from the front end's own sketch, which records each
// request once, when its result is back. Under crash churn and hedging
// the nodes also finish losing hedge copies and work whose lease a crash
// voided; none of those copies may reach the report, so the per-node
// folds of the front end's record count exactly the fleet's
// completions, and no node carries a sketch of its own. Checked with
// and without an interconnect.
func TestClusterSketchCountsEachRequestOnce(t *testing.T) {
	board := boardFor(t, workload.BoardA())
	plan, err := sim.GenerateFaultPlan(4, 2*time.Second, 500*time.Millisecond, 40*time.Second, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, ic := range []Interconnect{{}, testInterconnect} {
		c := buildCluster(t, Config{
			Nodes:        Uniform(4, nodeConfig(t, hw.NUMADevice())),
			Router:       Affinity{},
			Faults:       plan,
			Hedge:        HedgeConfig{After: 300 * time.Millisecond},
			Interconnect: ic,
			SLO:          500 * time.Millisecond,
			Percentiles:  core.PercentilesSketch,
		}, board.Model)
		rep, err := c.Serve(poissonFor(t, board, 40, 1500, 1))
		if err != nil {
			t.Fatal(err)
		}
		var nodeSamples int64
		for _, nr := range rep.PerNode {
			if nr.LatencySketch != nil {
				t.Fatalf("node %s report carries a sketch — fleet nodes keep no latency records", nr.System)
			}
			nodeSamples += int64(nr.Latency.N)
		}
		t.Logf("interconnect %v: %d crashes, %d hedges fired, %d wasted, %d completions, %d node samples",
			ic != Interconnect{}, rep.Crashes, rep.HedgesFired, rep.HedgeWasted, rep.Completions, nodeSamples)
		if rep.Crashes == 0 || rep.HedgesFired == 0 || rep.HedgeWasted == 0 {
			t.Fatal("no crash, hedge or wasted copy: the test exercises nothing")
		}
		if nodeSamples != rep.Completions {
			t.Errorf("per-node latency folds hold %d samples for %d completions", nodeSamples, rep.Completions)
		}
		if rep.LatencySketch == nil {
			t.Fatal("sketch-mode cluster report carries no sketch")
		}
		if got := rep.LatencySketch.Count(); got != rep.Completions {
			t.Errorf("fleet sketch holds %d samples for %d completions", got, rep.Completions)
		}
		if int64(rep.Latency.N) != rep.Completions {
			t.Errorf("fleet latency summary over %d samples for %d completions", rep.Latency.N, rep.Completions)
		}
		if want := rep.LatencySketch.Attainment(0.5); rep.SLOAttainment != want {
			t.Errorf("SLO attainment %v, report's sketch says %v", rep.SLOAttainment, want)
		}
		if rep.Latency.P50 > rep.Latency.P95 || rep.Latency.P95 > rep.Latency.P99 {
			t.Errorf("fleet percentiles not monotone: %+v", rep.Latency)
		}
	}
}

// TestClusterSketchMatchesExactWithinBound: the same cluster stream in
// sketch mode agrees with exact mode on all exact quantities and on
// percentiles within the sketch's accuracy bound (plus one rank-gap of
// interpolation slack).
func TestClusterSketchMatchesExactWithinBound(t *testing.T) {
	board := boardFor(t, workload.BoardA())
	serve := func(mode core.PercentileMode) *Report {
		cfg := Config{
			Nodes:       Uniform(2, nodeConfig(t, hw.NUMADevice())),
			SLO:         500 * time.Millisecond,
			Percentiles: mode,
		}
		c := buildCluster(t, cfg, board.Model)
		rep, err := c.Serve(poissonFor(t, board, 24, 400, 777))
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}
	exact := serve(core.PercentilesExact)
	sketch := serve(core.PercentilesSketch)
	if exact.LatencySketch != nil {
		t.Error("exact mode must not carry a merged sketch")
	}
	if exact.Completions != sketch.Completions || exact.Makespan != sketch.Makespan ||
		exact.Imbalance != sketch.Imbalance {
		t.Fatal("sketch mode changed serving behavior")
	}
	el, sl := exact.Latency, sketch.Latency
	if el.N != sl.N || el.Min != sl.Min || el.Max != sl.Max {
		t.Fatalf("N/Min/Max must stay exact: %d/%v/%v vs %d/%v/%v",
			sl.N, sl.Min, sl.Max, el.N, el.Min, el.Max)
	}
	tol := 2.5 * sketch.LatencySketch.RelativeAccuracy()
	for _, pair := range [][2]float64{{sl.P50, el.P50}, {sl.P95, el.P95}, {sl.P99, el.P99}} {
		if math.Abs(pair[0]-pair[1]) > tol*pair[1] {
			t.Errorf("sketch percentile %v deviates more than %.1f%% from exact %v",
				pair[0], 100*tol, pair[1])
		}
	}
	if math.Abs(sketch.SLOAttainment-exact.SLOAttainment) > 0.02 {
		t.Errorf("attainment %v deviates from exact %v", sketch.SLOAttainment, exact.SLOAttainment)
	}
}

// TestClusterArenaServe: an arena-backed stream served across a fleet
// recycles through the cluster delegate path — every node completion
// returns its request, so the pool stays bounded and a rerun on the
// same arena reuses it.
func TestClusterArenaServe(t *testing.T) {
	const n = 400
	board := boardFor(t, workload.BoardA())
	cfg := Config{
		Nodes:       Uniform(3, nodeConfig(t, hw.NUMADevice())),
		Percentiles: core.PercentilesSketch,
	}
	c := buildCluster(t, cfg, board.Model)
	arena := coe.NewArena()
	stream := func(seed int64) workload.Source {
		src, err := workload.Poisson{
			Name: "arena-fleet", Board: board, Rate: 24, N: n, Seed: seed, Arena: arena,
		}.NewSource()
		if err != nil {
			t.Fatal(err)
		}
		return src
	}
	rep, err := c.Serve(stream(1))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Completions != n {
		t.Fatalf("completions = %d, want %d", rep.Completions, n)
	}
	if arena.Leases() != n {
		t.Fatalf("arena leased %d, want %d", arena.Leases(), n)
	}
	if arena.Reuses() == 0 {
		t.Error("no reuses — cluster completions are not recycling")
	}
	if arena.Free() > n/2 {
		t.Errorf("free list %d not bounded by in-flight peak", arena.Free())
	}
	firstReuses := arena.Reuses()
	rep2, err := c.Serve(stream(2))
	if err != nil {
		t.Fatal(err)
	}
	if rep2.Completions != n {
		t.Fatalf("warm-restart completions = %d, want %d", rep2.Completions, n)
	}
	if arena.Reuses()-firstReuses < n/2 {
		t.Error("warm-restarted fleet stream did not reuse the pool")
	}
	// After a warm restart each report's sketch still describes only its
	// own stream: the report holds a copy, not the recorder's live sketch.
	if rep2.LatencySketch.Count() != n {
		t.Errorf("second stream's sketch counts %d, want %d", rep2.LatencySketch.Count(), n)
	}
	if got := rep.LatencySketch.Summary(); got != rep.Latency || got == rep2.Latency {
		t.Errorf("first report's sketch summary %+v changed with the second stream (%+v)", got, rep2.Latency)
	}
}

// TestSketchExactFieldsNilInDefaultMode guards the golden contract: a
// default-mode (exact) cluster report must have nil sketch fields so
// the existing byte-identity and DeepEqual report tests keep passing.
func TestSketchExactFieldsNilInDefaultMode(t *testing.T) {
	board := boardFor(t, workload.BoardA())
	cfg := Config{Nodes: Uniform(1, nodeConfig(t, hw.NUMADevice()))}
	c := buildCluster(t, cfg, board.Model)
	rep, err := c.Serve(poissonFor(t, board, 24, 120, 9))
	if err != nil {
		t.Fatal(err)
	}
	if rep.LatencySketch != nil || rep.PerNode[0].LatencySketch != nil {
		t.Error("exact-mode reports must carry nil sketches")
	}
	var zero stats.Summary
	if rep.Latency == zero {
		t.Error("exact-mode latency summary is empty")
	}
}
