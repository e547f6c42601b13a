package coserve_test

import (
	"strings"
	"testing"
	"time"

	coserve "repro"
)

// TestControlPlaneFacade exercises the documented overload session: a
// steady-state stream bounded by a horizon, SLO-aware shedding, and an
// autoscaler, all through the public API.
func TestControlPlaneFacade(t *testing.T) {
	dev := coserve.NUMADevice()
	board, err := coserve.BoardA().Build()
	if err != nil {
		t.Fatal(err)
	}
	perf, err := coserve.Profile(dev, coserve.EvalArchitectures())
	if err != nil {
		t.Fatal(err)
	}
	cfg := coserve.Config{
		Device: dev, Variant: coserve.CoServe, Perf: perf,
		SLO: 500 * time.Millisecond, Window: time.Second,
	}
	if cfg.Admission, err = coserve.NewDeadlineShed(cfg.SLO); err != nil {
		t.Fatal(err)
	}
	if cfg.Autoscaler, err = coserve.NewHysteresisScaler(0.3, 0.85); err != nil {
		t.Fatal(err)
	}
	srv, err := coserve.NewServer(cfg, board.Model)
	if err != nil {
		t.Fatal(err)
	}
	steady, err := coserve.Steady{Name: "line", Board: board, Rate: 60, Seed: 9}.NewSource()
	if err != nil {
		t.Fatal(err)
	}
	if !coserve.IsUnbounded(steady) {
		t.Fatal("steady source not reported unbounded through the facade")
	}
	rep, err := srv.Serve(coserve.Horizon(steady, 5*time.Second))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Offered != rep.N+rep.Rejected {
		t.Errorf("offered %d != admitted %d + rejected %d", rep.Offered, rep.N, rep.Rejected)
	}
	if rep.Rejected == 0 {
		t.Error("shedding rejected nothing at 5x overload")
	}
	if len(rep.Windows) == 0 {
		t.Error("no windowed series despite Config.Window")
	}
	g, c := 3, 1 // the default NUMA topology
	if rep.ActiveGPU < 1 || rep.ActiveGPU > g || rep.ActiveCPU < 0 || rep.ActiveCPU > c {
		t.Errorf("active executors %dG+%dC outside the built topology %dG+%dC",
			rep.ActiveGPU, rep.ActiveCPU, g, c)
	}
	// The named policies resolve through the facade, too.
	for _, name := range []string{"accept", "bounded", "token", "shed"} {
		if _, err := coserve.AdmissionPolicyByName(name, coserve.PolicyOptions{
			QueueBound: 8, Rate: 5, Burst: 2, Objective: time.Second,
		}); err != nil {
			t.Errorf("policy %q: %v", name, err)
		}
	}
}

// TestQuickstartFlow exercises the documented public-API session end to
// end: profile, configure, serve, report.
func TestQuickstartFlow(t *testing.T) {
	dev := coserve.NUMADevice()
	board, err := coserve.BoardA().Build()
	if err != nil {
		t.Fatal(err)
	}
	perf, err := coserve.Profile(dev, coserve.EvalArchitectures())
	if err != nil {
		t.Fatal(err)
	}
	cfg := coserve.Config{Device: dev, Variant: coserve.CoServe, Perf: perf}
	srv, err := coserve.NewServer(cfg, board.Model)
	if err != nil {
		t.Fatal(err)
	}
	task := coserve.Task{Name: "quick", Board: board, N: 300, ArrivalPeriod: 4e6, Seed: 5}
	rep, err := srv.RunTask(task)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Completions != 300 {
		t.Errorf("completions = %d, want 300", rep.Completions)
	}
	if rep.Throughput <= 0 || rep.Switches < 0 {
		t.Errorf("implausible report: %+v", rep)
	}
}

// TestCustomModelViaBuilder drives the model-builder path of the facade.
func TestCustomModelViaBuilder(t *testing.T) {
	b := coserve.NewModelBuilder("custom")
	cls := b.AddExpert("classifier", coserve.ResNet101, coserve.Preliminary)
	det := b.AddExpert("detector", coserve.YOLOv5m, coserve.Subsequent)
	b.Link(cls, det)
	b.AddRule(0, coserve.Rule{Classifier: cls, Detector: det, PassProb: 0.9})
	m, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if err := coserve.ComputeUsage(m, map[int]float64{0: 1}); err != nil {
		t.Fatal(err)
	}
	if m.NumExperts() != 2 {
		t.Errorf("experts = %d, want 2", m.NumExperts())
	}
}

func TestDeviceByName(t *testing.T) {
	for _, name := range []string{"numa", "uma"} {
		if _, err := coserve.DeviceByName(name); err != nil {
			t.Errorf("DeviceByName(%q): %v", name, err)
		}
	}
	if _, err := coserve.DeviceByName("quantum"); err == nil {
		t.Error("unknown device resolved")
	}
}

func TestRunExperimentFacade(t *testing.T) {
	out, err := coserve.RunExperiment(nil, "tab1")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "RTX3080Ti") {
		t.Error("tab1 output missing hardware")
	}
	if _, err := coserve.RunExperiment(nil, "fig99"); err == nil {
		t.Error("unknown experiment accepted")
	}
	if got := len(coserve.Experiments()); got != 25 {
		t.Errorf("experiments = %d, want 25 (13 paper artifacts + 3 extensions + 9 serving)", got)
	}
}

// TestClusterFacade exercises the documented cluster session through
// the public API: routers and placements by name, a homogeneous fleet
// via UniformNodes, one-shot ServeCluster, and trace record/replay.
func TestClusterFacade(t *testing.T) {
	dev := coserve.NUMADevice()
	board, err := coserve.BoardA().Build()
	if err != nil {
		t.Fatal(err)
	}
	perf, err := coserve.Profile(dev, coserve.EvalArchitectures())
	if err != nil {
		t.Fatal(err)
	}
	node := coserve.Config{Device: dev, Variant: coserve.CoServe, Perf: perf}
	router, err := coserve.ClusterRouterByName("affinity")
	if err != nil {
		t.Fatal(err)
	}
	placement, err := coserve.ClusterPlacementByName("usage")
	if err != nil {
		t.Fatal(err)
	}
	ccfg := coserve.ClusterConfig{
		Nodes: coserve.UniformNodes(3, node), Router: router, Placement: placement,
		SLO: time.Second,
	}

	src, err := coserve.Poisson{Name: "fleet", Board: board, Rate: 60, N: 200, Seed: 5}.NewSource()
	if err != nil {
		t.Fatal(err)
	}
	rec := coserve.Record(src)
	rep, err := coserve.ServeCluster(ccfg, board.Model, rec)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Nodes != 3 || len(rep.PerNode) != 3 {
		t.Fatalf("fleet size %d / %d node reports, want 3", rep.Nodes, len(rep.PerNode))
	}
	if rep.Completions != 200 {
		t.Errorf("completions = %d, want 200", rep.Completions)
	}
	if rep.Router != "affinity" || rep.Placement != "usage" {
		t.Errorf("report names %s/%s", rep.Router, rep.Placement)
	}

	// The recorded trace replays onto a long-lived cluster.
	replay, err := rec.Trace().Replay(board.Model)
	if err != nil {
		t.Fatal(err)
	}
	cl, err := coserve.NewCluster(ccfg2(ccfg), board.Model)
	if err != nil {
		t.Fatal(err)
	}
	rep2, err := cl.Serve(replay)
	if err != nil {
		t.Fatal(err)
	}
	if rep2.Completions != rep.Completions || rep2.N != rep.N {
		t.Errorf("replayed fleet run differs: %d/%d vs %d/%d", rep2.N, rep2.Completions, rep.N, rep.Completions)
	}
	if rep2.Switches != rep.Switches || rep2.Latency != rep.Latency {
		t.Errorf("replayed fleet run not bit-equivalent: %d switches vs %d", rep2.Switches, rep.Switches)
	}

	for _, name := range []string{"least-loaded", "affinity", "predict"} {
		if _, err := coserve.ClusterRouterByName(name); err != nil {
			t.Errorf("router %q: %v", name, err)
		}
	}
	for _, name := range []string{"mirror", "partition", "usage"} {
		if _, err := coserve.ClusterPlacementByName(name); err != nil {
			t.Errorf("placement %q: %v", name, err)
		}
	}
	if _, err := coserve.NewTenantQuota(nil, 5, 2); err != nil {
		t.Errorf("NewTenantQuota: %v", err)
	}
	if _, err := coserve.NewReachableHysteresisScaler(0.3, 0.85); err != nil {
		t.Errorf("NewReachableHysteresisScaler: %v", err)
	}
}

// ccfg2 deep-copies a cluster config's node slice so a second cluster
// does not share the first one's (stateless here, but by contract
// per-cluster) control-plane instances.
func ccfg2(c coserve.ClusterConfig) coserve.ClusterConfig {
	c.Nodes = append([]coserve.Config(nil), c.Nodes...)
	return c
}
