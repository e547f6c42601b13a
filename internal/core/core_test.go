package core

import (
	"testing"

	"repro/internal/coe"
	"repro/internal/control"
	"repro/internal/hw"
	"repro/internal/memory"
	"repro/internal/model"
	"repro/internal/profiler"
	"repro/internal/trace"
	"repro/internal/workload"
)

var testArchs = []model.Architecture{model.ResNet101, model.YOLOv5m, model.YOLOv5l}

// perfCache memoizes the profiled matrices per device.
var perfCache = map[string]model.PerfMatrix{}

func perfFor(t testing.TB, dev *hw.Device) model.PerfMatrix {
	t.Helper()
	if pm, ok := perfCache[dev.Name]; ok {
		return pm
	}
	pm, err := profiler.Matrix(dev, testArchs)
	if err != nil {
		t.Fatal(err)
	}
	perfCache[dev.Name] = pm
	return pm
}

var boardCache = map[string]*workload.Board{}

func boardFor(t testing.TB, spec workload.BoardSpec) *workload.Board {
	t.Helper()
	if b, ok := boardCache[spec.Name]; ok {
		return b
	}
	b, err := spec.Build()
	if err != nil {
		t.Fatal(err)
	}
	boardCache[spec.Name] = b
	return b
}

// buildSystem assembles a variant with casual allocation on the device.
func buildSystem(t testing.TB, dev *hw.Device, v Variant, board *workload.Board) *System {
	t.Helper()
	return buildSystemTraced(t, dev, v, board, nil)
}

// buildSystemTraced is buildSystem recording into log (nil: untraced).
func buildSystemTraced(t testing.TB, dev *hw.Device, v Variant, board *workload.Board, log *trace.Log) *System {
	t.Helper()
	pm := perfFor(t, dev)
	g, c := DefaultExecutors(dev)
	cfg := Config{Device: dev, Variant: v, GPUExecutors: g, CPUExecutors: c, Perf: pm, Trace: log}
	if v.row().single {
		cfg.Alloc = SambaAllocation(dev, pm)
	} else {
		cfg.Alloc = CasualAllocation(dev, pm, g, c)
	}
	s, err := NewSystem(cfg, board.Model)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// picksOf is the assignment sequence of the last stream a traced system
// served, derived from its trace.
func picksOf(t testing.TB, s *System) []int {
	t.Helper()
	picks, err := TracedPicks(s.cfg.Trace, s.Queues())
	if err != nil {
		t.Fatal(err)
	}
	return picks
}

func smallTask(board *workload.Board, n int) workload.Task {
	return workload.Task{Name: "small", Board: board, N: n, ArrivalPeriod: workload.DefaultArrivalPeriod, Seed: 99}
}

func TestSystemCompletesSmallTask(t *testing.T) {
	board := boardFor(t, workload.BoardA())
	for _, v := range Variants() {
		v := v
		t.Run(v.String(), func(t *testing.T) {
			s := buildSystem(t, hw.NUMADevice(), v, board)
			rep, err := s.RunTask(smallTask(board, 200))
			if err != nil {
				t.Fatal(err)
			}
			if rep.Completions != 200 {
				t.Errorf("completions = %d, want 200", rep.Completions)
			}
			if rep.Throughput <= 0 {
				t.Error("throughput not positive")
			}
			// Conservation: per-executor processed stages must cover all
			// requests (first stages) plus second stages.
			var processed int64
			for _, ex := range rep.PerExecutor {
				processed += ex.Processed
			}
			if processed < rep.Completions {
				t.Errorf("stages processed %d < completions %d", processed, rep.Completions)
			}
		})
	}
}

func TestSystemRunsOnBothDevices(t *testing.T) {
	board := boardFor(t, workload.BoardA())
	for _, dev := range []*hw.Device{hw.NUMADevice(), hw.UMADevice()} {
		s := buildSystem(t, dev, CoServe, board)
		rep, err := s.RunTask(smallTask(board, 150))
		if err != nil {
			t.Fatalf("%s: %v", dev.Name, err)
		}
		if rep.Completions != 150 {
			t.Errorf("%s: completions = %d", dev.Name, rep.Completions)
		}
	}
}

func TestSystemDeterministic(t *testing.T) {
	board := boardFor(t, workload.BoardA())
	run := func() (*Report, []int) {
		s := buildSystemTraced(t, hw.NUMADevice(), CoServe, board, trace.New())
		rep, err := s.RunTask(smallTask(board, 200))
		if err != nil {
			t.Fatal(err)
		}
		return rep, picksOf(t, s)
	}
	a, aPicks := run()
	b, bPicks := run()
	if a.Throughput != b.Throughput || a.Switches != b.Switches || a.Makespan != b.Makespan {
		t.Errorf("nondeterministic: %v/%v vs %v/%v", a.Throughput, a.Switches, b.Throughput, b.Switches)
	}
	for i := range aPicks {
		if aPicks[i] != bPicks[i] {
			t.Fatalf("pick %d differs", i)
		}
	}
}

func TestCoServeBeatsSambaOnThroughput(t *testing.T) {
	board := boardFor(t, workload.BoardA())
	task := smallTask(board, 400)
	samba := buildSystem(t, hw.NUMADevice(), Samba, board)
	sambaRep, err := samba.RunTask(task)
	if err != nil {
		t.Fatal(err)
	}
	cosrv := buildSystem(t, hw.NUMADevice(), CoServe, board)
	cosrvRep, err := cosrv.RunTask(task)
	if err != nil {
		t.Fatal(err)
	}
	if cosrvRep.Throughput <= sambaRep.Throughput {
		t.Errorf("CoServe %.2f img/s not above Samba %.2f img/s",
			cosrvRep.Throughput, sambaRep.Throughput)
	}
	if cosrvRep.Switches >= sambaRep.Switches {
		t.Errorf("CoServe switches %d not below Samba %d",
			cosrvRep.Switches, sambaRep.Switches)
	}
}

func TestPreschedReplayServesOnlyOneStream(t *testing.T) {
	// A replay system reissues one recorded pick sequence; a second
	// stream must be rejected cleanly, not run the replay off its end.
	board := boardFor(t, workload.BoardA())
	online := buildSystemTraced(t, hw.NUMADevice(), CoServe, board, trace.New())
	if _, err := online.RunTask(smallTask(board, 100)); err != nil {
		t.Fatal(err)
	}
	pm := perfFor(t, hw.NUMADevice())
	g, c := DefaultExecutors(hw.NUMADevice())
	cfg := Config{
		Device: hw.NUMADevice(), Variant: CoServe,
		GPUExecutors: g, CPUExecutors: c,
		Alloc: CasualAllocation(hw.NUMADevice(), pm, g, c),
		Perf:  pm, PreschedPicks: picksOf(t, online),
	}
	replay, err := NewSystem(cfg, board.Model)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := replay.RunTask(smallTask(board, 100)); err != nil {
		t.Fatal(err)
	}
	if _, err := replay.RunTask(smallTask(board, 100)); err == nil {
		t.Error("second stream on a replay system accepted")
	}
}

func TestPreschedReplayMatchesOnlineOrder(t *testing.T) {
	board := boardFor(t, workload.BoardA())
	online := buildSystemTraced(t, hw.NUMADevice(), CoServe, board, trace.New())
	onlineRep, err := online.RunTask(smallTask(board, 200))
	if err != nil {
		t.Fatal(err)
	}
	pm := perfFor(t, hw.NUMADevice())
	g, c := DefaultExecutors(hw.NUMADevice())
	cfg := Config{
		Device: hw.NUMADevice(), Variant: CoServe,
		GPUExecutors: g, CPUExecutors: c,
		Alloc: CasualAllocation(hw.NUMADevice(), pm, g, c),
		Perf:  pm, PreschedPicks: picksOf(t, online),
	}
	replay, err := NewSystem(cfg, board.Model)
	if err != nil {
		t.Fatal(err)
	}
	replayRep, err := replay.RunTask(smallTask(board, 200))
	if err != nil {
		t.Fatal(err)
	}
	if replayRep.SchedOps != 0 {
		t.Errorf("replay recorded %d sched ops, want 0", replayRep.SchedOps)
	}
	// Zero-overhead scheduling in virtual time: identical makespan.
	if replayRep.Makespan != onlineRep.Makespan {
		t.Errorf("replay makespan %v != online %v", replayRep.Makespan, onlineRep.Makespan)
	}
	if replayRep.Switches != onlineRep.Switches {
		t.Errorf("replay switches %d != online %d", replayRep.Switches, onlineRep.Switches)
	}
}

// TestTracedPicks: the picks of a warm-restarted system's trace are its
// last stream's assignments, one per KindAssign event after the last
// stream mark; a log that names a queue the system does not have is
// refused.
func TestTracedPicks(t *testing.T) {
	board := boardFor(t, workload.BoardA())
	log := trace.New()
	s := buildSystemTraced(t, hw.NUMADevice(), CoServe, board, log)
	for _, n := range []int{150, 60} {
		if _, err := s.RunTask(smallTask(board, n)); err != nil {
			t.Fatal(err)
		}
	}
	var want []string
	for _, ev := range log.Events() {
		switch ev.Kind {
		case trace.KindStream:
			want = want[:0]
		case trace.KindAssign:
			want = append(want, ev.Actor)
		}
	}
	if streams := countKind(log, trace.KindStream); streams != 2 {
		t.Fatalf("trace holds %d streams, want 2", streams)
	}
	picks := picksOf(t, s)
	if len(picks) != len(want) || len(picks) < 60 {
		t.Fatalf("%d picks, want the last stream's %d assignments (at least 60)", len(picks), len(want))
	}
	for i, q := range picks {
		if s.Queues()[q].Name() != want[i] {
			t.Fatalf("pick %d is queue %s, want %s", i, s.Queues()[q].Name(), want[i])
		}
	}

	if _, err := TracedPicks(log, s.Queues()[:1]); err == nil {
		t.Error("picks naming a queue outside the given set accepted")
	}
}

func TestSystemRejectsBadConfigs(t *testing.T) {
	board := boardFor(t, workload.BoardA())
	pm := perfFor(t, hw.NUMADevice())
	bad := []Config{
		{},
		{Device: hw.NUMADevice()},
		// A zero Alloc would resolve to the default layout; this one is
		// explicit and leaves no activation memory.
		{Device: hw.NUMADevice(), GPUExecutors: 1, Perf: pm,
			Alloc: Allocation{GPUExpertBytes: 4 << 30}},
		{Device: hw.NUMADevice(), GPUExecutors: 1, Perf: pm,
			Alloc: Allocation{GPUExpertBytes: 1, GPUActBytes: 1 << 30}},
		// No reference-architecture profile: no default layout to resolve.
		{Device: hw.NUMADevice(), Perf: model.PerfMatrix{}},
		// Over-committed GPU memory.
		{Device: hw.NUMADevice(), GPUExecutors: 1, Perf: pm,
			Alloc: Allocation{GPUExpertBytes: 11 << 30, GPUActBytes: 11 << 30}},
	}
	// Windows below the floor, with and without a control loop.
	g, c := DefaultExecutors(hw.NUMADevice())
	ok := Config{Device: hw.NUMADevice(), GPUExecutors: g, CPUExecutors: c, Perf: pm,
		Alloc: CasualAllocation(hw.NUMADevice(), pm, g, c)}
	scaler, err := control.NewHysteresisScaler(0.3, 0.85)
	if err != nil {
		t.Fatal(err)
	}
	for _, as := range []control.Autoscaler{nil, scaler} {
		cfg := ok
		cfg.Window, cfg.Autoscaler = MinWindow/10, as
		bad = append(bad, cfg)
	}
	// A variant outside the table, on either side.
	for _, v := range []Variant{-1, Variant(len(Variants()))} {
		cfg := ok
		cfg.Variant = v
		bad = append(bad, cfg)
	}
	if _, err := NewSystem(ok, board.Model); err != nil {
		t.Fatalf("window-floor base config rejected: %v", err)
	}
	for i, cfg := range bad {
		if _, err := NewSystem(cfg, board.Model); err == nil {
			t.Errorf("bad config %d accepted", i)
		}
	}
}

func TestRunTaskRepeatable(t *testing.T) {
	// The serving lifecycle allows consecutive tasks on one System; both
	// runs must fully complete and report independently.
	board := boardFor(t, workload.BoardA())
	s := buildSystem(t, hw.NUMADevice(), CoServe, board)
	r1, err := s.RunTask(smallTask(board, 50))
	if err != nil {
		t.Fatal(err)
	}
	r2, err := s.RunTask(smallTask(board, 50))
	if err != nil {
		t.Fatal(err)
	}
	if r1.Completions != 50 || r2.Completions != 50 {
		t.Errorf("completions = %d, %d; want 50, 50", r1.Completions, r2.Completions)
	}
	if s.Runs() != 2 {
		t.Errorf("Runs() = %d, want 2", s.Runs())
	}
}

func TestVariantStrings(t *testing.T) {
	for _, v := range Variants() {
		if v.String() == "" {
			t.Errorf("variant %d has empty name", int(v))
		}
	}
	if Variant(99).String() == "" {
		t.Error("unknown variant string empty")
	}
}

// TestPreloadPlanOverridesUsageOrder: a Config.Preload list replaces
// the §4.1 descending-usage initialization with exactly the planned
// experts, and an empty non-nil plan preloads nothing.
func TestPreloadPlanOverridesUsageOrder(t *testing.T) {
	board := boardFor(t, workload.BoardA())
	pm := perfFor(t, hw.NUMADevice())
	g, c := DefaultExecutors(hw.NUMADevice())
	base := Config{
		Device: hw.NUMADevice(), Variant: CoServe,
		GPUExecutors: g, CPUExecutors: c,
		Alloc: CasualAllocation(hw.NUMADevice(), pm, g, c), Perf: pm,
	}

	plan := base
	plan.Preload = []coe.ExpertID{5, 9, 13}
	s, err := NewSystem(plan, board.Model)
	if err != nil {
		t.Fatal(err)
	}
	if got := s.LoadedExperts(); got != 3 {
		t.Errorf("planned preload loaded %d experts, want 3", got)
	}
	tally := residency(t, s, board.Model.NumExperts())
	for _, id := range plan.Preload {
		if tally[id] == 0 {
			t.Errorf("planned expert %d not resident", id)
		}
	}

	empty := base
	empty.Preload = []coe.ExpertID{}
	s2, err := NewSystem(empty, board.Model)
	if err != nil {
		t.Fatal(err)
	}
	if got := s2.LoadedExperts(); got != 0 {
		t.Errorf("empty plan preloaded %d experts, want 0", got)
	}

	bad := base
	bad.Preload = []coe.ExpertID{coe.ExpertID(board.Model.NumExperts())}
	if _, err := NewSystem(bad, board.Model); err == nil {
		t.Error("NewSystem accepted an out-of-range preload plan")
	}

	// Default (nil) stays the usage-order initialization: the hottest
	// expert must be resident.
	s3, err := NewSystem(base, board.Model)
	if err != nil {
		t.Fatal(err)
	}
	hottest := board.Model.ExpertsByUsage()[0]
	if residency(t, s3, board.Model.NumExperts())[hottest.ID] == 0 {
		t.Error("default initialization left the hottest expert out")
	}
}

// residency returns the system's residency tally: how many of its pools
// hold each expert.
func residency(t *testing.T, s *System, experts int) []uint8 {
	t.Helper()
	cells, holders := make([]uint8, experts), memory.NewResidency(1, experts)
	for _, pl := range s.Pools() {
		pl.TrackResidency(cells, holders, holders.Slot(0))
	}
	return cells
}

// TestConfigIDPrefixesNames: a node ID namespaces executor and pool
// names; an empty ID leaves them untouched.
func TestConfigIDPrefixesNames(t *testing.T) {
	board := boardFor(t, workload.BoardA())
	s := buildSystem(t, hw.NUMADevice(), CoServe, board)
	if got := s.Queues()[0].Name(); got != "gpu0" {
		t.Errorf("unprefixed queue named %q, want gpu0", got)
	}
	pm := perfFor(t, hw.NUMADevice())
	g, c := DefaultExecutors(hw.NUMADevice())
	cfg := Config{
		Device: hw.NUMADevice(), Variant: CoServe, ID: "node7",
		GPUExecutors: g, CPUExecutors: c,
		Alloc: CasualAllocation(hw.NUMADevice(), pm, g, c), Perf: pm,
	}
	s2, err := NewSystem(cfg, board.Model)
	if err != nil {
		t.Fatal(err)
	}
	if got := s2.Queues()[0].Name(); got != "node7/gpu0" {
		t.Errorf("prefixed queue named %q, want node7/gpu0", got)
	}
	if got := s2.Pools()[0].Name(); got != "node7/gpu0" {
		t.Errorf("prefixed pool named %q, want node7/gpu0", got)
	}
}
