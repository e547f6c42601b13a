package core

import (
	"cmp"
	"reflect"
	"slices"
	"testing"

	"repro/internal/hw"
	"repro/internal/profiler"
	"repro/internal/runner"
	"repro/internal/workload"
)

// TestZeroConfigMatchesExplicitDefaults: a config that leaves the
// executor counts and Alloc at zero serves exactly as one that spells
// out the default layout, for every variant on both devices.
func TestZeroConfigMatchesExplicitDefaults(t *testing.T) {
	board := boardFor(t, workload.BoardA())
	task := smallTask(board, 200)
	for _, dev := range []*hw.Device{hw.NUMADevice(), hw.UMADevice()} {
		pm := perfFor(t, dev)
		for _, v := range Variants() {
			g, c := DefaultExecutors(dev)
			explicit := Config{Device: dev, Variant: v, GPUExecutors: g, CPUExecutors: c, Perf: pm,
				Alloc: DefaultAllocation(v, dev, pm, g, c)}
			var reps [2]*Report
			for i, cfg := range []Config{explicit, {Device: dev, Variant: v, Perf: pm}} {
				s, err := NewSystem(cfg, board.Model)
				if err != nil {
					t.Fatalf("%s/%s: %v", dev.Name, v, err)
				}
				if reps[i], err = s.RunTask(task); err != nil {
					t.Fatalf("%s/%s: %v", dev.Name, v, err)
				}
				reps[i].SchedPerOp = 0 // wall clock
			}
			if !reflect.DeepEqual(reps[0], reps[1]) {
				t.Errorf("%s/%s: zero config report differs from the explicit default:\nzero:     %+v\nexplicit: %+v",
					dev.Name, v, reps[1], reps[0])
			}
		}
	}
}

// TestOfflineSearchSameForEveryFanout: the search's result does not
// depend on how its independent probes run — in order, concurrently, or
// in reverse order.
func TestOfflineSearchSameForEveryFanout(t *testing.T) {
	dev := hw.NUMADevice()
	pm := perfFor(t, dev)
	board := boardFor(t, workload.BoardA())
	sample := smallTask(board, 300)
	reversed := func(n int, probe func(int) (float64, error)) ([]float64, error) {
		out := make([]float64, n)
		for i := n - 1; i >= 0; i-- {
			var err error
			if out[i], err = probe(i); err != nil {
				return nil, err
			}
		}
		return out, nil
	}
	parallel := func(n int, probe func(int) (float64, error)) ([]float64, error) {
		return runner.Map(runner.New(4), n, probe)
	}
	want, err := OfflineSearch(dev, pm, sample, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(want.Topology) != 6 || len(want.Window.Points) == 0 {
		t.Fatalf("search measured %d topologies and %d window points, want 6 and some",
			len(want.Topology), len(want.Window.Points))
	}
	// The chosen topology is the best measured one, and its expert
	// budget holds at least three reference experts per GPU executor.
	cfg := want.Config
	best := slices.MaxFunc(want.Topology, func(a, b profiler.TopologyPoint) int {
		return cmp.Compare(a.Throughput, b.Throughput)
	})
	if cfg.GPUExecutors != best.GPUs || cfg.CPUExecutors != best.CPUs {
		t.Errorf("chose %dG+%dC, best measured is %dG+%dC", cfg.GPUExecutors, cfg.CPUExecutors, best.GPUs, best.CPUs)
	}
	if min := int64(3*cfg.GPUExecutors) * referenceArch.WeightBytes(); cfg.Alloc.GPUExpertBytes < min {
		t.Errorf("GPU expert budget %d below the %d floor", cfg.Alloc.GPUExpertBytes, min)
	}
	if _, err := NewSystem(cfg, board.Model); err != nil {
		t.Errorf("chosen config rejected: %v", err)
	}
	for _, fan := range []struct {
		name string
		fan  profiler.Fanout
	}{{"parallel", parallel}, {"reversed", reversed}} {
		got, err := OfflineSearch(dev, pm, sample, fan.fan)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s fan-out: %+v, want %+v", fan.name, got, want)
		}
	}
	if _, err := OfflineSearch(dev, pm, workload.Task{}, nil); err == nil {
		t.Error("a sample task without a board accepted")
	}
}
