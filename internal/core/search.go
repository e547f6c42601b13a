package core

import (
	"fmt"

	"repro/internal/hw"
	"repro/internal/model"
	"repro/internal/profiler"
	"repro/internal/workload"
)

// OfflineResult is the outcome of the §4.4 offline configuration search.
type OfflineResult struct {
	// Topology is Figure 17's executor-count sweep: 1–5 GPU executors
	// with one CPU executor, then the best of those GPU counts with two.
	Topology []profiler.TopologyPoint
	// Window is Figure 18's decay-window memory search on the best
	// topology.
	Window profiler.SearchResult
	// Config is the chosen full-CoServe configuration: the best
	// topology, with its GPU expert budget sized to the selected expert
	// count.
	Config Config
}

// OfflineSearch runs CoServe's offline configuration search (§4.4–§4.5)
// by serving the sample task under candidate configurations. It sweeps
// 1–5 GPU executors with one CPU executor on the default memory layout,
// probes the best GPU count with two CPU executors, and keeps the best
// of all six topologies (ties keep the earlier). On that topology the
// decay-window search sizes the GPU expert budget in reference experts
// (the CPU side keeps the casual split), up to the largest budget that
// still fits a one-image batch of the model's largest architecture. Every GPU pool must hold two of the
// largest experts (one pinned, one coming in), so each window probe and
// the selection are floored at three reference experts per GPU
// executor.
//
// The five one-CPU topologies are independent and run through fan (nil
// runs them in order); every later probe depends on earlier results and
// runs in sequence. The result is the same for every fan.
func OfflineSearch(dev *hw.Device, perf model.PerfMatrix, sample workload.Task, fan profiler.Fanout) (OfflineResult, error) {
	if sample.Board == nil {
		return OfflineResult{}, fmt.Errorf("core: offline search needs a sample task with a board")
	}
	m := sample.Board.Model
	measure := func(cfg Config) (float64, error) {
		cfg.Device, cfg.Variant, cfg.Perf = dev, CoServe, perf
		sys, err := NewSystem(cfg, m)
		if err != nil {
			return 0, err
		}
		rep, err := sys.RunTask(sample)
		if err != nil {
			return 0, err
		}
		return rep.Throughput, nil
	}
	topology := func(g, c int) (float64, error) {
		return measure(Config{GPUExecutors: g, CPUExecutors: c})
	}
	points, best, err := profiler.TopologySweep([][2]int{{1, 1}, {2, 1}, {3, 1}, {4, 1}, {5, 1}}, fan, topology)
	if err != nil {
		return OfflineResult{}, err
	}
	probe, _, err := profiler.TopologySweep([][2]int{{points[best].GPUs, 2}}, nil, topology)
	if err != nil {
		return OfflineResult{}, err
	}
	chosen := points[best]
	if probe[0].Throughput > chosen.Throughput {
		chosen = probe[0]
	}
	points = append(points, probe[0])

	g, c := chosen.GPUs, chosen.CPUs
	archs, _ := m.Archs()
	floor := 3 * g
	window, err := profiler.DecayWindow(profiler.DefaultSearchParams(maxGPUExperts(dev, perf, g, c, archs)),
		func(n int) (float64, error) {
			return measure(Config{GPUExecutors: g, CPUExecutors: c,
				Alloc: allocationForExperts(dev, perf, max(n, floor), g, c)})
		})
	if err != nil {
		return OfflineResult{}, err
	}
	return OfflineResult{
		Topology: points,
		Window:   window,
		Config: Config{
			Device: dev, Variant: CoServe, Perf: perf, GPUExecutors: g, CPUExecutors: c,
			Alloc: allocationForExperts(dev, perf, max(window.Selected, floor), g, c),
		},
	}, nil
}
