// Package profiler implements CoServe's offline phase (§4.4–§4.5): it
// measures each architecture's performance matrix on each processor via
// microbenchmarks (execution latency K/B, maximum batch size, memory
// footprint, load latency), searches for the memory allocation with the
// decay-window method, and sweeps executor counts.
//
// The profiler treats the device as a black box: microbenchmarks observe
// the simulated device's batch latencies and the fits are performed on
// the observations, exactly as they would be on hardware.
package profiler

import (
	"fmt"
	"time"

	"repro/internal/hw"
	"repro/internal/memory"
	"repro/internal/model"
	"repro/internal/stats"
	"repro/internal/xfer"
)

// probeMaxBatch is the largest batch size microbenchmarks try.
const probeMaxBatch = 64

// plateauEps is the relative average-latency improvement below which the
// processor counts as saturated ("the average latency plateaus", §4.5).
const plateauEps = 0.005

// BatchPoint is one microbenchmark observation (the raw data behind
// Figures 5, 6, and 12).
type BatchPoint struct {
	Batch     int
	Exec      time.Duration // execution latency of the whole batch
	Avg       time.Duration // Exec / Batch
	Footprint int64         // activation bytes of the batch
}

// BatchSweep runs the batch-size microbenchmark for an architecture on a
// processor kind, recording each batch size's execution latency — the
// virtual time one batch occupies the processor — and memory footprint.
func BatchSweep(dev *hw.Device, arch model.Architecture, kind hw.ProcKind, maxBatch int) []BatchPoint {
	proc := dev.Proc(kind)
	points := make([]BatchPoint, 0, maxBatch)
	for n := 1; n <= maxBatch; n++ {
		exec := model.ExecLatency(arch, proc, n)
		points = append(points, BatchPoint{
			Batch:     n,
			Exec:      exec,
			Avg:       exec / time.Duration(n),
			Footprint: model.ActBytes(arch, proc, n),
		})
	}
	return points
}

// maxBatchOf finds the batch size where average latency plateaus: the
// last batch whose successor improves the average by less than
// plateauEps (or worsens it).
func maxBatchOf(points []BatchPoint) int {
	for i := 0; i+1 < len(points); i++ {
		cur, next := float64(points[i].Avg), float64(points[i+1].Avg)
		if next >= cur*(1-plateauEps) {
			return points[i].Batch
		}
	}
	return points[len(points)-1].Batch
}

// Measure profiles one architecture on one processor kind: the linear
// execution coefficients K and B (fit over the pre-plateau region), the
// maximum batch size, per-image footprint, and load latencies from SSD
// and host memory.
func Measure(dev *hw.Device, arch model.Architecture, kind hw.ProcKind) (model.Perf, error) {
	points := BatchSweep(dev, arch, kind, probeMaxBatch)
	maxBatch := maxBatchOf(points)

	xs := make([]float64, 0, maxBatch)
	ys := make([]float64, 0, maxBatch)
	for _, pt := range points[:maxBatch] {
		xs = append(xs, float64(pt.Batch))
		ys = append(ys, float64(pt.Exec))
	}
	fit, err := stats.FitLine(xs, ys)
	if err != nil {
		return model.Perf{}, fmt.Errorf("profiler: fitting %s on %s: %w", arch.Name, kind, err)
	}

	tier := memory.TierGPU
	if kind == hw.CPU {
		tier = memory.TierCPU
	}
	return model.Perf{
		Arch:        arch,
		Proc:        dev.Proc(kind),
		K:           time.Duration(fit.K),
		B:           time.Duration(fit.B),
		MaxBatch:    maxBatch,
		ActPerImage: model.ActBytesPerImage(arch, dev.Proc(kind)),
		LoadSSD:     xfer.LoadLatency(dev, xfer.FromSSD, tier, arch.WeightBytes()),
		LoadHost:    xfer.LoadLatency(dev, xfer.FromHost, tier, arch.WeightBytes()),
	}, nil
}

// Matrix profiles every architecture on both processor kinds. Experts
// sharing an architecture are profiled once (§4.5).
func Matrix(dev *hw.Device, archs []model.Architecture) (model.PerfMatrix, error) {
	pm := make(model.PerfMatrix, 2*len(archs))
	for _, arch := range archs {
		for _, kind := range []hw.ProcKind{hw.GPU, hw.CPU} {
			p, err := Measure(dev, arch, kind)
			if err != nil {
				return nil, err
			}
			pm.Put(arch, kind, p)
		}
	}
	return pm, nil
}
