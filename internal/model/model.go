// Package model defines expert model architectures and the analytic cost
// models that stand in for real PyTorch inference: execution latency,
// activation memory footprint, and serialized weight size.
//
// The paper's serving system never inspects model internals — it consumes
// only the profiled performance matrix of each architecture on each
// processor (§4.5): the linear latency coefficients K and B, the maximum
// useful batch size, per-batch memory footprint, and load latency. This
// package is the ground truth those profiles are measured from.
package model

import (
	"fmt"
	"time"

	"repro/internal/hw"
)

// Architecture describes a neural-network architecture. All experts of
// the same architecture share compute cost and size ("experts of the same
// model architecture are profiled only once", §4.5); they differ only in
// weights.
type Architecture struct {
	Name string
	// Params is the parameter count.
	Params int64
	// BytesPerParam is the serialized size of one parameter (4 = FP32).
	BytesPerParam int64
	// GFLOPsPerImage is the compute cost of one forward pass.
	GFLOPsPerImage float64
	// ActBytesPerImage is the baseline activation (intermediate result)
	// memory per batch element, before the processor's ActFactor.
	ActBytesPerImage int64
}

// WeightBytes reports the serialized/loaded size of one expert.
func (a Architecture) WeightBytes() int64 { return a.Params * a.BytesPerParam }

func (a Architecture) String() string { return a.Name }

// Built-in architectures used by the paper's workload (§5.1):
// classification experts are ResNet101; object-detection experts are
// YOLOv5m and YOLOv5l.
var (
	ResNet101 = Architecture{
		Name:             "resnet101",
		Params:           44_549_160,
		BytesPerParam:    4,
		GFLOPsPerImage:   7.8,
		ActBytesPerImage: 89 * hw.MiB,
	}
	YOLOv5m = Architecture{
		Name:             "yolov5m",
		Params:           21_190_557,
		BytesPerParam:    4,
		GFLOPsPerImage:   12.0,
		ActBytesPerImage: 96 * hw.MiB,
	}
	YOLOv5l = Architecture{
		Name:             "yolov5l",
		Params:           46_533_693,
		BytesPerParam:    4,
		GFLOPsPerImage:   27.5,
		ActBytesPerImage: 118 * hw.MiB,
	}
)

// KCoeff reports the marginal per-image execution latency K of the
// architecture on the processor (§4.2: latency = K·n + B).
func KCoeff(a Architecture, p hw.Processor) time.Duration {
	sec := a.GFLOPsPerImage * 1e9 / p.EffFLOPS
	return time.Duration(sec * float64(time.Second))
}

// ExecLatency reports the ground-truth execution latency of a batch of
// the given size:
//
//	K·batch + B + SatPenalty·max(0, batch-SatBatch)²
//
// The quadratic saturation term reproduces the interior average-latency
// optimum of Figure 5.
func ExecLatency(a Architecture, p hw.Processor, batch int) time.Duration {
	if batch < 1 {
		panic(fmt.Sprintf("model: batch %d < 1", batch))
	}
	lat := KCoeff(a, p)*time.Duration(batch) + p.LaunchOverhead
	if excess := batch - p.SatBatch; excess > 0 {
		lat += p.SatPenalty * time.Duration(excess*excess)
	}
	return lat
}

// ExecTable is one processor's ExecLatency with every architecture's K
// coefficient computed once: an executor's per-batch latency is a table
// read and a few integer operations, with no Architecture copied and no
// float divide.
type ExecTable struct {
	k          []time.Duration // KCoeff by architecture index
	launch     time.Duration
	satBatch   int
	satPenalty time.Duration
}

// NewExecTable returns the table of the architectures on the processor,
// indexed like archs.
func NewExecTable(archs []Architecture, p hw.Processor) *ExecTable {
	t := &ExecTable{k: make([]time.Duration, len(archs)), launch: p.LaunchOverhead, satBatch: p.SatBatch, satPenalty: p.SatPenalty}
	for i, a := range archs {
		t.k[i] = KCoeff(a, p)
	}
	return t
}

// Latency reports ExecLatency(archs[a], p, batch) for the table's archs
// and processor.
func (t *ExecTable) Latency(a uint8, batch int) time.Duration {
	if batch < 1 {
		panic(fmt.Sprintf("model: batch %d < 1", batch))
	}
	lat := t.k[a]*time.Duration(batch) + t.launch
	if excess := batch - t.satBatch; excess > 0 {
		lat += t.satPenalty * time.Duration(excess*excess)
	}
	return lat
}

// ActBytes reports the intermediate-result memory a batch occupies on
// the processor (Figure 6).
func ActBytes(a Architecture, p hw.Processor, batch int) int64 {
	if batch < 0 {
		panic(fmt.Sprintf("model: batch %d < 0", batch))
	}
	per := float64(a.ActBytesPerImage) * p.ActFactor
	return int64(per) * int64(batch)
}

// ActBytesPerImage reports the per-image activation footprint on the
// processor.
func ActBytesPerImage(a Architecture, p hw.Processor) int64 {
	return ActBytes(a, p, 1)
}

// Perf is one row of the performance matrix the offline profiler
// produces for an (architecture, processor) pair (§4.5).
type Perf struct {
	Arch Architecture
	Proc hw.Processor
	// K and B are the fitted linear execution-latency coefficients.
	K, B time.Duration
	// MaxBatch is the batch size where average latency plateaus.
	MaxBatch int
	// ActPerImage is the measured per-image activation footprint.
	ActPerImage int64
	// LoadSSD and LoadHost are measured expert load latencies from
	// storage and from host memory.
	LoadSSD, LoadHost time.Duration
}
