package core

import (
	"repro/internal/hw"
	"repro/internal/model"
)

// referenceArch is the architecture allocations are denominated in: the
// paper sizes GPU expert memory in "number of experts loaded", and its
// classification experts are ResNet101.
var referenceArch = model.ResNet101

// gpuUsable reports GPU-visible memory after the OS reserve and the
// per-executor framework workspaces. On UMA the CPU executors' runtime
// comes out of the same unified pool.
func gpuUsable(dev *hw.Device, gpuExecutors, cpuExecutors int) int64 {
	usable := dev.GPUCapacity() - dev.OSReserveBytes - int64(gpuExecutors)*dev.GPU.WorkspaceBytes
	if dev.Mem == hw.UMA {
		usable -= int64(cpuExecutors) * dev.CPU.WorkspaceBytes
	}
	return usable
}

// cpuUsable reports CPU DRAM left after executor workspaces on NUMA
// devices. Even with no CPU executors, one runtime instance (the
// controller and loader) occupies a workspace.
func cpuUsable(dev *hw.Device, cpuExecutors int) int64 {
	n := cpuExecutors
	if n < 1 {
		n = 1
	}
	return dev.CPUMemBytes - int64(n)*dev.CPU.WorkspaceBytes
}

// cpuActReserve applies the §4.4 rule for limited-compute processors:
// reserve exactly the activation memory the maximum batch size needs,
// leaving everything else for experts.
func cpuActReserve(dev *hw.Device, perf model.PerfMatrix, cpuExecutors int) int64 {
	if cpuExecutors == 0 {
		return 0
	}
	p := perf.MustLookup(referenceArch.Name, hw.CPU)
	return int64(cpuExecutors) * int64(p.MaxBatch) * p.ActPerImage
}

// DefaultAllocation resolves the memory layout a variant runs under by
// default: the Samba layout for the single-executor Samba arrangements,
// the casual split otherwise. Resolve applies it to a zero Config.Alloc,
// so a new variant's allocation rule has one home.
func DefaultAllocation(v Variant, dev *hw.Device, perf model.PerfMatrix, gpuExecutors, cpuExecutors int) Allocation {
	if v.row().single {
		return SambaAllocation(dev, perf)
	}
	return CasualAllocation(dev, perf, gpuExecutors, cpuExecutors)
}

// CasualAllocation is the intuitive configuration of §5.2 ("CoServe
// Casual"): 75 % of GPU memory for expert loading, 25 % for batch
// inference, CPU memory split between executor pools and the host cache.
func CasualAllocation(dev *hw.Device, perf model.PerfMatrix, gpuExecutors, cpuExecutors int) Allocation {
	var a Allocation
	switch dev.Mem {
	case hw.NUMA:
		usable := gpuUsable(dev, gpuExecutors, cpuExecutors)
		a.GPUExpertBytes = usable * 3 / 4
		a.GPUActBytes = usable - a.GPUExpertBytes
		remain := cpuUsable(dev, cpuExecutors)
		a.CPUActBytes = cpuActReserve(dev, perf, cpuExecutors)
		remain -= a.CPUActBytes
		if cpuExecutors > 0 {
			a.CPUExpertBytes = remain * 7 / 10
			a.HostCacheBytes = remain - a.CPUExpertBytes
		} else {
			a.HostCacheBytes = remain
		}
	case hw.UMA:
		usable := gpuUsable(dev, gpuExecutors, cpuExecutors)
		a.CPUActBytes = cpuActReserve(dev, perf, cpuExecutors)
		remain := usable - a.CPUActBytes
		if cpuExecutors > 0 {
			a.CPUExpertBytes = remain * 3 / 20
			remain -= a.CPUExpertBytes
		}
		a.GPUExpertBytes = remain * 3 / 4
		a.GPUActBytes = remain - a.GPUExpertBytes
	}
	return a
}

// allocationForExperts sizes the GPU expert budget to hold exactly n
// reference experts (the quantity swept by the §4.4 decay-window search
// and Figure 18's x axis), leaving the rest of GPU memory to batch
// inference. CPU-side budgets follow the casual split.
func allocationForExperts(dev *hw.Device, perf model.PerfMatrix, n int, gpuExecutors, cpuExecutors int) Allocation {
	a := CasualAllocation(dev, perf, gpuExecutors, cpuExecutors)
	usable := gpuUsable(dev, gpuExecutors, cpuExecutors)
	if dev.Mem == hw.UMA {
		usable -= a.CPUExpertBytes + a.CPUActBytes
	}
	a.GPUExpertBytes = int64(n) * referenceArch.WeightBytes()
	a.GPUActBytes = usable - a.GPUExpertBytes
	return a
}

// maxGPUExperts reports the largest n for which allocationForExperts
// still leaves every GPU executor able to run a one-image batch of the
// largest architecture — the upper end of the decay-window sweep.
func maxGPUExperts(dev *hw.Device, perf model.PerfMatrix, gpuExecutors, cpuExecutors int, archs []model.Architecture) int {
	var largestAct int64
	for _, arch := range archs {
		p := perf.MustLookup(arch.Name, hw.GPU)
		if p.ActPerImage > largestAct {
			largestAct = p.ActPerImage
		}
	}
	usable := gpuUsable(dev, gpuExecutors, cpuExecutors)
	if dev.Mem == hw.UMA {
		a := CasualAllocation(dev, perf, gpuExecutors, cpuExecutors)
		usable -= a.CPUExpertBytes + a.CPUActBytes
	}
	n := int((usable - largestAct) / referenceArch.WeightBytes())
	if n < 0 {
		n = 0
	}
	return n
}

// SambaAllocation mirrors the Samba-CoE deployment of §5.1: one
// executor, with the whole GPU (minus a maximum-batch inference
// reservation) holding experts; on NUMA, all remaining CPU memory serves
// as the expert cache.
func SambaAllocation(dev *hw.Device, perf model.PerfMatrix) Allocation {
	var a Allocation
	p := perf.MustLookup(referenceArch.Name, hw.GPU)
	usable := gpuUsable(dev, 1, 0)
	a.GPUActBytes = int64(p.MaxBatch) * p.ActPerImage
	a.GPUExpertBytes = usable - a.GPUActBytes
	if dev.Mem == hw.NUMA {
		a.HostCacheBytes = cpuUsable(dev, 0)
	}
	return a
}

// DefaultExecutors returns the paper's casual executor topology: three
// GPU executors plus one CPU executor on NUMA devices, two plus one on
// UMA (§5.2).
func DefaultExecutors(dev *hw.Device) (gpus, cpus int) {
	if dev.Mem == hw.UMA {
		return 2, 1
	}
	return 3, 1
}
