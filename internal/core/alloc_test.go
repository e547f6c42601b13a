package core

import (
	"fmt"
	"testing"

	"repro/internal/hw"
	"repro/internal/model"
	"repro/internal/workload"
)

func TestCasualAllocationSplitsNUMA(t *testing.T) {
	dev := hw.NUMADevice()
	pm := perfFor(t, dev)
	a := CasualAllocation(dev, pm, 3, 1)
	// 75%/25% GPU split of usable memory (§5.2).
	usable := a.GPUExpertBytes + a.GPUActBytes
	if ratio := float64(a.GPUExpertBytes) / float64(usable); ratio < 0.74 || ratio > 0.76 {
		t.Errorf("GPU expert share = %.3f, want 0.75", ratio)
	}
	// GPU side must fit under the physical memory with 3 workspaces.
	total := usable + 3*dev.GPU.WorkspaceBytes
	if total > dev.GPUMemBytes {
		t.Errorf("GPU allocation %d exceeds capacity %d", total, dev.GPUMemBytes)
	}
	// CPU side: pool + cache + acts + workspace fits DRAM.
	cpuTotal := a.CPUExpertBytes + a.HostCacheBytes + a.CPUActBytes + dev.CPU.WorkspaceBytes
	if cpuTotal > dev.CPUMemBytes {
		t.Errorf("CPU allocation %d exceeds capacity %d", cpuTotal, dev.CPUMemBytes)
	}
	if a.HostCacheBytes <= 0 || a.CPUExpertBytes <= 0 || a.CPUActBytes <= 0 {
		t.Error("NUMA casual allocation left a CPU-side budget empty")
	}
}

func TestCasualAllocationUMAHasNoCache(t *testing.T) {
	dev := hw.UMADevice()
	pm := perfFor(t, dev)
	a := CasualAllocation(dev, pm, 2, 1)
	if a.HostCacheBytes != 0 {
		t.Error("UMA allocation should not have a host cache (§5.1)")
	}
	total := a.GPUExpertBytes + a.GPUActBytes + a.CPUExpertBytes + a.CPUActBytes +
		dev.OSReserveBytes + 2*dev.GPU.WorkspaceBytes + dev.CPU.WorkspaceBytes
	if total > dev.UnifiedMemBytes {
		t.Errorf("unified allocation %d exceeds %d", total, dev.UnifiedMemBytes)
	}
}

func TestCasualAllocationWithoutCPUExecutors(t *testing.T) {
	dev := hw.NUMADevice()
	pm := perfFor(t, dev)
	a := CasualAllocation(dev, pm, 3, 0)
	if a.CPUExpertBytes != 0 || a.CPUActBytes != 0 {
		t.Error("no CPU executors should mean no CPU pools or activations")
	}
	if a.HostCacheBytes <= 0 {
		t.Error("all spare CPU memory should become cache")
	}
}

func TestAllocationForExpertsSizesGPUPool(t *testing.T) {
	dev := hw.NUMADevice()
	pm := perfFor(t, dev)
	for _, n := range []int{10, 25, 40} {
		a := allocationForExperts(dev, pm, n, 3, 1)
		want := int64(n) * model.ResNet101.WeightBytes()
		if a.GPUExpertBytes != want {
			t.Errorf("n=%d: expert bytes = %d, want %d", n, a.GPUExpertBytes, want)
		}
	}
	// More experts -> less activation memory.
	small := allocationForExperts(dev, pm, 10, 3, 1)
	big := allocationForExperts(dev, pm, 40, 3, 1)
	if big.GPUActBytes >= small.GPUActBytes {
		t.Error("activation budget should shrink as experts grow")
	}
}

func TestMaxGPUExpertsLeavesRoomForOneImage(t *testing.T) {
	for _, dev := range []*hw.Device{hw.NUMADevice(), hw.UMADevice()} {
		pm := perfFor(t, dev)
		n := maxGPUExperts(dev, pm, 3, 1, testArchs)
		if n < 5 {
			t.Fatalf("%s: max experts = %d, implausibly small", dev.Name, n)
		}
		a := allocationForExperts(dev, pm, n, 3, 1)
		var largestAct int64
		for _, arch := range testArchs {
			if act := pm.MustLookup(arch.Name, hw.GPU).ActPerImage; act > largestAct {
				largestAct = act
			}
		}
		if a.GPUActBytes < largestAct {
			t.Errorf("%s: at max experts, act budget %d below one image %d", dev.Name, a.GPUActBytes, largestAct)
		}
	}
}

func TestSambaAllocationUsesWholeGPU(t *testing.T) {
	dev := hw.NUMADevice()
	pm := perfFor(t, dev)
	a := SambaAllocation(dev, pm)
	// Samba reserves exactly a maximum batch of activations; everything
	// else of the single executor's usable GPU memory holds experts.
	p := pm.MustLookup(model.ResNet101.Name, hw.GPU)
	if want := int64(p.MaxBatch) * p.ActPerImage; a.GPUActBytes != want {
		t.Errorf("Samba act reserve = %d, want maxBatch x act = %d", a.GPUActBytes, want)
	}
	usable := dev.GPUMemBytes - dev.GPU.WorkspaceBytes
	if a.GPUExpertBytes != usable-a.GPUActBytes {
		t.Errorf("Samba pool = %d, want usable-act = %d", a.GPUExpertBytes, usable-a.GPUActBytes)
	}
	if a.HostCacheBytes <= 0 {
		t.Error("NUMA Samba uses CPU memory as its cache")
	}
	uma := SambaAllocation(hw.UMADevice(), perfFor(t, hw.UMADevice()))
	if uma.HostCacheBytes != 0 {
		t.Error("UMA Samba loads directly from SSD (§5.1): no cache")
	}
}

func TestDefaultExecutors(t *testing.T) {
	if g, c := DefaultExecutors(hw.NUMADevice()); g != 3 || c != 1 {
		t.Errorf("NUMA default = %dG+%dC, want 3G+1C", g, c)
	}
	if g, c := DefaultExecutors(hw.UMADevice()); g != 2 || c != 1 {
		t.Errorf("UMA default = %dG+%dC, want 2G+1C", g, c)
	}
}

// TestVariantProperties pins every variant's traits per §5.1/§5.3, and
// that an unknown variant has none of them.
func TestVariantProperties(t *testing.T) {
	type traits struct {
		policy, mode, assigner string
		single, shared, cold   bool
	}
	want := map[Variant]traits{
		Samba:         {"lru", "fifo", "sched.Single", true, false, true},
		SambaFIFO:     {"fifo", "fifo", "sched.Single", true, false, true},
		SambaParallel: {"lru", "fifo", "*sched.RoundRobin", false, true, true},
		CoServeNone:   {"fifo", "fifo", "*sched.RoundRobin", false, false, false},
		CoServeEM:     {"dep-aware", "fifo", "*sched.RoundRobin", false, false, false},
		CoServeEMRA:   {"dep-aware", "grouped", "*sched.RoundRobin", false, false, false},
		CoServe:       {"dep-aware", "grouped", "sched.MinMax", false, false, false},
	}
	if len(Variants()) != len(want) {
		t.Fatalf("%d variants, want %d", len(Variants()), len(want))
	}
	for _, v := range Variants() {
		r := v.row()
		got := traits{r.policy.Name(), r.mode.String(), fmt.Sprintf("%T", r.assigner()), r.single, r.shared, r.cold}
		if got != want[v] {
			t.Errorf("%v: traits %+v, want %+v", v, got, want[v])
		}
	}
	if a, b := CoServeEM.row().assigner(), CoServeEM.row().assigner(); a == b {
		t.Error("two systems share one round-robin assigner")
	}
	if r := Variant(len(Variants())).row(); r.policy != nil || r.assigner != nil || r.single || r.shared || r.cold {
		t.Errorf("unknown variant has traits %+v", r)
	}
}

func TestSystemPreloadCoverage(t *testing.T) {
	// CoServe preloads pools to (near) capacity; Samba starts cold.
	board := boardFor(t, workload.BoardA())
	warm := buildSystem(t, hw.NUMADevice(), CoServe, board)
	if warm.LoadedExperts() < 50 {
		t.Errorf("CoServe preloaded only %d experts", warm.LoadedExperts())
	}
	cold := buildSystem(t, hw.NUMADevice(), Samba, board)
	if cold.LoadedExperts() != 0 {
		t.Errorf("Samba preloaded %d experts, want 0", cold.LoadedExperts())
	}
}
