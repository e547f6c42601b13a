// Package hw describes the evaluation devices of the paper's Table 1 as
// parameterized cost profiles: memory capacities, transfer bandwidths,
// and per-processor compute characteristics.
//
// The profiles are calibrated so the analytic cost models in
// internal/model land where the paper's measurements do: expert loading
// dominated by read + framework deserialization (~1 s per ResNet101-class
// expert, >90 % of inference time from SSD, Figure 1), batched execution
// latency K·n + B with an interior average-latency optimum on weaker
// processors (Figures 5 and 12), and activation footprints of a few
// hundred MB per batch element (Figure 6).
package hw

import (
	"fmt"
	"time"
)

// MemArch is a device memory architecture.
type MemArch int

const (
	// NUMA devices have discrete GPU memory and CPU DRAM joined by PCIe.
	NUMA MemArch = iota
	// UMA devices share one physical memory between CPU and GPU.
	UMA
)

func (m MemArch) String() string {
	switch m {
	case NUMA:
		return "NUMA"
	case UMA:
		return "UMA"
	default:
		return fmt.Sprintf("MemArch(%d)", int(m))
	}
}

// ProcKind distinguishes processor types on a device.
type ProcKind int

const (
	GPU ProcKind = iota
	CPU
)

func (k ProcKind) String() string {
	switch k {
	case GPU:
		return "GPU"
	case CPU:
		return "CPU"
	default:
		return fmt.Sprintf("ProcKind(%d)", int(k))
	}
}

// Byte-size helpers.
const (
	MiB int64 = 1 << 20
	GiB int64 = 1 << 30
)

// Processor models the execution characteristics of a GPU or CPU.
//
// Execution latency of a batch of n images of an architecture with f
// GFLOPs per image is
//
//	lat(n) = K·n + B + SatPenalty·max(0, n-SatBatch)²
//
// where K = f / EffFLOPS and B = LaunchOverhead. The quadratic term
// models the saturation that produces the interior average-latency
// optimum of the paper's Figure 5 (§3.3).
type Processor struct {
	Name string
	Kind ProcKind
	// EffFLOPS is the sustained FLOP/s this processor delivers on
	// convolutional inference (well below peak; calibrated to Figure 12).
	EffFLOPS float64
	// LaunchOverhead is the fixed per-batch cost B (kernel launches,
	// framework dispatch).
	LaunchOverhead time.Duration
	// SatBatch is the batch size beyond which the processor saturates.
	SatBatch int
	// SatPenalty is the quadratic latency penalty coefficient applied
	// per squared image beyond SatBatch.
	SatPenalty time.Duration
	// ActFactor scales an architecture's baseline per-image activation
	// bytes; frameworks organize intermediate data differently per
	// processor (§3.3).
	ActFactor float64
	// WorkspaceBytes is the framework/allocator reservation each
	// executor on this processor holds (a separate CUDA context or
	// runtime instance per executor) — the per-executor overhead that
	// makes very large executor counts counterproductive (Figure 17).
	WorkspaceBytes int64
}

// Device is a complete evaluation platform (one row set of Table 1).
type Device struct {
	Name string
	Mem  MemArch
	GPU  Processor
	CPU  Processor

	// GPUMemBytes and CPUMemBytes describe discrete memories on NUMA
	// devices. UnifiedMemBytes describes the single shared memory of a
	// UMA device (GPUMemBytes/CPUMemBytes are zero there).
	GPUMemBytes     int64
	CPUMemBytes     int64
	UnifiedMemBytes int64

	// SSDName and SSDReadBW (bytes/s) describe the storage tier.
	SSDName   string
	SSDReadBW float64
	// DeserBW (bytes/s) is the framework deserialization rate when
	// loading a serialized expert from storage; in practice it, not raw
	// SSD bandwidth, dominates expert switching (§1, Figure 1 analysis).
	DeserBW float64
	// PCIeBW (bytes/s) is the host-to-GPU copy rate on NUMA devices.
	PCIeBW float64
	// ReorgBW (bytes/s) is the CPU-to-GPU data-reorganization rate on
	// UMA devices ("possibly due to data reorganization by AI
	// frameworks", §1).
	ReorgBW float64
	// LoadFixed is the fixed per-load overhead (file open, allocator).
	LoadFixed time.Duration
	// LoadStreams is the number of expert loads (read + deserialize)
	// the device sustains concurrently; deserialization is single-
	// threaded per load but multicore hosts overlap a couple of loads.
	LoadStreams int
	// OSReserveBytes is memory the OS keeps away from executors
	// entirely (wired memory and the GPU working-set cap on UMA
	// devices; zero for discrete GPUs).
	OSReserveBytes int64
}

// LoadConcurrency reports the number of concurrent load streams: the
// configured LoadStreams, defaulting to 1.
func (d *Device) LoadConcurrency() int { return max(d.LoadStreams, 1) }

// Proc returns the processor of the given kind.
func (d *Device) Proc(kind ProcKind) Processor {
	if kind == GPU {
		return d.GPU
	}
	return d.CPU
}

// GPUCapacity reports the memory visible to GPU executors: discrete GPU
// memory on NUMA, the unified pool on UMA.
func (d *Device) GPUCapacity() int64 {
	if d.Mem == UMA {
		return d.UnifiedMemBytes
	}
	return d.GPUMemBytes
}

// CPUCapacity reports the memory visible to CPU executors: discrete DRAM
// on NUMA, the unified pool on UMA.
func (d *Device) CPUCapacity() int64 {
	if d.Mem == UMA {
		return d.UnifiedMemBytes
	}
	return d.CPUMemBytes
}

// Validate checks internal consistency of the profile.
func (d *Device) Validate() error {
	switch d.Mem {
	case NUMA:
		if d.GPUMemBytes <= 0 || d.CPUMemBytes <= 0 {
			return fmt.Errorf("hw: NUMA device %q needs discrete GPU and CPU memory", d.Name)
		}
		if d.PCIeBW <= 0 {
			return fmt.Errorf("hw: NUMA device %q needs PCIe bandwidth", d.Name)
		}
	case UMA:
		if d.UnifiedMemBytes <= 0 {
			return fmt.Errorf("hw: UMA device %q needs unified memory", d.Name)
		}
		if d.ReorgBW <= 0 {
			return fmt.Errorf("hw: UMA device %q needs reorganization bandwidth", d.Name)
		}
	default:
		return fmt.Errorf("hw: device %q has unknown memory architecture", d.Name)
	}
	if d.SSDReadBW <= 0 || d.DeserBW <= 0 {
		return fmt.Errorf("hw: device %q needs SSD and deserialization bandwidth", d.Name)
	}
	for _, p := range []Processor{d.GPU, d.CPU} {
		if p.EffFLOPS <= 0 {
			return fmt.Errorf("hw: processor %q needs positive EffFLOPS", p.Name)
		}
		if p.SatBatch < 1 {
			return fmt.Errorf("hw: processor %q needs SatBatch >= 1", p.Name)
		}
		if p.ActFactor <= 0 {
			return fmt.Errorf("hw: processor %q needs positive ActFactor", p.Name)
		}
	}
	return nil
}

// NUMADevice returns the paper's NUMA platform: NVIDIA RTX 3080 Ti
// (12 GB) + Intel Xeon Silver 4214R (16 GB DRAM) + MICRON 530 MB/s SSD.
func NUMADevice() *Device {
	return &Device{
		Name: "numa-rtx3080ti",
		Mem:  NUMA,
		GPU: Processor{
			Name:           "NVIDIA RTX3080Ti",
			Kind:           GPU,
			EffFLOPS:       4.3e12,
			LaunchOverhead: 5 * time.Millisecond,
			SatBatch:       24,
			SatPenalty:     150 * time.Microsecond,
			ActFactor:      3.0,
			WorkspaceBytes: 1152 * MiB,
		},
		CPU: Processor{
			Name:           "Intel Xeon Silver 4214R",
			Kind:           CPU,
			EffFLOPS:       0.22e12,
			LaunchOverhead: 110 * time.Millisecond,
			SatBatch:       5,
			SatPenalty:     6 * time.Millisecond,
			ActFactor:      2.0,
			WorkspaceBytes: 1536 * MiB,
		},
		GPUMemBytes: 12 * GiB,
		CPUMemBytes: 16 * GiB,
		SSDName:     "MICRON MTFD-DAK480TDS",
		SSDReadBW:   530e6,
		DeserBW:     250e6,
		// Effective host-to-GPU expert transfer rate. This is far below
		// raw PCIe bandwidth because a framework "switch" rebuilds the
		// module on device (allocation, layout reorganization, Python
		// overhead), which Figure 1 shows dominating even the CPU→GPU
		// path.
		PCIeBW:      0.45e9,
		LoadFixed:   5 * time.Millisecond,
		LoadStreams: 4,
	}
}

// UMADevice returns the paper's UMA platform: Apple M2 with 24 GB
// unified memory and a ~3000 MB/s SSD.
func UMADevice() *Device {
	return &Device{
		Name: "uma-apple-m2",
		Mem:  UMA,
		GPU: Processor{
			Name:           "Apple M2 GPU",
			Kind:           GPU,
			EffFLOPS:       1.5e12,
			LaunchOverhead: 4 * time.Millisecond,
			SatBatch:       6,
			SatPenalty:     600 * time.Microsecond,
			ActFactor:      1.5,
			WorkspaceBytes: 1280 * MiB,
		},
		CPU: Processor{
			Name:           "Apple M2 CPU",
			Kind:           CPU,
			EffFLOPS:       0.35e12,
			LaunchOverhead: 60 * time.Millisecond,
			SatBatch:       5,
			SatPenalty:     6 * time.Millisecond,
			ActFactor:      1.2,
			WorkspaceBytes: 1280 * MiB,
		},
		UnifiedMemBytes: 24 * GiB,
		SSDName:         "APPLE SSD AP0512Z",
		SSDReadBW:       3000e6,
		DeserBW:         190e6,
		// Effective CPU→GPU reorganization rate on unified memory;
		// §1 attributes this cost to framework data reorganization.
		ReorgBW:     0.9e9,
		LoadFixed:   5 * time.Millisecond,
		LoadStreams: 4,
		// macOS wires a large share of unified memory and caps the GPU
		// working set well below the physical 24 GB.
		OSReserveBytes: 7 * GiB,
	}
}

// Devices returns the built-in device profiles keyed by name.
func Devices() map[string]*Device {
	numa, uma := NUMADevice(), UMADevice()
	return map[string]*Device{
		numa.Name: numa,
		uma.Name:  uma,
	}
}

// ByName looks up a built-in device profile; the short aliases "numa"
// and "uma" are accepted.
func ByName(name string) (*Device, error) {
	switch name {
	case "numa":
		return NUMADevice(), nil
	case "uma":
		return UMADevice(), nil
	}
	if d, ok := Devices()[name]; ok {
		return d, nil
	}
	return nil, fmt.Errorf("hw: unknown device %q", name)
}
