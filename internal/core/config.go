// Package core assembles CoServe and its baselines: the inference
// controller, executor creation, expert initialization (§4.1), and the
// system variants evaluated in §5 — Samba-CoE, Samba-CoE FIFO, Samba-CoE
// Parallel, and the CoServe ablations (None / EM / EM+RA / full).
package core

import (
	"fmt"
	"time"

	"repro/internal/coe"
	"repro/internal/control"
	"repro/internal/hw"
	"repro/internal/model"
	"repro/internal/pool"
	"repro/internal/sched"
	"repro/internal/trace"
)

// DefaultControlWindow is the control-plane interval used when an
// Autoscaler is configured without an explicit Window: the width of the
// windowed metrics series and the autoscaler's decision cadence.
const DefaultControlWindow = 250 * time.Millisecond

// MinWindow is the narrowest windowed-metrics, control or health
// interval any layer accepts: the windowed series grows one bucket per
// window of makespan and a control loop wakes once per window, so a
// nanosecond window exhausts memory or never finishes.
const MinWindow = time.Millisecond

// Variant selects a serving system design.
type Variant int

const (
	// Samba is the Samba-CoE baseline: one GPU executor, FCFS request
	// handling, LRU expert replacement, tiered CPU cache on NUMA (§5.1).
	Samba Variant = iota
	// SambaFIFO is Samba with FIFO expert replacement.
	SambaFIFO
	// SambaParallel is Samba with CoServe's executor count and
	// round-robin request distribution.
	SambaParallel
	// CoServeNone is CoServe with all optimizations off: FIFO eviction,
	// FIFO arrival-order queues, round-robin distribution (§5.3).
	CoServeNone
	// CoServeEM adds dependency-aware expert management.
	CoServeEM
	// CoServeEMRA adds request arranging on top of CoServeEM.
	CoServeEMRA
	// CoServe is the full system: expert management, request arranging,
	// and dependency-aware request assigning.
	CoServe
)

// variant is one serving system design's row of the variants table.
type variant struct {
	name string
	// policy is the eviction policy and mode the request-arranging mode.
	policy pool.Policy
	mode   sched.Mode
	// assigner returns a fresh request assigner: round-robin keeps a
	// cursor, so every system gets its own.
	assigner func() sched.Assigner
	// single pins the topology to one GPU executor (the Samba-CoE serving
	// arrangement), which also runs under SambaAllocation.
	single bool
	// shared gives the executors of one processor one model pool.
	// Samba-CoE Parallel adds executors to Samba's design, whose expert
	// store is a single HBM pool; CoServe gives every executor its own
	// pool (Figure 7).
	shared bool
	// cold starts the system with empty pools. The Samba-CoE baselines
	// manage experts by historical statistics only — they have no
	// pre-assessed usage probabilities to preload by (§2.2, §3.2) — so
	// their tiers warm organically under LRU/FIFO. CoServe's expert
	// initializer (§4.1) is one of its contributions and applies to all
	// CoServe variants, including the ablations.
	cold bool
}

// The assigners: Samba-CoE's one queue; round-robin, by which Samba-CoE
// Parallel and the ablation baselines distribute requests evenly across
// executors in arrival order (§5.1, §5.3); and CoServe's
// dependency-aware assigning.
func newSingle() sched.Assigner     { return sched.Single{} }
func newRoundRobin() sched.Assigner { return &sched.RoundRobin{} }
func newMinMax() sched.Assigner     { return sched.MinMax{} }

// variants holds every Variant's row, in evaluation order.
var variants = [...]variant{
	Samba:         {name: "samba-coe", policy: pool.LRU{}, mode: sched.ModeFIFO, assigner: newSingle, single: true, cold: true},
	SambaFIFO:     {name: "samba-coe-fifo", policy: pool.FIFO{}, mode: sched.ModeFIFO, assigner: newSingle, single: true, cold: true},
	SambaParallel: {name: "samba-coe-parallel", policy: pool.LRU{}, mode: sched.ModeFIFO, assigner: newRoundRobin, shared: true, cold: true},
	CoServeNone:   {name: "coserve-none", policy: pool.FIFO{}, mode: sched.ModeFIFO, assigner: newRoundRobin},
	CoServeEM:     {name: "coserve-em", policy: pool.DepAware{}, mode: sched.ModeFIFO, assigner: newRoundRobin},
	CoServeEMRA:   {name: "coserve-em-ra", policy: pool.DepAware{}, mode: sched.ModeGrouped, assigner: newRoundRobin},
	CoServe:       {name: "coserve", policy: pool.DepAware{}, mode: sched.ModeGrouped, assigner: newMinMax},
}

// known reports whether v names a row of the variants table.
func (v Variant) known() bool { return v >= 0 && int(v) < len(variants) }

// row returns the variant's row; an unknown variant, which validation
// refuses, reads as the zero row.
func (v Variant) row() variant {
	if !v.known() {
		return variant{}
	}
	return variants[v]
}

func (v Variant) String() string {
	if v.known() {
		return variants[v].name
	}
	return fmt.Sprintf("Variant(%d)", int(v))
}

// Variants lists all variants in evaluation order.
func Variants() []Variant {
	vs := make([]Variant, len(variants))
	for i := range vs {
		vs[i] = Variant(i)
	}
	return vs
}

// Allocation divides device memory between expert storage, the host
// cache, and batch intermediate results (§3.3, §4.4). All byte counts
// are totals: per-pool capacities are derived by dividing across
// executors.
type Allocation struct {
	// GPUExpertBytes is the expert-storage budget across all GPU pools.
	GPUExpertBytes int64
	// CPUExpertBytes is the expert-storage budget across all CPU pools.
	CPUExpertBytes int64
	// HostCacheBytes is the NUMA host cache for GPU-evicted experts.
	HostCacheBytes int64
	// GPUActBytes and CPUActBytes budget batch intermediate results.
	GPUActBytes int64
	CPUActBytes int64
}

// Config describes one serving system instance.
type Config struct {
	Device  *hw.Device
	Variant Variant
	// ID, when non-empty, namespaces the system's executor, queue, and
	// pool names ("node0/gpu1") — set by the cluster layer so per-node
	// report rows stay distinguishable. Empty for single systems: names
	// stay exactly "gpu0", "cpu0", ….
	ID string
	// Preload, when non-nil, replaces the §4.1 descending-usage preload
	// order with an explicit expert list — the cluster placement hook.
	// Experts are preloaded round-robin across the system's pools in
	// list order until the pools fill; an empty non-nil slice preloads
	// nothing. Ignored by the cold-start (Samba) variants, which never
	// preload.
	Preload []coe.ExpertID
	// GPUExecutors and CPUExecutors set the topology; both zero means
	// DefaultExecutors. Samba and SambaFIFO override to 1 GPU / 0 CPU.
	GPUExecutors int
	CPUExecutors int
	// Alloc divides device memory; the zero Allocation means
	// DefaultAllocation for the variant and executor counts (Resolve).
	Alloc Allocation
	// Perf is the offline profiler's performance matrix.
	Perf model.PerfMatrix
	// SLO is the per-request end-to-end latency objective reports score
	// attainment against. Zero disables SLO accounting (attainment
	// reports as 1).
	SLO time.Duration
	// PreschedPicks, when non-nil, replays a recorded assignment
	// sequence — global queue indices, one per dispatch — instead of
	// scheduling online (Figure 19's pre-scheduled control). Record it
	// by serving the online run with a Trace and passing the log to
	// TracedPicks.
	PreschedPicks []int
	// Trace, when non-nil, records assignment, switch, batch, and
	// completion events of the run.
	Trace *trace.Log
	// EvictPolicy, when non-nil, overrides the variant's eviction policy
	// (for design-choice ablations such as prob-only vs two-stage).
	EvictPolicy pool.Policy
	// Admission, when non-nil, is the control plane's admission policy:
	// it is consulted once per arriving request and may reject it before
	// it touches a queue. Nil (and control.AcceptAll) admit everything —
	// both are byte-identical to the pre-control-plane behavior.
	Admission control.AdmissionPolicy
	// Autoscaler, when non-nil, resizes the active executor set once per
	// Window based on measured utilization. Deactivated executors keep
	// their pools warm (scaling back up reuses loaded experts); the
	// active counts persist across consecutive streams, so between-stream
	// scaling falls out of the same loop. Incompatible with
	// PreschedPicks, whose recorded indices assume a fixed queue set.
	Autoscaler control.Autoscaler
	// Window is the width of the recorder's windowed
	// throughput/latency/rejection series and the autoscaler's control
	// interval. Zero disables windowed metrics, unless an Autoscaler is
	// set, in which case it defaults to DefaultControlWindow. A positive
	// Window must be at least MinWindow.
	Window time.Duration
	// Percentiles selects how latency percentiles are computed. The
	// zero value (PercentilesExact) stores every sample and reports
	// exact percentiles — the mode golden experiments run in, byte-
	// identical to the pre-sketch behavior. PercentilesSketch streams
	// samples into a fixed-size mergeable quantile sketch instead, so
	// recorder memory is O(1) in completions; percentiles then carry
	// the sketch's documented relative-accuracy bound (1%).
	Percentiles PercentileMode
	// DisablePicks has no effect: a system no longer records its
	// assignment sequence (TracedPicks derives it from a Trace). The
	// field remains only so existing configs compile.
	DisablePicks bool
}

// PercentileMode selects exact (store-every-sample) or sketch
// (fixed-size streaming) latency percentile accounting.
type PercentileMode int

const (
	// PercentilesExact stores every latency sample; percentiles are
	// exact. The default.
	PercentilesExact PercentileMode = iota
	// PercentilesSketch streams samples into a mergeable quantile
	// sketch (stats.Sketch); memory is O(1) in completions and
	// percentiles are accurate to the sketch's documented bound.
	PercentilesSketch
)

func (m PercentileMode) String() string {
	switch m {
	case PercentilesExact:
		return "exact"
	case PercentilesSketch:
		return "sketch"
	}
	return fmt.Sprintf("PercentileMode(%d)", int(m))
}

// evictPolicy resolves the effective eviction policy.
func (c Config) evictPolicy() pool.Policy {
	if c.EvictPolicy != nil {
		return c.EvictPolicy
	}
	return c.Variant.row().policy
}

// Resolve returns the config with its defaults filled in, so a node's
// layout is decided in one place. Samba and SambaFIFO always run one GPU
// executor and no CPU executor; any other variant left at zero executors
// of both kinds gets DefaultExecutors. A zero Alloc becomes
// DefaultAllocation for the resolved counts. The layout defaults need a
// Device and a Perf that profiles the reference architecture; without
// them the counts and the allocation stay as given, for validation to
// refuse. An Autoscaler without a Window gets DefaultControlWindow.
// NewSystemInEnv resolves every config it builds from, and cluster.New
// resolves each node's before it sizes placement from the allocation.
func Resolve(c Config) Config {
	if c.Variant.row().single {
		c.GPUExecutors, c.CPUExecutors = 1, 0
	}
	if c.Autoscaler != nil && c.Window <= 0 {
		c.Window = DefaultControlWindow
	}
	if c.Device == nil || c.Perf.Covers([]model.Architecture{referenceArch}) != nil {
		return c
	}
	if c.GPUExecutors == 0 && c.CPUExecutors == 0 {
		c.GPUExecutors, c.CPUExecutors = DefaultExecutors(c.Device)
	}
	if c.Alloc == (Allocation{}) {
		c.Alloc = DefaultAllocation(c.Variant, c.Device, c.Perf, c.GPUExecutors, c.CPUExecutors)
	}
	return c
}

// validate checks the configuration against the device profile and the
// deadlock-freedom requirements of the executors.
func (c Config) validate(largestWeight, largestGPUAct, largestCPUAct int64) error {
	if !c.Variant.known() {
		return fmt.Errorf("core: unknown %v", c.Variant)
	}
	if c.Device == nil {
		return fmt.Errorf("core: config needs a device")
	}
	if err := c.Device.Validate(); err != nil {
		return err
	}
	if c.GPUExecutors < 1 {
		return fmt.Errorf("core: at least one GPU executor required")
	}
	if c.CPUExecutors < 0 {
		return fmt.Errorf("core: negative CPU executor count")
	}
	if c.Perf == nil {
		return fmt.Errorf("core: config needs a performance matrix")
	}
	if c.SLO < 0 {
		return fmt.Errorf("core: negative SLO %v", c.SLO)
	}
	if c.Window > 0 && c.Window < MinWindow {
		return fmt.Errorf("core: Window %v below the %v floor", c.Window, MinWindow)
	}
	if c.Autoscaler != nil && c.PreschedPicks != nil {
		// Replayed picks index a fixed queue set; scaling the active set
		// mid-replay would re-route the recorded assignments.
		return fmt.Errorf("core: autoscaling cannot be combined with pre-scheduled picks")
	}
	a := c.Alloc
	if a.GPUExpertBytes <= 0 {
		return fmt.Errorf("core: GPU expert budget must be positive")
	}
	// Every pool must hold one pinned expert per sharing executor plus
	// the incoming expert, or Acquire could be unable to evict.
	perGPUPool, gpuSharers := a.GPUExpertBytes/int64(c.GPUExecutors), 1
	if c.Variant.row().shared {
		perGPUPool, gpuSharers = a.GPUExpertBytes, c.GPUExecutors
	}
	if perGPUPool < int64(gpuSharers+1)*largestWeight {
		return fmt.Errorf("core: GPU pool capacity %d cannot hold %d of the largest expert (%d bytes)",
			perGPUPool, gpuSharers+1, largestWeight)
	}
	if c.CPUExecutors > 0 {
		perCPUPool, cpuSharers := a.CPUExpertBytes/int64(c.CPUExecutors), 1
		if c.Variant.row().shared {
			perCPUPool, cpuSharers = a.CPUExpertBytes, c.CPUExecutors
		}
		if perCPUPool < int64(cpuSharers+1)*largestWeight {
			return fmt.Errorf("core: CPU pool capacity %d cannot hold %d of the largest expert (%d bytes)",
				perCPUPool, cpuSharers+1, largestWeight)
		}
		if a.CPUActBytes < largestCPUAct {
			return fmt.Errorf("core: CPU activation budget %d below one image (%d bytes)",
				a.CPUActBytes, largestCPUAct)
		}
	}
	// The activation arena must fit at least one image or executors
	// deadlock waiting for memory.
	if a.GPUActBytes < largestGPUAct {
		return fmt.Errorf("core: GPU activation budget %d below one image (%d bytes)",
			a.GPUActBytes, largestGPUAct)
	}
	// Totals must fit the physical memories (workspaces are per
	// executor; the OS reserve never becomes available).
	gpuWS := int64(c.GPUExecutors) * c.Device.GPU.WorkspaceBytes
	cpuWS := int64(c.CPUExecutors) * c.Device.CPU.WorkspaceBytes
	switch c.Device.Mem {
	case hw.NUMA:
		gpuTotal := gpuWS + a.GPUExpertBytes + a.GPUActBytes
		if gpuTotal > c.Device.GPUMemBytes {
			return fmt.Errorf("core: GPU allocation %d exceeds %d", gpuTotal, c.Device.GPUMemBytes)
		}
		if cpuWS == 0 {
			cpuWS = c.Device.CPU.WorkspaceBytes // host runtime
		}
		cpuTotal := cpuWS + a.CPUExpertBytes + a.CPUActBytes + a.HostCacheBytes
		if cpuTotal > c.Device.CPUMemBytes {
			return fmt.Errorf("core: CPU allocation %d exceeds %d", cpuTotal, c.Device.CPUMemBytes)
		}
	case hw.UMA:
		total := c.Device.OSReserveBytes + gpuWS + cpuWS +
			a.GPUExpertBytes + a.GPUActBytes +
			a.CPUExpertBytes + a.CPUActBytes + a.HostCacheBytes
		if total > c.Device.UnifiedMemBytes {
			return fmt.Errorf("core: unified allocation %d exceeds %d", total, c.Device.UnifiedMemBytes)
		}
	}
	return nil
}
