// Package xfer models expert transfers between memory tiers: the SSD
// read + framework deserialization path and the host-to-GPU copy (PCIe
// on NUMA, data reorganization on UMA). Transfers contend on per-device
// simulation resources, so concurrent loads serialize on the physical
// units exactly as they do on the real machine — which is what makes
// expert switching the system bottleneck (Figure 1).
package xfer

import (
	"fmt"
	"time"

	"repro/internal/hw"
	"repro/internal/memory"
	"repro/internal/sim"
)

// Source describes where an expert is loaded from.
type Source int

const (
	// FromSSD loads a serialized expert from storage (read + deserialize).
	FromSSD Source = iota
	// FromHost copies an already-deserialized expert from CPU memory to
	// the GPU (PCIe copy on NUMA, reorganization on UMA).
	FromHost
)

func (s Source) String() string {
	switch s {
	case FromSSD:
		return "ssd"
	case FromHost:
		return "host"
	default:
		return fmt.Sprintf("Source(%d)", int(s))
	}
}

// hostLinkBW returns the CPU→GPU copy bandwidth for the device.
func hostLinkBW(d *hw.Device) float64 {
	if d.Mem == hw.UMA {
		return d.ReorgBW
	}
	return d.PCIeBW
}

// bwDuration converts bytes at bw bytes/s into a duration.
func bwDuration(bytes int64, bw float64) time.Duration {
	return time.Duration(float64(bytes) / bw * float64(time.Second))
}

// LoadLatency reports the modeled time to bring bytes of expert weights
// to the destination tier from the given source, without contention:
// the sum of the transfer's stages, so it equals Engine.Load's elapsed
// time on idle resources.
//
//   - FromSSD to CPU: SSD read + deserialization + fixed overhead.
//   - FromSSD to GPU: the CPU path plus the host→GPU copy.
//   - FromHost to GPU: host→GPU copy + fixed overhead.
//   - FromHost to CPU: fixed overhead only (weights already usable).
func LoadLatency(d *hw.Device, src Source, dst memory.Tier, bytes int64) time.Duration {
	first, link := stages(d, src, dst, bytes)
	return first + link
}

// stages splits a transfer into its contended stages: first runs on the
// loader for an SSD load and on the host link for a host load; link is
// the host→GPU copy that follows an SSD load into the GPU, and zero for
// every other transfer.
func stages(d *hw.Device, src Source, dst memory.Tier, bytes int64) (first, link time.Duration) {
	if dst == memory.TierGPU {
		link = bwDuration(bytes, hostLinkBW(d))
	}
	switch src {
	case FromSSD:
		return d.LoadFixed + bwDuration(bytes, d.SSDReadBW) + bwDuration(bytes, d.DeserBW), link
	case FromHost:
		return d.LoadFixed + link, 0
	}
	panic(fmt.Sprintf("xfer: unknown source %v", src))
}

// Engine executes transfers under contention. The loader resource covers
// the SSD-read-plus-deserialization stage (limited to the device's
// concurrent load streams); the host link covers CPU→GPU copies.
type Engine struct {
	env      *sim.Env
	dev      *hw.Device
	loader   *sim.Resource
	hostLink *sim.Resource
	// free recycles finished transfer records.
	free *transfer
}

// NewEngine returns an engine for the device bound to env. The host
// link serializes on NUMA devices (one PCIe copy at a time); on UMA the
// "link" is data reorganization by CPU cores, which parallelizes like
// the load streams.
func NewEngine(env *sim.Env, dev *hw.Device) *Engine {
	hostCap := 1
	if dev.Mem == hw.UMA {
		hostCap = dev.LoadConcurrency()
	}
	return &Engine{
		env:      env,
		dev:      dev,
		loader:   sim.NewResource(env, dev.Name+"/loader", dev.LoadConcurrency()),
		hostLink: sim.NewResource(env, dev.Name+"/hostlink", hostCap),
	}
}

// transfer is one Load in flight; fn is its continuation, bound once
// when the record is first allocated. overLink marks an SSD load bound
// for the GPU still in its loader stage: a host-link copy of link follows.
type transfer struct {
	e        *Engine
	start    sim.Time
	overLink bool
	link     time.Duration
	done     func(tag any, elapsed time.Duration)
	tag      any
	fn       func()
	next     *transfer
}

// Load performs a transfer of bytes from src to dst, contending on the
// physical resources involved, and then calls done with tag and the
// total elapsed virtual time including queueing. The tag lets one bound
// done serve every load of its owner; steady-state loads allocate
// nothing.
func (e *Engine) Load(src Source, dst memory.Tier, bytes int64, done func(tag any, elapsed time.Duration), tag any) {
	t := e.free
	if t != nil {
		e.free = t.next
	} else {
		t = &transfer{e: e}
		t.fn = t.step
	}
	t.start, t.done, t.tag = e.env.Now(), done, tag
	first, link := stages(e.dev, src, dst, bytes)
	if src == FromHost {
		e.hostLink.Use(first, t.fn)
		return
	}
	// An SSD load into the GPU always takes its host-link stage, even a
	// zero-length one.
	t.overLink, t.link = dst == memory.TierGPU, link
	e.loader.Use(first, t.fn)
}

// step follows a finished stage: the host-link copy after an SSD load's
// loader stage when the destination is the GPU, otherwise completion.
func (t *transfer) step() {
	e := t.e
	if t.overLink {
		t.overLink = false
		e.hostLink.Use(t.link, t.fn)
		return
	}
	done, tag := t.done, t.tag
	elapsed := e.env.Now().Sub(t.start)
	t.done, t.tag = nil, nil
	t.next, e.free = e.free, t
	done(tag, elapsed)
}
