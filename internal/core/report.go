package core

import (
	"time"

	"repro/internal/metrics"
	"repro/internal/stats"
)

// ExecutorStats is the per-executor slice of a report.
type ExecutorStats struct {
	Name      string
	Processed int64
	Batches   int64
	Busy      time.Duration
}

// PoolStats is the per-model-pool slice of a report. With shared pools
// (Samba-CoE Parallel) there are fewer pools than executors.
type PoolStats struct {
	Name      string
	Loaded    int
	Switches  int64
	SSDLoads  int64
	HostHits  int64
	Evictions int64
	LoadTime  time.Duration
}

// TenantStats is one tenant's slice of a multi-tenant stream report.
// Admitted, Rejected and Completions are the node's plain counters.
// Latency and SLOAttainment fold the one latency record the stream
// keeps — the system's recorder when the system serves its own source,
// where every sample carries its tenant; the front end's in a fleet
// (cluster.Report.PerNode), over the completions the tenant resolved on
// the node.
type TenantStats struct {
	Name     string
	Admitted int64
	// Rejected counts the tenant's requests dropped by admission control.
	Rejected    int64
	Completions int64
	// Latency summarizes the tenant's end-to-end latency in seconds.
	Latency stats.Summary
	// SLOAttainment is the fraction of the tenant's sampled completions
	// meeting the configured objective (1 when no SLO is configured).
	SLOAttainment float64
}

// Report summarizes one served stream.
type Report struct {
	System string
	Device string
	// Task names the served stream (the task name for closed-loop runs,
	// the source name otherwise).
	Task string

	// N counts admitted requests; Offered additionally counts the
	// requests admission control rejected, so Offered = N + Rejected.
	N        int64
	Offered  int64
	Rejected int64
	// RejectionRate is Rejected / Offered (0 when nothing was offered).
	RejectionRate float64
	// PeakQueued is the largest backlog observed at any dispatch instant
	// (0 when no admission policy was configured — the data plane does
	// not pay for the sampling unless the control plane is on).
	PeakQueued  int
	Completions int64
	// Dropped counts admitted requests a node crash voided before they
	// completed: their leases were handed back to the dispatcher for
	// redelivery elsewhere. Always 0 on fault-free streams, and
	// N = Completions + Dropped once the stream drains.
	Dropped  int64
	Makespan time.Duration
	// Throughput is completed images per second — the paper's primary
	// metric (§5.1).
	Throughput float64
	// Switches is the total number of expert switch-ins across pools
	// (Figure 14).
	Switches  int64
	SSDLoads  int64
	HostHits  int64
	Evictions int64

	// Latency summarizes per-request end-to-end latency in seconds,
	// including the p50/p95/p99 percentiles serving SLOs are scored on.
	// Exact in the default mode; sketch-accurate (1% relative) when
	// Config.Percentiles is PercentilesSketch.
	Latency stats.Summary
	// LatencySketch is the stream's mergeable latency sketch — an
	// independent clone, safe to hold across warm restarts. Nil in the
	// default exact mode, and always nil for a node of a fleet: it keeps
	// no latency records, and cluster.Report.PerNode folds its Latency
	// from the front end's.
	LatencySketch *stats.Sketch

	// SLO echoes the configured per-request latency objective (0 when
	// none was set).
	SLO time.Duration
	// SLOAttainment is the fraction of completed requests whose latency
	// met the objective (1 when no SLO is configured).
	SLOAttainment float64

	// PerTenant breaks a multi-tenant stream down by tenant, in first-
	// arrival order. Nil for single-tenant streams.
	PerTenant []TenantStats

	// Windows is the stream's sliding-interval series (arrivals,
	// completions, rejections, mean latency per window); nil unless
	// Config.Window enabled windowed metrics.
	Windows []metrics.Window
	// ActiveGPU and ActiveCPU are the active executor counts at stream
	// end — where the autoscaler (if any) left the topology.
	ActiveGPU, ActiveCPU int

	// SchedPerOp is the mean wall-clock cost of one scheduling decision,
	// timed on a fixed sample of them; SchedOps counts every online
	// decision; InferPerStage is the mean virtual processing time
	// (execution plus loading) per pipeline stage (Figure 19).
	SchedPerOp    time.Duration
	SchedOps      int64
	InferPerStage time.Duration

	PerExecutor []ExecutorStats
	PerPool     []PoolStats
}

// report assembles the Report after a completed stream.
func (s *System) report(stream string) *Report {
	r := &Report{
		System:        s.cfg.Variant.String(),
		Device:        s.cfg.Device.Name,
		Task:          stream,
		N:             s.recorder.Arrivals(),
		Offered:       s.recorder.Arrivals() + s.recorder.Rejections(),
		Rejected:      s.recorder.Rejections(),
		PeakQueued:    s.ctrl.peakQueued,
		ActiveGPU:     s.activeGPU,
		ActiveCPU:     s.activeCPU,
		Completions:   s.recorder.Completions(),
		Dropped:       s.ctrl.dropped,
		Makespan:      s.recorder.Makespan(),
		Throughput:    s.recorder.Throughput(),
		Latency:       s.recorder.LatencySummary(),
		SLO:           s.cfg.SLO,
		SLOAttainment: s.recorder.SLOAttainment(s.cfg.SLO),
		PerTenant:     s.ctrl.tenantStats(s.cfg.SLO),
		SchedPerOp:    s.recorder.SchedPerOp(),
		SchedOps:      s.recorder.SchedOps(),
	}
	if r.Offered > 0 {
		r.RejectionRate = float64(r.Rejected) / float64(r.Offered)
	}
	if sk := s.recorder.Sketch(); sk != nil {
		r.LatencySketch = sk.Clone()
	}
	if ws := s.recorder.Windows(); len(ws) > 0 {
		// Copy: the recorder reuses its window buffer across warm
		// restarts, and reports must outlive the next stream.
		r.Windows = append([]metrics.Window(nil), ws...)
	}
	var busy, load time.Duration
	for _, ex := range s.executors {
		busy += ex.BusyTime()
		r.PerExecutor = append(r.PerExecutor, ExecutorStats{
			Name:      ex.Name,
			Processed: ex.Processed(),
			Batches:   ex.Batches(),
			Busy:      ex.BusyTime(),
		})
	}
	for _, pl := range s.pools {
		r.Switches += pl.Switches()
		r.SSDLoads += pl.SSDLoads()
		r.HostHits += pl.HostHits()
		r.Evictions += pl.Evictions()
		load += pl.LoadTime()
		r.PerPool = append(r.PerPool, PoolStats{
			Name:      pl.Name(),
			Loaded:    pl.Loaded(),
			Switches:  pl.Switches(),
			SSDLoads:  pl.SSDLoads(),
			HostHits:  pl.HostHits(),
			Evictions: pl.Evictions(),
			LoadTime:  pl.LoadTime(),
		})
	}
	if stages := s.recorder.Stages(); stages > 0 {
		r.InferPerStage = (busy + load) / time.Duration(stages)
	}
	return r
}
