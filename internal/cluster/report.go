package cluster

import (
	"time"

	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/stats"
)

// Report aggregates one cluster-served stream: the fleet view plus each
// node's full single-system report.
type Report struct {
	// Stream names the served source; Nodes is the fleet size.
	Stream string
	Nodes  int
	// Router and Placement name the policies the stream ran under.
	Router    string
	Placement string

	// N counts admitted requests fleet-wide; Offered additionally
	// counts requests rejected by the nodes' admission policies.
	N             int64
	Offered       int64
	Rejected      int64
	RejectionRate float64
	Completions   int64
	// Makespan spans first fleet arrival to last fleet completion;
	// Throughput is fleet completions per second of it.
	Makespan   time.Duration
	Throughput float64

	// Latency summarizes the fleet-wide per-request latency population
	// (seconds), measured at the front end — not an approximation over
	// node summaries. It counts each request once, when its result is
	// back: losing hedge copies and work finished after a crash voided
	// its lease are not in it. In exact mode it is computed from the
	// fleet recorder's full sample set, in sketch mode from its sketch.
	Latency stats.Summary
	// LatencySketch is a copy of the fleet recorder's latency sketch.
	// Nil in exact mode.
	LatencySketch *stats.Sketch
	// SLO echoes the fleet objective; SLOAttainment is the fraction of
	// fleet completions meeting it (1 when no SLO is configured).
	SLO           time.Duration
	SLOAttainment float64

	// Switches, SSDLoads, HostHits, and Evictions sum the nodes' expert
	// movement — the fleet's total switching bill.
	Switches  int64
	SSDLoads  int64
	HostHits  int64
	Evictions int64

	// Imbalance is the max-over-mean ratio of per-node routed arrivals:
	// 1.0 is a perfectly balanced fleet, N is everything on one node of
	// N. Routed counts include rejected requests — it measures the
	// router, not the admission policies.
	Imbalance float64
	// Routed counts arrivals handed to each node, in node order.
	Routed []int64

	// Windows is the fleet-level sliding-interval series (nil unless
	// Config.Window enabled it).
	Windows []metrics.Window

	// PerNode holds each node's full report, in node order. Node-local
	// slices (per-tenant stats, per-executor rows, windows) live here.
	// A node keeps counters but no latency samples: its Latency and
	// SLOAttainment, and its tenants', are folds over the front end's
	// record, so they count the completions that resolved a lease on
	// the node, each measured at the front end like the fleet Latency —
	// from first admission, return hop and any redelivery gap included.
	// Hedge losers and duplicate acks are not in them, so Latency.N can
	// be less than Completions. LatencySketch is nil.
	PerNode []*core.Report

	// Chaos and lifecycle accounting — all zero on fault-free,
	// scaler-free streams.

	// Faults counts fault-plan events applied (the sum of ChaosStats'
	// event kinds). Dropped sums the nodes' crash-voided request counts
	// (queued work purged plus in-flight batches discarded).
	Faults  int
	Dropped int64
	ChaosStats
	WireStats
	// FailoverMean and FailoverMax summarize the time from a lease's
	// void (the crash) to its redelivered completion.
	FailoverMean time.Duration
	FailoverMax  time.Duration
	// TimeToDrain records every completed drain: the time from the
	// drain order until the node had nothing outstanding.
	TimeToDrain []DrainRecord
	// FinalStates is each node's lifecycle state at stream end, reported
	// when the stream ran with faults, hedging, an interconnect, or the
	// fleet autoscaler configured.
	FinalStates []core.NodeState

	// Health and breaker accounting — all zero unless Config.Health is
	// enabled. HealthScores is each node's last computed score.
	HealthStats
	HealthScores []float64

	// Hedge accounting — all zero unless Config.Hedge is enabled.
	HedgeStats
}

// ChaosStats counts a stream's fault events and their fallout, plus the
// fleet autoscaler's actions.
type ChaosStats struct {
	// Crashes, Drains, Recoveries, and the gray kinds (Slows, Jitters,
	// Stalls) break the applied fault events down. A gray recover
	// counts under Recoveries.
	Crashes    int
	Drains     int
	Recoveries int
	Slows      int
	Jitters    int
	Stalls     int
	// LostLeases counts primary copies crashes destroyed, their leases
	// voided; Redelivered counts successful re-admissions of voided
	// leases (a lease can be voided and redelivered more than once, or
	// terminally rejected). RedeliveredRejected counts voided leases a
	// node's admission refused — terminal losses the recorder's arrival
	// count already includes, so on streams with them N = Completions +
	// RedeliveredRejected.
	LostLeases          int64
	Redelivered         int64
	RedeliveredRejected int64
	// PendingPeak is the largest redelivery backlog observed while no
	// node was routable.
	PendingPeak int
	// ScaleUps and ScaleDowns count the fleet autoscaler's actions.
	ScaleUps   int
	ScaleDowns int
}

// WireStats counts the interconnect's protocol races. Both are always
// zero without Config.Interconnect: an offer then lands at the instant
// it is routed and a completion at the instant it happens.
type WireStats struct {
	// Bounced counts offers that crossed the interconnect only to find
	// their node no longer Up, and were re-routed by the front end.
	Bounced int64
	// DupAcks counts completions of copies a crash had already killed:
	// the ack crossed the crash on the wire, after the copy's lease was
	// voided for redelivery. They never count as completions.
	DupAcks int64
}

// HealthStats counts the circuit breaker's moves.
type HealthStats struct {
	// BreakerTrips and BreakerReinstates count quarantines and
	// reinstatements; ProbesSent counts requests admitted to half-open
	// nodes; BreakerBypasses arrivals routed over a fully quarantined
	// Up set.
	BreakerTrips      int
	BreakerReinstates int
	ProbesSent        int64
	BreakerBypasses   int64
}

// HedgeStats counts hedged redelivery. HedgesFired counts speculative
// copies admitted; HedgeWins the leases the copy resolved first;
// HedgeWasted the loser copies that completed anyway (the wasted-work
// bill); HedgeRejected copies node admission refused; HedgeRetries
// deadline re-arms after a failed attempt; HedgePromoted primaries lost
// to a crash whose hedge copy took over the lease; HedgesVoided hedge
// copies and hedge-race losers destroyed by crashes before completing.
//
// Every copy the nodes admit is counted once: the sum of PerNode[i].N
// equals Completions + HedgeWasted + DupAcks + LostLeases +
// HedgesVoided + HedgePromoted, and Serve fails the stream otherwise.
type HedgeStats struct {
	HedgesFired   int64
	HedgeWins     int64
	HedgeWasted   int64
	HedgeRejected int64
	HedgeRetries  int64
	HedgePromoted int64
	HedgesVoided  int64
}

// DrainRecord is one completed drain: the node and how long it took to
// finish its in-flight work after routing stopped.
type DrainRecord struct {
	Node string
	Took time.Duration
}

// report assembles the fleet aggregate after a completed stream.
func (c *Cluster) report(stream string, perNode []*core.Report) *Report {
	r := &Report{
		Stream:        stream,
		Nodes:         len(c.nodes),
		Router:        c.router.Name(),
		Placement:     c.placement.Name(),
		N:             c.recorder.Arrivals(),
		Offered:       c.recorder.Arrivals() + c.recorder.Rejections(),
		Rejected:      c.recorder.Rejections(),
		Completions:   c.recorder.Completions(),
		Makespan:      c.recorder.Makespan(),
		Throughput:    c.recorder.Throughput(),
		Latency:       c.recorder.LatencySummary(),
		SLO:           c.cfg.SLO,
		SLOAttainment: c.recorder.SLOAttainment(c.cfg.SLO),
		Routed:        make([]int64, len(c.nodes)),
		PerNode:       perNode,
	}
	if r.Offered > 0 {
		r.RejectionRate = float64(r.Rejected) / float64(r.Offered)
	}
	if sk := c.recorder.Sketch(); sk != nil {
		r.LatencySketch = sk.Clone()
	}
	if ws := c.recorder.Windows(); len(ws) > 0 {
		r.Windows = append([]metrics.Window(nil), ws...)
	}
	c.foldNodeLatency(perNode)
	if h := c.health; h != nil {
		r.HealthStats, r.HealthScores = h.HealthStats, make([]float64, len(c.nodes))
	}
	if !c.cfg.Faults.Empty() || c.cfg.Hedge.Enabled() || c.cfg.Interconnect.Enabled() || c.cfg.Autoscaler != nil {
		r.FinalStates = make([]core.NodeState, len(c.nodes))
	}
	var total, most int64
	for i, rep := range perNode {
		n := c.nodes[i]
		r.Routed[i] = n.routed
		total, most = total+n.routed, max(most, n.routed)
		if r.HealthScores != nil {
			r.HealthScores[i] = n.score
		}
		if r.FinalStates != nil {
			r.FinalStates[i] = n.sys.State()
		}
		r.Switches += rep.Switches
		r.SSDLoads += rep.SSDLoads
		r.HostHits += rep.HostHits
		r.Evictions += rep.Evictions
		r.Dropped += rep.Dropped
	}
	if total > 0 {
		r.Imbalance = float64(most) * float64(len(c.nodes)) / float64(total)
	}
	if len(c.drainRecords) > 0 {
		r.TimeToDrain = append([]DrainRecord(nil), c.drainRecords...)
	}
	cs := c.chaos
	r.ChaosStats, r.WireStats, r.HedgeStats = cs.ChaosStats, cs.WireStats, cs.HedgeStats
	r.Faults = cs.Crashes + cs.Drains + cs.Recoveries + cs.Slows + cs.Jitters + cs.Stalls
	if cs.failoverN > 0 {
		r.FailoverMean = cs.failoverSum / time.Duration(cs.failoverN)
		r.FailoverMax = cs.failoverMax
	}
	return r
}

// foldNodeLatency fills each node report's latency and SLO attainment,
// and its tenants', from the front end's tagged record, scoring each
// against the node's own objective. A node's tenant row j is its tenant
// slot j+1, so the node's tag table indexes the rows directly.
func (c *Cluster) foldNodeLatency(perNode []*core.Report) {
	nodeSLO := func(i int) time.Duration { return perNode[i].SLO }
	for i, lat := range c.recorder.GroupLatency(len(perNode), c.tagNode, nodeSLO) {
		perNode[i].Latency, perNode[i].SLOAttainment = lat.Summary, lat.SLOAttainment
	}
	if c.tags == len(perNode) {
		return
	}
	pairs := c.recorder.GroupLatency(len(c.tagNode), nil, func(t int) time.Duration { return nodeSLO(c.tagNode[t]) })
	for i, rep := range perNode {
		for j, t := range c.nodes[i].tags {
			if t != 0 {
				ts := &rep.PerTenant[j]
				ts.Latency, ts.SLOAttainment = pairs[t].Summary, pairs[t].SLOAttainment
			}
		}
	}
}
