package main

import (
	"container/heap"
	"math"
	"time"

	"repro/internal/cluster"
	"repro/internal/coe"
	"repro/internal/core"
	"repro/internal/pool"
	"repro/internal/sim"
	"repro/internal/workload"
)

// sample is what one serve measured. Sim is the modelled system's
// outcome in simulated time and repeats bit for bit for a given seed;
// everything else is host cost and varies run to run.
type sample struct {
	Sim outcome

	SetupNs, ProfileNs, PlacementNs int64
	ServeNs                         int64
	Allocs, Bytes                   uint64
	// MaxRSSKB is the serving process's peak resident set, read by the
	// child itself.
	MaxRSSKB int64
	// CalibNs is the calibration loop's host time around the serve (the
	// mean of one run before set-up and one after the serve).
	CalibNs int64

	// Host time inside each probed layer, summed over the serve; zero
	// when untraced. Eviction time is summed across nodes, whose
	// partitions may run concurrently on the sharded kernel.
	NextNs, RouteNs, VictimsNs int64
	// RouteCalls and VictimsCalls count probed calls (traced only).
	RouteCalls, VictimsCalls int64
	// SchedNs is the scheduling time the nodes clock themselves
	// (Report.SchedPerOp × SchedOps, summed over nodes).
	SchedNs int64
}

// outcome is the simulated result of one serve, read from the Report.
// Two serves of the same stream must produce equal outcomes.
type outcome struct {
	// Offered counts requests the source yielded.
	Offered, Completions, Rejected, RedeliveredRejected int64
	// SketchCount is the latency sketch's observation count, -1 in exact
	// mode; LatencyN is the latency summary's sample count.
	SketchCount int64
	LatencyN    int

	ThroughputRPS, MeanS, P99S float64
	// Met counts completions within the SLO.
	Met       int64
	MakespanS float64

	Switches, HostHits, SSDLoads int64
	LoadS                        float64
	Processed, Batches           int64
	BusyS                        float64
	Executors                    int
	SchedOps                     int64

	Imbalance                                                      float64
	Crashes, BreakerTrips                                          int
	Redelivered, HedgesFired, HedgeWins, Bounced, DupAcks, Dropped int64
	FailoverMeanS                                                  float64
}

func nodeOutcome(r *core.Report) outcome {
	o := outcome{
		Completions: r.Completions, Rejected: r.Rejected,
		SketchCount: -1, LatencyN: r.Latency.N,
		ThroughputRPS: r.Throughput, MeanS: r.Latency.Mean, P99S: r.Latency.P99,
		Met:       met(r.SLOAttainment, r.Completions),
		MakespanS: r.Makespan.Seconds(),
		Switches:  r.Switches, HostHits: r.HostHits, SSDLoads: r.SSDLoads,
		Dropped: r.Dropped,
	}
	if r.LatencySketch != nil {
		o.SketchCount = r.LatencySketch.Count()
	}
	o.addNode(r)
	return o
}

func fleetOutcome(r *cluster.Report) outcome {
	o := outcome{
		Completions: r.Completions, Rejected: r.Rejected,
		RedeliveredRejected: r.RedeliveredRejected,
		SketchCount:         -1, LatencyN: r.Latency.N,
		ThroughputRPS: r.Throughput, MeanS: r.Latency.Mean, P99S: r.Latency.P99,
		Met:       met(r.SLOAttainment, r.Completions),
		MakespanS: r.Makespan.Seconds(),
		Switches:  r.Switches, HostHits: r.HostHits, SSDLoads: r.SSDLoads,
		Imbalance: r.Imbalance, Crashes: r.Crashes, BreakerTrips: r.BreakerTrips,
		Redelivered: r.Redelivered, HedgesFired: r.HedgesFired, HedgeWins: r.HedgeWins,
		Bounced: r.Bounced, DupAcks: r.DupAcks, Dropped: r.Dropped,
		FailoverMeanS: r.FailoverMean.Seconds(),
	}
	if r.LatencySketch != nil {
		o.SketchCount = r.LatencySketch.Count()
	}
	for _, n := range r.PerNode {
		o.addNode(n)
	}
	return o
}

// addNode folds one node's executor, pool and scheduler counters in.
func (o *outcome) addNode(r *core.Report) {
	for _, ex := range r.PerExecutor {
		o.Processed += ex.Processed
		o.Batches += ex.Batches
		o.BusyS += ex.Busy.Seconds()
		o.Executors++
	}
	for _, pl := range r.PerPool {
		o.LoadS += pl.LoadTime.Seconds()
	}
	o.SchedOps += r.SchedOps
}

// schedNs is the node's self-clocked scheduling time.
func schedNs(r *core.Report) int64 { return r.SchedPerOp.Nanoseconds() * r.SchedOps }

// met recovers the count of completions within the SLO from the report's
// attainment, which divides by completions.
func met(attainment float64, completions int64) int64 {
	return int64(math.Round(attainment * float64(completions)))
}

// The probes below wrap interfaces the serving config already accepts.
// Each forwards every call unchanged, so a traced serve simulates
// exactly what an untraced one does, and, when clocked, adds up the host
// time spent inside the wrapped layer.

// countedSource counts the requests a source yields and, when clocked,
// the host time spent generating them.
type countedSource struct {
	src   workload.Source
	clock bool
	n, ns int64
}

func (s *countedSource) Name() string { return s.src.Name() }

// Model forwards the stream's model so the serving layer's model check
// still runs.
func (s *countedSource) Model() *coe.Model {
	if m, ok := s.src.(interface{ Model() *coe.Model }); ok {
		return m.Model()
	}
	return nil
}

func (s *countedSource) Next() (workload.TimedRequest, bool) {
	var tr workload.TimedRequest
	var ok bool
	if s.clock {
		t := time.Now()
		tr, ok = s.src.Next()
		s.ns += time.Since(t).Nanoseconds()
	} else {
		tr, ok = s.src.Next()
	}
	if ok {
		s.n++
	}
	return tr, ok
}

// timedRouter clocks the front end's routing decision. The cluster calls
// Pick only from its coordinator, so the counters need no locking.
type timedRouter struct {
	inner     cluster.Router
	calls, ns int64
}

func (r *timedRouter) Name() string { return r.inner.Name() }

func (r *timedRouter) Pick(now sim.Time, nodes []*cluster.Node, req *coe.Request) int {
	t := time.Now()
	i := r.inner.Pick(now, nodes, req)
	r.ns += time.Since(t).Nanoseconds()
	r.calls++
	return i
}

// timedPlacement clocks the placement plan, a set-up cost.
type timedPlacement struct {
	inner cluster.Placement
	ns    int64
}

func (p *timedPlacement) Name() string { return p.inner.Name() }

func (p *timedPlacement) Plan(m *coe.Model, nodes []cluster.NodeCapacity) ([][]coe.ExpertID, error) {
	t := time.Now()
	plan, err := p.inner.Plan(m, nodes)
	p.ns += time.Since(t).Nanoseconds()
	return plan, err
}

// timedPolicy clocks victim selection. Each node gets its own, since
// node partitions may run concurrently.
type timedPolicy struct {
	inner     pool.Policy
	calls, ns int64
}

func (p *timedPolicy) Name() string { return p.inner.Name() }

func (p *timedPolicy) Victims(pl *pool.Pool, need int64) []coe.ExpertID {
	t := time.Now()
	v := p.inner.Victims(pl, need)
	p.ns += time.Since(t).Nanoseconds()
	p.calls++
	return v
}

// probes holds one serve's clocked wrappers (all nil when untraced).
type probes struct {
	router    *timedRouter
	placement *timedPlacement
	policies  []*timedPolicy
}

func (ps *probes) collect(s *sample) {
	if ps.router != nil {
		s.RouteNs, s.RouteCalls = ps.router.ns, ps.router.calls
	}
	if ps.placement != nil {
		s.PlacementNs = ps.placement.ns
	}
	for _, p := range ps.policies {
		s.VictimsNs += p.ns
		s.VictimsCalls += p.calls
	}
}

// Host speed on a shared machine drifts: the same binary's serve can take
// 40% longer for minutes at a time when neighbours load the host. Every
// serve is therefore bracketed by a fixed calibration loop, and host
// times are reported scaled to the speed at which that loop takes
// calibRefNs. The loop mixes what the simulator does most — map updates,
// heap pushes and pops, small allocations — so the drift scales both
// alike; measured over ten minutes of 20 s windows on a 2-core VM, the
// windows' raw host_ns_per_req varied by 38% (IQR over median) and the
// scaled one by 3.5%.
const (
	calibRefNs = 100e6
	calibIters = 400_000
)

// calibrate runs the calibration loop once and returns its host time.
func calibrate() int64 {
	t := time.Now()
	x := uint64(88172645463325252)
	m := make(map[uint64]uint64)
	h := &u64Heap{}
	var list *calibNode
	for i := 0; i < calibIters; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		m[x%65536] += x
		heap.Push(h, x)
		if h.Len() > 4096 {
			heap.Pop(h)
		}
		if i%4 == 0 {
			list = &calibNode{next: list, v: x}
			if i%4096 == 0 {
				list = nil
			}
		}
	}
	calibSink = list
	return time.Since(t).Nanoseconds()
}

// calibSink keeps the loop's allocations from being optimised away.
var calibSink *calibNode

type calibNode struct {
	next *calibNode
	v    uint64
	_    [5]uint64
}

type u64Heap []uint64

func (h u64Heap) Len() int           { return len(h) }
func (h u64Heap) Less(i, j int) bool { return h[i] < h[j] }
func (h u64Heap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *u64Heap) Push(x any)        { *h = append(*h, x.(uint64)) }
func (h *u64Heap) Pop() any {
	old := *h
	x := old[len(old)-1]
	*h = old[:len(old)-1]
	return x
}
