// Package cluster is the multi-node serving layer: one front end
// serving a single request stream across N nodes, where each node is a
// full single-device data plane (core.System — executors, pools,
// queues, admission, autoscaling) and all nodes share one simulation
// environment so the whole fleet stays deterministic.
//
// The front end owns three decisions the single-node system never had
// to make: where each expert's instances live (Placement — a
// generalization of the paper's §4.4 capacity planning across
// heterogeneous devices), which node an arriving request runs on
// (Router — least-loaded, expert-affinity over pool residency, or
// predicted-latency via the §4.2 cost model), and how the per-node
// reports aggregate into a fleet view (Report — fleet percentiles,
// attainment, and cross-node imbalance).
//
// A request is routed once, at admission: its whole expert chain runs
// on the chosen node, exactly as it would on a single-node system, so a
// node's slice of a cluster run is the same data plane the paper
// evaluates. Routing per stage (migrating a request between nodes
// mid-chain) would ship activations across nodes; with the paper's
// short chains the residency-aware first-stage decision captures
// nearly all of the benefit.
//
// Every request travels one protocol (wire.go): the front end opens a
// lease for it, offers it to a node under a hold — its record of that
// one copy — and lands the node's answers — accepted, rejected,
// bounced, completed, dropped — as folds that resolve the lease exactly
// once and account for every copy exactly once. The front end and every
// node run on one environment; only the transport depends on the
// Interconnect: with none every hop is delivered synchronously at the
// sending instant, with one each hop is a timed message one hop latency
// later.
package cluster

import (
	"fmt"
	"math"
	"math/bits"
	"slices"
	"strings"
	"time"

	"repro/internal/coe"
	"repro/internal/control"
	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/sim"
	"repro/internal/workload"
)

// Config describes a cluster: one core.Config per node (heterogeneous
// fleets — different devices, topologies, admission policies per node —
// are explicitly supported), the routing and placement policies, and
// the fleet-level reporting knobs.
type Config struct {
	// Nodes holds one data-plane configuration per node. Node IDs
	// default to "node0", "node1", … when empty. Per-node stateful
	// control-plane components (Admission, Autoscaler) must not be
	// shared between node configs, and a node config must not carry
	// PreschedPicks: a replay node serves exactly one stream.
	Nodes []core.Config
	// Router picks the node an admitted request runs on; nil defaults
	// to LeastLoaded.
	Router Router
	// Placement plans expert preloading across the fleet; nil defaults
	// to Mirror (every node preloads its own §4.1 usage order).
	Placement Placement
	// SLO is the fleet-level latency objective the cluster report
	// scores attainment against (0 disables, like core.Config.SLO).
	SLO time.Duration
	// Window enables the fleet-level windowed series with the given
	// interval, at least core.MinWindow (0 disables).
	Window time.Duration
	// Percentiles selects exact or sketch latency accounting for the
	// whole fleet. The front end records every completion once, tagged
	// with its serving node and tenant, and nodes keep no latency
	// records, so the node configs' own Percentiles are ignored. The
	// zero value is exact — byte-identical to the pre-sketch reports.
	Percentiles core.PercentileMode

	// Admission, when set, is the cluster-level admission policy checked
	// in front of the router: a request it rejects never reaches a node.
	// The policy sees the Cluster as its control.View (fleet backlog,
	// best-node latency prediction). Nil — the default — admits
	// everything, byte-identical to the pre-admission cluster.
	Admission control.AdmissionPolicy
	// Faults is the stream's fault schedule: scripted crash/drain/
	// recover events the cluster fires deterministically, with lease-
	// tracked at-least-once redelivery of a crashed node's in-flight
	// requests. Nil or empty — the default — injects nothing.
	Faults *sim.FaultPlan
	// Arena is the free list redelivered and hedged request copies are
	// leased from — normally the one the workload source draws from.
	// Nil gives the cluster a private arena; redelivery is correct
	// either way.
	Arena *coe.Arena
	// Autoscaler, when set, drives the routable node count from the
	// fleet's windowed metrics series: once per Window it is asked for a
	// desired Up count, and the cluster drains (highest-index first) or
	// resumes nodes to match. Requires Window > 0. Nil disables fleet
	// scaling.
	Autoscaler FleetAutoscaler

	// Health enables per-node health scoring and the circuit breaker —
	// the gray-failure detector. The zero value disables it.
	Health HealthConfig
	// Hedge enables per-request deadline timeouts with hedged
	// redelivery over the leases. The zero value disables it.
	Hedge HedgeConfig

	// Interconnect models the dispatch latency between the front end
	// and its nodes: enabled, every offer and ack is a timed message one
	// hop latency after it is sent. The zero value disables the model:
	// the same offers and acks are delivered synchronously.
	Interconnect Interconnect
	// Shards once set the worker count of a partitioned event kernel.
	//
	// Deprecated: ignored. Every fleet runs on one event kernel.
	Shards int
}

// Uniform returns n copies of the node configuration — the homogeneous
// fleet constructor. IDs are left empty for New to assign.
func Uniform(n int, node core.Config) []core.Config {
	nodes := make([]core.Config, n)
	for i := range nodes {
		nodes[i] = node
	}
	return nodes
}

// Node is one member of the cluster: a single-device data plane plus
// the read-only view routers consult. It also carries the front end's
// record of the node, built with it and kept across streams.
type Node struct {
	id  string
	sys *core.System
	// f is the fleet's routing view; the node is bit idx in its bitsets
	// and slot idx in its backlog slice.
	f   *fleet
	idx int

	// c is the front end. hop is the one-way hop latency to the node, 0
	// when Config.Interconnect is disabled and hops are synchronous.
	c   *Cluster
	hop time.Duration
	// routed counts arrivals handed to the node (admitted or not) this
	// stream — the imbalance numerator.
	routed int64
	// firstHeld and lastHeld bound the node's hold list (accept order).
	firstHeld, lastHeld *hold
	// lastCrash is the node's latest crash instant this stream. Over an
	// interconnect an accept fold still on the wire when the node crashed
	// names an admission the crash already purged.
	lastCrash sim.Time
	// drainOn marks a drain in progress whose completion is not yet
	// recorded, begun at drainStart; scalerDrained marks a drain the
	// fleet autoscaler owns.
	drainOn, scalerDrained bool
	drainStart             sim.Time
	// tags holds this stream's latency tag of each of the node's tenant
	// slots (coe.Request.TenantSlot, less one); 0 until the slot's first
	// completion.
	tags []uint16

	// Health scoring and the breaker (healthState): score and phase;
	// cool, the windows left before open → half-open; probes, in-flight
	// probe admissions while half-open; dry, consecutive windows with
	// work held but nothing completed (one is routine, a run is a
	// stall); done and latSum, this window's completion count and
	// latency sum (seconds).
	score             float64
	phase             breakerPhase
	cool, probes, dry int
	done              int64
	latSum            float64
}

// ID reports the node's identifier.
func (n *Node) ID() string { return n.id }

// System exposes the node's data plane (read-only use).
func (n *Node) System() *core.System { return n.sys }

// Queued reports the node's backlog across active queues.
func (n *Node) Queued() int { return n.sys.Queued() }

// Resident reports whether the expert is Loaded or Loading in any of
// the node's pools — the router's affinity signal. It is one bit of the
// fleet's holder table.
func (n *Node) Resident(id coe.ExpertID) bool {
	return n.f.holders.Has(int(id), n.f.holders.Slot(n.idx))
}

// PredictLatency predicts the end-to-end latency the request would
// observe if admitted to this node now (sched.Queue.Predict under the
// node's §4.2 cost model).
func (n *Node) PredictLatency(r *coe.Request) time.Duration { return n.sys.PredictLatency(r) }

// Cluster is a multi-node serving system. Like core.System it is
// long-lived: Serve runs one stream across the fleet, and consecutive
// calls warm-restart every node on its already-loaded pools.
type Cluster struct {
	cfg       Config
	m         *coe.Model
	env       *sim.Env
	router    Router
	placement Placement
	nodes     []*Node

	// recorder is the fleet's one latency record: the front end samples
	// each completion once, when it resolves its lease, under the tag
	// tag returns. tagNode maps every tag to the node that served it:
	// tag i below the fleet size is node i's untenanted completions, and
	// tags from the fleet size up (tags is the next) are (node, tenant
	// slot) pairs, numbered at a pair's first completion in the stream.
	// tagNode keeps earlier streams' pairs, whose records are empty, as a
	// sketch recorder keeps a sketch per tag seen. tagsFull records that
	// a stream ran out of 16-bit tags.
	recorder *metrics.Recorder
	tagNode  []int
	tags     int
	tagsFull bool

	// fleet is the routing view of the nodes: residency, backlogs and
	// idleness as bitsets and one backlog slice, kept current by the
	// nodes' pools and queues.
	fleet *fleet

	// msgFree is the free list of pooled protocol messages.
	msgFree *wireMsg

	runs    int
	serving bool
	broken  error

	// chaos is the stream's durable-delivery state (redelivery queue,
	// exactly-once counters), reset in place each stream.
	chaos *chaosState
	// closedAll records that every node's stream has been closed. The
	// close waits until the source is exhausted and the leases,
	// redelivery queue and wire have drained, so a recovered node can
	// still receive redeliveries.
	closedAll bool

	// The hold and lease pools, kept across streams so a warm serve
	// allocates neither. holds is every hold ever made, indexed by
	// coe.Request.Hold; leases counts the leases ever made. arena is
	// Config.Arena, or the cluster's own when that is nil.
	arena      *coe.Arena
	holds      []*hold
	freeHolds  *hold
	freeLeases *lease
	leases     int

	// health is the scoring and breaker state, reset in place each
	// stream; nil unless Config.Health is enabled.
	health *healthState
	probe  coe.Request

	// draining counts nodes currently Draining; drainRecords times each
	// drain completed this stream.
	draining     int
	drainRecords []DrainRecord
}

// New builds a cluster for the CoE model: the placement plan is
// computed first, then each node's data plane is constructed in the
// shared environment with its slice of the plan preloaded.
func New(cfg Config, m *coe.Model) (*Cluster, error) {
	if len(cfg.Nodes) == 0 {
		return nil, fmt.Errorf("cluster: config needs at least one node")
	}
	if cfg.SLO < 0 {
		return nil, fmt.Errorf("cluster: negative SLO %v", cfg.SLO)
	}
	c := &Cluster{
		cfg:       cfg,
		m:         m,
		router:    cfg.Router,
		placement: cfg.Placement,
		recorder:  metrics.NewRecorder(),
		fleet:     newFleet(len(cfg.Nodes), m.NumExperts()),
		chaos:     &chaosState{},
	}
	if err := cfg.Interconnect.validate(len(cfg.Nodes)); err != nil {
		return nil, err
	}
	c.env = sim.NewEnv()
	if c.router == nil {
		c.router = LeastLoaded{}
	}
	if c.placement == nil {
		c.placement = Mirror{}
	}
	if err := cfg.Faults.Validate(len(cfg.Nodes)); err != nil {
		return nil, err
	}
	if cfg.Window > 0 && cfg.Window < core.MinWindow {
		return nil, fmt.Errorf("cluster: Window %v below the %v floor", cfg.Window, core.MinWindow)
	}
	if cfg.Autoscaler != nil && cfg.Window <= 0 {
		return nil, fmt.Errorf("cluster: a fleet autoscaler needs Window > 0 (the scaling interval)")
	}
	if err := cfg.Health.validate(); err != nil {
		return nil, err
	}
	if err := cfg.Hedge.validate(); err != nil {
		return nil, err
	}
	c.arena = cfg.Arena
	if c.arena == nil {
		c.arena = coe.NewArena()
	}
	if len(cfg.Nodes) > math.MaxUint16+1 {
		return nil, fmt.Errorf("cluster: %d nodes overflow the front end's 16-bit latency tags", len(cfg.Nodes))
	}
	c.recorder.SetWindow(cfg.Window)
	if cfg.Percentiles == core.PercentilesSketch {
		c.recorder.UseSketch(len(cfg.Nodes))
	}

	caps := make([]NodeCapacity, len(cfg.Nodes))
	for i, nc := range cfg.Nodes {
		id := nc.ID
		if id == "" {
			id = fmt.Sprintf("node%d", i)
		}
		if nc.PreschedPicks != nil {
			return nil, fmt.Errorf("cluster: node %s: a pre-scheduled (replay) node serves one stream, a cluster serves many", id)
		}
		alloc := core.Resolve(nc).Alloc
		caps[i] = NodeCapacity{ID: id, ExpertBytes: alloc.GPUExpertBytes + alloc.CPUExpertBytes}
	}
	plan, err := c.placement.Plan(m, caps)
	if err != nil {
		return nil, err
	}
	if plan != nil && len(plan) != len(cfg.Nodes) {
		return nil, fmt.Errorf("cluster: placement %q planned %d nodes for a %d-node fleet",
			c.placement.Name(), len(plan), len(cfg.Nodes))
	}

	for i, nc := range cfg.Nodes {
		nc.ID = caps[i].ID
		if plan != nil {
			nc.Preload = plan[i]
		}
		nc.Percentiles = core.PercentilesExact
		sys, err := core.NewSystemInEnv(nc, m, c.env)
		if err != nil {
			return nil, fmt.Errorf("cluster: node %s: %w", nc.ID, err)
		}
		if n := len(sys.Pools()); n > math.MaxUint8 {
			return nil, fmt.Errorf("cluster: node %s: %d pools overflow the residency table's byte counters", nc.ID, n)
		}
		n := c.fleet.join(i, nc.ID, sys)
		n.c, n.hop = c, cfg.Interconnect.NodeLatency(i)
		c.nodes = append(c.nodes, n)
		c.tagNode = append(c.tagNode, i)
	}
	c.fleet.nodes = c.nodes
	if cfg.Health.Enabled() {
		c.health = &healthState{cfg: cfg.Health.withDefaults(), means: make([]float64, 0, len(c.nodes)), open: c.fleet.open}
	}
	return c, nil
}

// delegate is the core.StreamDelegate a node reports through: the node
// itself, so the front end attributes each completion to it — health
// scoring per node, hedge-race resolution by whichever copy's node
// acked first.
type delegate Node

// RequestDone implements core.StreamDelegate: the completion acks the
// request's lease with a fold to the front end (completionFold). It runs
// in the node's context, so it may only capture and post.
func (d *delegate) RequestDone(now sim.Time, r *coe.Request) {
	d.c.postFold((*Node)(d), now, opCompletion, r)
}

// RequestDropped implements core.StreamDelegate: a crash-voided request
// folds back to the front end, which owns the arena, for recycling. The
// node's own drop accounting already ran.
func (d *delegate) RequestDropped(now sim.Time, r *coe.Request) {
	d.c.postFold((*Node)(d), now, opRecycle, r)
}

// tag returns the front end's latency tag for a completion on node n
// in tenant slot (coe.Request.TenantSlot): n's index without a tenant,
// otherwise the pair's tag, assigned at its first completion this
// stream. Pairs past the 16-bit tag space share the last tag and set
// tagsFull, and Serve refuses their stream.
func (c *Cluster) tag(n *Node, slot int32) uint16 {
	if slot == 0 {
		return uint16(n.idx)
	}
	for int(slot) > len(n.tags) {
		n.tags = append(n.tags, 0)
	}
	t := &n.tags[slot-1]
	if *t == 0 {
		if c.tags > math.MaxUint16 {
			c.tagsFull = true
			return math.MaxUint16
		}
		if c.tags == len(c.tagNode) {
			c.tagNode = append(c.tagNode, 0)
		}
		*t, c.tagNode[c.tags] = uint16(c.tags), n.idx
		c.tags++
	}
	return *t
}

// Nodes exposes the fleet (read-only use).
func (c *Cluster) Nodes() []*Node { return c.nodes }

// Runs reports how many streams the cluster has served.
func (c *Cluster) Runs() int { return c.runs }

// Serve runs one request stream across the fleet to completion and
// returns the aggregated report. The first Serve runs against the
// placement plan's freshly preloaded pools; consecutive calls
// warm-restart every node — the shared virtual clock continues and each
// node's pools keep whatever the previous stream left resident. A
// stream that ends with requests in flight poisons the cluster.
func (c *Cluster) Serve(src workload.Source) (*Report, error) {
	if c.broken != nil {
		return nil, c.broken
	}
	if c.serving {
		return nil, fmt.Errorf("cluster: Serve called re-entrantly")
	}
	if err := workload.CheckStream(src, c.m); err != nil {
		return nil, fmt.Errorf("cluster: %w", err)
	}
	c.serving = true
	defer func() { c.serving = false }()

	c.runs++
	c.beginLifecycle()
	for _, n := range c.nodes {
		if err := n.sys.JoinStream(src.Name(), (*delegate)(n)); err != nil {
			// New refuses the one config that fails a healthy node's join
			// (a one-stream replay node), so this node was driven from
			// outside the cluster. The cluster stays poisoned.
			c.broken = fmt.Errorf("cluster: node %s: %w", n.id, err)
			return nil, c.broken
		}
	}
	if c.cfg.Admission != nil {
		c.cfg.Admission.Reset(c.env.Now())
	}
	c.cfg.Faults.Run(c.env, func(ev sim.FaultEvent) { c.applyFault(c.env.Now(), ev) })
	if c.cfg.Autoscaler != nil {
		c.fleetAutoscale()
	}
	if c.health != nil {
		c.env.Every(c.health.cfg.Window, c.healthTick)
	}
	workload.Play(c.env, src, c.arrive, c.sourceClosed)
	c.env.Run()

	if err := c.env.Drained(); err != nil {
		c.broken = fmt.Errorf("cluster: stream %q: %w", src.Name(), err)
		return nil, c.broken
	}
	cs := c.chaos
	cs.verify(c.env.Now(), "stream end")
	if len(cs.violations) > 0 {
		c.broken = fmt.Errorf("cluster: exactly-once accounting violated:\n  %s",
			strings.Join(cs.violations, "\n  "))
		return nil, c.broken
	}
	if !c.closedAll {
		c.broken = fmt.Errorf("cluster: stream %q ended with %d leases outstanding and %d requests undeliverable (no routable node remained to redeliver to)",
			src.Name(), cs.leased, len(cs.pending))
		return nil, c.broken
	}

	reports := make([]*core.Report, len(c.nodes))
	var admitted int64
	for i, n := range c.nodes {
		rep, err := n.sys.StreamReport()
		if err != nil {
			c.broken = fmt.Errorf("cluster: node %s: %w", n.id, err)
			return nil, c.broken
		}
		if rep.Latency.N != 0 || rep.LatencySketch != nil {
			c.broken = fmt.Errorf("cluster: node %s recorded %d latency samples; the front end records every completion", n.id, rep.Latency.N)
			return nil, c.broken
		}
		reports[i] = rep
		admitted += rep.N
	}
	if c.tagsFull {
		return nil, fmt.Errorf("cluster: stream %q has more (node, tenant) pairs than the front end's %d latency tags", src.Name(), math.MaxUint16+1)
	}
	// Every copy a node admitted ends in exactly one front-end counter.
	if got := cs.completions + cs.HedgeWasted + cs.DupAcks + cs.LostLeases + cs.HedgesVoided + cs.HedgePromoted; got != admitted {
		c.broken = fmt.Errorf("cluster: copy accounting violated: nodes admitted %d copies, front end accounts for %d (completions %d + wasted %d + dup acks %d + lost %d + hedges voided %d + promoted %d)",
			admitted, got, cs.completions, cs.HedgeWasted, cs.DupAcks, cs.LostLeases, cs.HedgesVoided, cs.HedgePromoted)
		return nil, c.broken
	}
	return c.report(src.Name(), reports), nil
}

// beginLifecycle resets the per-stream state in place: the recorder,
// durable-delivery bookkeeping, health scoring when configured, drain
// timing and tenant tags. After the first stream it allocates nothing.
func (c *Cluster) beginLifecycle() {
	c.recorder.Reset()
	c.tags, c.tagsFull = len(c.nodes), false
	c.closedAll = false
	c.draining = 0
	copy(c.fleet.up, c.fleet.all)
	c.drainRecords = c.drainRecords[:0]
	*c.chaos = chaosState{pending: c.chaos.pending[:0]}
	for _, n := range c.nodes {
		n.routed, n.lastCrash = 0, 0
		n.drainOn, n.scalerDrained, n.drainStart = false, false, 0
		clear(n.tags)
	}
	if c.health != nil {
		c.health.reset(c.nodes)
	}
}

// arrive takes one arrival from the stream into cluster admission and
// routing.
func (c *Cluster) arrive(now sim.Time, tr workload.TimedRequest) {
	c.chaos.arrivals++
	c.deliver(now, tr)
}

// sourceClosed marks the stream's source exhausted. The nodes' streams
// close as soon as every lease has resolved (maybeClose): a voided lease
// may still need redelivery to a node that has not recovered yet.
func (c *Cluster) sourceClosed(now sim.Time) {
	c.chaos.srcClosed = true
	c.chaos.verify(now, "source exhausted")
	c.maybeClose()
}

// deliver runs one arrival through cluster admission and routing, opens
// its lease, and offers it to the chosen node; the node's answer lands
// as a fold (acceptFold, rejectFold, bounceFold). When no node is
// routable at this instant the lease is parked for redelivery on the
// next recovery.
func (c *Cluster) deliver(now sim.Time, tr workload.TimedRequest) {
	if c.cfg.Admission != nil && !c.cfg.Admission.Admit(now, c, tr.Req) {
		c.recorder.Rejection(now)
		c.chaos.terminalRejected++
		coe.Recycle(tr.Req)
		return
	}
	l := c.openLease(tr.Req)
	idx := c.pickNode(now, tr.Req)
	if idx < 0 {
		// The whole fleet is down or draining. Park the lease (it owns
		// its own chain copy) and recycle the object.
		c.chaos.parkLease(l)
		coe.Recycle(tr.Req)
		return
	}
	c.postOffer(now, idx, l, tr.Req, false)
}

// pickNode routes an arrival, a redelivery or a bounced offer over the
// Up nodes the breaker does not hold, so a draining, crashed or
// quarantined node stops receiving work. When the breaker holds every
// Up node it yields rather than blackhole the fleet: the router picks
// over the whole Up set. Returns -1 when no node is Up at all (only
// possible mid-fault).
func (c *Cluster) pickNode(now sim.Time, r *coe.Request) int {
	f, h := c.fleet, c.health
	mask := f.up
	if h != nil && count(h.open) > 0 {
		mask = f.pick
		h.holdOut(mask, f.up, f.nodes)
		if count(mask) == 0 {
			mask = f.up
			if count(mask) > 0 {
				h.BreakerBypasses++
			}
		}
	}
	return c.route(now, mask, r)
}

// route asks the router for one of the nodes mask sets and returns its
// fleet index, or -1 when mask is empty. A full mask hands the router
// the fleet's own slice, any other the in-order subset of its nodes.
func (c *Cluster) route(now sim.Time, mask []uint64, r *coe.Request) int {
	f := c.fleet
	nodes := f.nodes
	if !slices.Equal(mask, f.all) {
		if nodes = f.subset(mask); len(nodes) == 0 {
			return -1
		}
	}
	j := c.router.Pick(now, nodes, r)
	if j < 0 || j >= len(nodes) {
		panic(fmt.Sprintf("cluster: router %s picked node %d of %d", c.router.Name(), j, len(nodes)))
	}
	return nodes[j].idx
}

// Queued implements control.View for cluster-level admission: the fleet
// backlog across routable nodes.
func (c *Cluster) Queued() int {
	n := 0
	for k, w := range c.fleet.up {
		for ; w != 0; w &= w - 1 {
			n += c.fleet.backlog[k<<6|bits.TrailingZeros64(w)]
		}
	}
	return n
}

// PredictLatency implements control.View: the best (minimum) predicted
// end-to-end latency over routable nodes — the latency an ideal router
// would obtain, the right optimistic bias for shedding decisions.
func (c *Cluster) PredictLatency(r *coe.Request) time.Duration {
	best := time.Duration(-1)
	for k, w := range c.fleet.up {
		for ; w != 0; w &= w - 1 {
			if d := c.nodes[k<<6|bits.TrailingZeros64(w)].PredictLatency(r); best < 0 || d < best {
				best = d
			}
		}
	}
	return max(best, 0)
}

// maybeClose closes every node's stream once the source is exhausted
// and no lease, parked request, or offer on the wire remains. No-op
// until then.
func (c *Cluster) maybeClose() {
	cs := c.chaos
	if !cs.srcClosed || c.closedAll {
		return
	}
	if cs.leased > 0 || len(cs.pending) > 0 {
		return
	}
	if cs.offersInFlight > 0 || cs.hedgeOffers > 0 {
		// An offer is still on the wire: a primary or redelivery will
		// open a lease when its fold lands, and even a hedge duplicate
		// must find its node's stream open to be admitted and drained.
		return
	}
	c.closedAll = true
	for _, n := range c.nodes {
		n.sys.CloseStream()
	}
}

// startDrain puts node i into Draining: it leaves routing, its drain is
// timed from now, and byScaler records whether the fleet autoscaler
// owns it (only those drains does the autoscaler resume).
func (c *Cluster) startDrain(now sim.Time, i int, byScaler bool) {
	n := c.nodes[i]
	n.sys.Drain()
	setBit(c.fleet.up, i, false)
	c.draining++
	n.drainOn, n.drainStart, n.scalerDrained = true, now, byScaler
}

// endDrain ends node i's drain. With resume the node returns to service
// and routing; without, the node crashed mid-drain and stays
// Down, out of routing.
func (c *Cluster) endDrain(i int, resume bool) {
	if resume {
		c.nodes[i].sys.Resume()
		setBit(c.fleet.up, i, true)
	}
	c.draining--
	c.nodes[i].drainOn, c.nodes[i].scalerDrained = false, false
}

// checkDrains records the completion time of any drain that has just
// finished: a Draining node with nothing outstanding has drained, and
// the record is the time from the drain order to this instant.
func (c *Cluster) checkDrains(now sim.Time) {
	for _, n := range c.nodes {
		if n.drainOn && n.sys.State() == core.NodeDraining && n.sys.Outstanding() == 0 {
			n.drainOn = false
			c.drainRecords = append(c.drainRecords, DrainRecord{
				Node: n.id, Took: now.Sub(n.drainStart),
			})
		}
	}
}
