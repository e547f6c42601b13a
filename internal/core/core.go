package core

import (
	"fmt"
	"math"
	"slices"
	"time"

	"repro/internal/coe"
	"repro/internal/control"
	"repro/internal/executor"
	"repro/internal/hw"
	"repro/internal/memory"
	"repro/internal/metrics"
	"repro/internal/model"
	"repro/internal/pool"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/workload"
)

// System is one assembled serving system: executors, pools, queues, and
// the inference controller, bound to a simulation environment. A System
// is long-lived: Serve runs one request stream to completion, and
// consecutive Serve calls warm-restart the system, reusing the expert
// pools (and host cache) exactly as the previous stream left them
// instead of rebuilding the world per run.
//
// The System is the data plane; the control plane (internal/control)
// plugs in through two seams: Config.Admission decides per arrival
// whether dispatch sees the request at all, and Config.Autoscaler
// resizes the active executor set — the prefix of each kind's executors
// that dispatch assigns to — once per utilization window. Deactivated
// executors keep draining already-assigned work and keep their expert
// pools warm, so scaling back up reuses loaded experts.
type System struct {
	cfg      Config
	m        *coe.Model
	env      *sim.Env
	store    *pool.Store
	recorder *metrics.Recorder

	queues    []*sched.Queue
	executors []*executor.Executor
	pools     []*pool.Pool
	assigner  sched.Assigner

	gpuActs, cpuActs *memory.Arena

	// activeGPU/activeCPU count the executors dispatch may assign to;
	// activeQueues is their queue set (aliasing queues when everything is
	// active) and activeIdx maps its positions back to global queue
	// indices (nil when the sets coincide). The counts persist across
	// consecutive streams — the autoscaler's between-stream resizing.
	activeGPU, activeCPU int
	activeQueues         []*sched.Queue
	activeIdx            []int
	// backlog counts the requests on activeQueues, kept current by the
	// queues themselves (sched.Queue.CountInto), with an idle bit set
	// while the count is 0. It counts into queued and idle until a
	// cluster moves it into its fleet tables (CountBacklogInto).
	backlog sched.Backlog
	queued  int
	idle    uint64

	ctrl    *controller
	measure bool // the Figure 19 probe runs: online scheduling, not replay
	runs    int
	serving bool
	broken  error

	// state is the node's lifecycle state on the cluster seam; epoch
	// advances on every crash so executors mid-batch at the crash
	// instant can tell their results are void (see executor.Epoch).
	// A system no fault touches stays NodeUp at epoch 0 forever.
	state NodeState
	epoch int

	// gray is the node's active performance degradation (see gray.go).
	// Nil — the healthy fast path — on every node a fault plan has not
	// touched.
	gray *grayState

	// windowExperts collects the distinct experts dispatched since the
	// last autoscaler window boundary — the working-set width a
	// reachability-aware autoscaler compares against surviving pool
	// capacity. Nil (and unmaintained) unless an autoscaler is configured.
	windowExperts map[coe.ExpertID]struct{}
	// gpuPoolSlots/cpuPoolSlots estimate how many model-average experts
	// one executor's pool holds — the autoscaler's reachability unit.
	gpuPoolSlots, cpuPoolSlots int
}

// NewSystem builds a system for the CoE model under the configuration,
// on a simulation environment of its own.
func NewSystem(cfg Config, m *coe.Model) (*System, error) {
	return NewSystemInEnv(cfg, m, sim.NewEnv())
}

// NewSystemInEnv builds a system bound to the given simulation
// environment: the cluster layer's node constructor, where every node
// shares the fleet's env. Every stream runs the one protocol JoinStream,
// OfferAt, CloseStream, StreamReport; Serve is that protocol driven by
// the system's own source and event loop, and the cluster drives it
// from its front end, running the shared env itself.
func NewSystemInEnv(cfg Config, m *coe.Model, env *sim.Env) (*System, error) {
	if env == nil {
		return nil, fmt.Errorf("core: NewSystemInEnv needs an environment")
	}
	cfg = Resolve(cfg)

	var largestWeight, largestGPUAct, largestCPUAct int64
	// Executors and queues read profiled costs per architecture (archs,
	// sorted by name), indexed by archOf, not the matrix by name.
	archs, archOf := m.Archs()
	if cfg.Perf != nil {
		if err := cfg.Perf.Covers(archs); err != nil {
			return nil, err
		}
		for _, a := range archs {
			if w := a.WeightBytes(); w > largestWeight {
				largestWeight = w
			}
			if act := cfg.Perf.MustLookup(a.Name, hw.GPU).ActPerImage; act > largestGPUAct {
				largestGPUAct = act
			}
			if act := cfg.Perf.MustLookup(a.Name, hw.CPU).ActPerImage; act > largestCPUAct {
				largestCPUAct = act
			}
		}
	}
	if err := cfg.validate(largestWeight, largestGPUAct, largestCPUAct); err != nil {
		return nil, err
	}
	for _, id := range cfg.Preload {
		if id < 0 || int(id) >= m.NumExperts() {
			return nil, fmt.Errorf("core: preload plan names expert %d outside model %q (%d experts)",
				id, m.Name(), m.NumExperts())
		}
	}

	s := &System{
		cfg:      cfg,
		m:        m,
		env:      env,
		recorder: metrics.NewRecorder(),
		measure:  cfg.PreschedPicks == nil,
	}
	s.store = pool.NewStore(s.env, cfg.Device, cfg.Alloc.HostCacheBytes, m)
	if cfg.PreschedPicks != nil {
		s.assigner = sched.NewReplay(cfg.PreschedPicks)
	} else {
		s.assigner = cfg.Variant.row().assigner()
	}

	s.gpuActs = memory.NewArena("gpu/acts", cfg.Alloc.GPUActBytes)
	s.cpuActs = memory.NewArena("cpu/acts", cfg.Alloc.CPUActBytes)
	gpuCompute := sim.NewResource(s.env, "gpu/compute", 1)
	cpuCompute := sim.NewResource(s.env, "cpu/compute", 1)

	// prefix namespaces executor, queue, and pool names per node when the
	// system is one of several sharing an env ("node0/gpu1"); empty — and
	// absent from every name — in the single-node arrangement.
	prefix := ""
	if cfg.ID != "" {
		prefix = cfg.ID + "/"
	}

	// Each processor kind's executors share one table of profiled costs
	// per architecture (archs order, indexed by archOf): the executor's
	// profile and execution latency, and its queue's §4.2 coefficients.
	type kindCosts struct {
		tier    memory.Tier
		poolCap int64
		acts    *memory.Arena
		compute *sim.Resource
		perfs   []model.Perf
		exec    *model.ExecTable
		k, b    []time.Duration
		// shared is the kind's one pool in shared-pool variants, -1
		// otherwise: an index into s.pools.
		shared int
	}
	costsOf := func(kind hw.ProcKind, tier memory.Tier, poolCap int64, acts *memory.Arena, compute *sim.Resource) *kindCosts {
		proc := cfg.Device.Proc(kind)
		kc := &kindCosts{
			tier: tier, poolCap: poolCap, acts: acts, compute: compute,
			perfs: make([]model.Perf, len(archs)), exec: model.NewExecTable(archs, proc),
			k: make([]time.Duration, len(archs)), b: make([]time.Duration, len(archs)),
			shared: -1,
		}
		for i, a := range archs {
			kc.perfs[i] = cfg.Perf.MustLookup(a.Name, kind)
			kc.k[i], kc.b[i] = kc.perfs[i].K, kc.perfs[i].B
		}
		return kc
	}
	gpu := costsOf(hw.GPU, memory.TierGPU, cfg.Alloc.GPUExpertBytes/int64(cfg.GPUExecutors), s.gpuActs, gpuCompute)
	var cpu *kindCosts
	if cfg.CPUExecutors > 0 {
		cpu = costsOf(hw.CPU, memory.TierCPU, cfg.Alloc.CPUExpertBytes/int64(cfg.CPUExecutors), s.cpuActs, cpuCompute)
	}

	// Shared-pool variants use one pool per processor; otherwise each
	// executor owns a pool. Every executor is named and given its pool
	// first, so the node's pools can share one Loaded table before its
	// queues read it.
	if cfg.Variant.row().shared {
		gpu.shared = len(s.pools)
		s.pools = append(s.pools, pool.New(prefix+"gpu-shared", cfg.Alloc.GPUExpertBytes, s.store, memory.TierGPU, cfg.evictPolicy(), s.env.Now))
		if cpu != nil {
			cpu.shared = len(s.pools)
			s.pools = append(s.pools, pool.New(prefix+"cpu-shared", cfg.Alloc.CPUExpertBytes, s.store, memory.TierCPU, cfg.evictPolicy(), s.env.Now))
		}
	}
	type slot struct {
		name string
		kc   *kindCosts
		pool int
	}
	slots := make([]slot, 0, cfg.GPUExecutors+cfg.CPUExecutors)
	add := func(name string, kc *kindCosts) {
		pl := kc.shared
		if pl < 0 {
			pl = len(s.pools)
			s.pools = append(s.pools, pool.New(name, kc.poolCap, s.store, kc.tier, cfg.evictPolicy(), s.env.Now))
		}
		slots = append(slots, slot{name, kc, pl})
	}
	for i := 0; i < cfg.GPUExecutors; i++ {
		add(fmt.Sprintf("%sgpu%d", prefix, i), gpu)
	}
	for i := 0; i < cfg.CPUExecutors; i++ {
		add(fmt.Sprintf("%scpu%d", prefix, i), cpu)
	}
	node := sched.NewNode(len(slots), s.store.Prices(), pool.Carve(s.pools))
	for _, sl := range slots {
		kc := sl.kc
		q := node.NewQueue(s.env, sl.name, cfg.Variant.row().mode, sched.Costs{K: kc.k, B: kc.b, Tier: kc.tier, Slot: s.pools[sl.pool].Slot()})
		ex := &executor.Executor{
			Name:    sl.name,
			Env:     s.env,
			Exec:    kc.exec,
			Queue:   q,
			Pool:    s.pools[sl.pool],
			Compute: kc.compute,
			Acts:    kc.acts,
			Perfs:   kc.perfs,
			ArchOf:  archOf,
			Done:    s.streamDone,
			OnBatch: s.onBatch,
			Epoch:   s.crashEpoch,
			OnVoid:  s.onVoid,
			Degrade: s.degrade,
		}
		s.queues = append(s.queues, q)
		s.executors = append(s.executors, ex)
	}
	if cfg.Trace != nil {
		for _, pl := range s.pools {
			pl := pl
			pl.Observer = func(e *coe.Expert, source string, elapsed time.Duration) {
				cfg.Trace.Add(trace.Event{
					At: s.env.Now().Duration(), Kind: trace.KindSwitch,
					Actor: pl.Name(), Expert: int32(e.ID), Dur: elapsed, Detail: source,
				})
			}
		}
		for _, ex := range s.executors {
			ex := ex
			ex.Observer = func(e *coe.Expert, n int, lat time.Duration) {
				cfg.Trace.Add(trace.Event{
					At: s.env.Now().Duration(), Kind: trace.KindBatch,
					Actor: ex.Name, Expert: int32(e.ID), N: n, Dur: lat,
				})
			}
		}
	}

	if cfg.Autoscaler != nil && !cfg.Variant.row().shared {
		// Reachability inputs for the autoscaler: the working-set tracker
		// and the per-executor expert-slot estimate (pool capacity over
		// the model's mean expert size). Only maintained when a control
		// plane is on — the bare data path stays untouched. Shared-pool
		// variants are excluded: their one pool keeps its full capacity
		// at any active count, so scale-down never loses reachability and
		// the guard correctly stands down on a zero working set.
		s.windowExperts = make(map[coe.ExpertID]struct{})
		if n := m.NumExperts(); n > 0 {
			if mean := m.TotalWeightBytes() / int64(n); mean > 0 {
				s.gpuPoolSlots = int(cfg.Alloc.GPUExpertBytes / int64(cfg.GPUExecutors) / mean)
				if cfg.CPUExecutors > 0 {
					s.cpuPoolSlots = int(cfg.Alloc.CPUExpertBytes / int64(cfg.CPUExecutors) / mean)
				}
			}
		}
	}

	s.recorder.SetWindow(cfg.Window)
	if cfg.Percentiles == PercentilesSketch {
		// No group sketch up front: requests without a tenant (tag 0)
		// are the whole population until a tenant's request arrives.
		s.recorder.UseSketch(0)
	}
	s.backlog = sched.Backlog{N: &s.queued, Idle: &s.idle, Mask: 1}
	s.setActive(cfg.GPUExecutors, cfg.CPUExecutors)
	s.initializeExperts()
	return s, nil
}

// Env returns the simulation environment the system is bound to.
func (s *System) Env() *sim.Env { return s.env }

// setActive resizes the active executor set to the first gpu GPU and
// first cpu CPU executors, clamped to the built topology (at least one
// GPU executor stays active). Queues outside the active set stop
// receiving assignments but their executors keep draining queued work,
// and their pools keep loaded experts resident for later reactivation.
func (s *System) setActive(gpu, cpu int) {
	gpu = min(max(gpu, 1), s.cfg.GPUExecutors)
	cpu = min(max(cpu, 0), s.cfg.CPUExecutors)
	s.activeGPU, s.activeCPU = gpu, cpu
	if gpu == s.cfg.GPUExecutors && cpu == s.cfg.CPUExecutors {
		s.activeQueues, s.activeIdx = s.queues, nil
	} else {
		if s.activeIdx == nil {
			s.activeQueues = nil // was aliasing s.queues; start a private set
		}
		s.activeQueues, s.activeIdx = s.activeQueues[:0], s.activeIdx[:0]
		for i := 0; i < gpu; i++ {
			s.activeQueues = append(s.activeQueues, s.queues[i])
			s.activeIdx = append(s.activeIdx, i)
		}
		for i := 0; i < cpu; i++ {
			gi := s.cfg.GPUExecutors + i
			s.activeQueues = append(s.activeQueues, s.queues[gi])
			s.activeIdx = append(s.activeIdx, gi)
		}
	}
	// Only active queues count toward the backlog: detach them all, then
	// attach the active set and recount.
	for _, q := range s.queues {
		q.CountInto(nil)
	}
	for _, q := range s.activeQueues {
		q.CountInto(&s.backlog)
	}
	s.recount()
}

// recount sets the backlog, and its idle bit, from the active queues.
func (s *System) recount() {
	n := 0
	for _, q := range s.activeQueues {
		n += q.Len()
	}
	s.backlog.Set(n)
}

// CountBacklogInto moves the node's backlog count to *n and its idle flag
// to the bit mask of *idle — slots in a cluster front end's tables, so
// routing reads every node's backlog from one slice and every node's
// idleness from one bitset. The active queues keep both current from
// here on, across autoscaler moves and crash purges.
func (s *System) CountBacklogInto(n *int, idle *uint64, mask uint64) {
	s.backlog = sched.Backlog{N: n, Idle: idle, Mask: mask}
	s.recount()
}

// Active reports the active executor counts per kind — the topology the
// autoscaler has currently selected.
func (s *System) Active() (gpu, cpu int) { return s.activeGPU, s.activeCPU }

// Queued implements control.View: the backlog across active queues.
// The active queues keep the count current, so this is one read.
func (s *System) Queued() int { return *s.backlog.N }

// PredictLatency implements control.View: the predicted end-to-end
// latency of a request admitted now. Its current stage is priced as the
// best queue's predicted finish time plus the stage's predicted added
// cost (sched.Queue.Predict); remaining stages add their best-queue
// predicted cost alone — optimistic, which is the right bias for
// shedding: a request rejected under an optimistic prediction was
// certain to miss.
func (s *System) PredictLatency(r *coe.Request) time.Duration {
	now := s.env.Now()
	var total time.Duration
	for stage := r.Stage(); stage < r.Stages(); stage++ {
		e := s.m.Expert(r.Chain[stage])
		best := time.Duration(-1)
		for _, q := range s.activeQueues {
			d := q.Predict(e).Add()
			if stage == r.Stage() {
				d += q.FinishTime(now).Sub(now)
			}
			if best < 0 || d < best {
				best = d
			}
		}
		total += best
	}
	return total
}

// initializeExperts preloads experts into pools round-robin in
// descending usage-probability order until every pool is full (§4.1,
// "Experts are distributed into each executor in a round-robin manner,
// prioritized by descending usage probabilities"). A non-nil
// Config.Preload replaces the usage order with an explicit plan — the
// cluster placement hook — preloaded round-robin in plan order.
func (s *System) initializeExperts() {
	if s.cfg.Variant.row().cold {
		return
	}
	var order []*coe.Expert
	if s.cfg.Preload != nil {
		order = make([]*coe.Expert, len(s.cfg.Preload))
		for i, id := range s.cfg.Preload {
			order[i] = s.m.Expert(id)
		}
	} else {
		order = s.m.ExpertsByUsage()
	}
	full := make([]bool, len(s.pools))
	next := 0
	for _, e := range order {
		placed := false
		for try := 0; try < len(s.pools); try++ {
			i := (next + try) % len(s.pools)
			if full[i] {
				continue
			}
			if s.pools[i].Preload(e) {
				next = (i + 1) % len(s.pools)
				placed = true
				break
			}
			full[i] = true
		}
		if !placed {
			break // every pool refused it, so every pool is now marked full
		}
	}
	for _, pl := range s.pools {
		pl.ResetStats()
	}
}

// Queues exposes the executor queues (read-only use).
func (s *System) Queues() []*sched.Queue { return s.queues }

// Pools exposes the executor pools (read-only use).
func (s *System) Pools() []*pool.Pool { return s.pools }

// LoadedExperts reports the number of preloaded experts across pools.
func (s *System) LoadedExperts() int {
	n := 0
	for _, pl := range s.pools {
		n += pl.Loaded()
	}
	return n
}

// schedSample is the Figure 19 probe's sampling period: dispatch times
// one decision in this many, so every node pays little for the probe.
const schedSample = 64

// dispatch assigns a request's current stage to a queue (§4.2). The
// assigner only sees the active queue set — the autoscaler's scaling
// hook — and its pick maps back to a global queue index. The wall-clock
// cost of the decision is the Figure 19 scheduling overhead: every
// online decision is counted, and one in schedSample is timed.
func (s *System) dispatch(r *coe.Request) {
	e := s.m.Expert(r.Expert())
	timed := s.measure && s.recorder.SchedOps()%schedSample == 0
	var start time.Time
	if timed {
		//detlint:allow deliberate wall-clock probe: the sampled Figure 19 sched-cost measurement, never part of table output
		start = time.Now()
	}
	idx, p := s.assigner.Pick(s.env.Now(), s.activeQueues, e)
	if s.activeIdx != nil {
		idx = s.activeIdx[idx]
	}
	s.queues[idx].Enqueue(e, r, p)
	if timed {
		//detlint:allow deliberate wall-clock probe: closes the sampled sched-cost measurement opened above
		s.recorder.SchedOp(time.Since(start))
	} else if s.measure {
		s.recorder.SchedUntimed()
	}
	if s.windowExperts != nil {
		s.windowExperts[e.ID] = struct{}{}
	}
	if s.cfg.Admission != nil {
		// The backlog bound the control plane enforced, observable as the
		// report's peak queue depth. Sampled on every dispatch — arrivals
		// and stage re-dispatches — only when the control plane is on, so
		// the bare data path does not pay for it.
		if q := s.Queued(); q > s.ctrl.peakQueued {
			s.ctrl.peakQueued = q
		}
	}
	if s.cfg.Trace != nil {
		s.cfg.Trace.Add(trace.Event{
			At: s.env.Now().Duration(), Kind: trace.KindAssign,
			Actor: s.queues[idx].Name(), Request: r.ID, Expert: int32(e.ID),
		})
	}
}

// TracedPicks turns the KindAssign events of the last stream a trace
// recorded into the global queue indices Config.PreschedPicks replays,
// matching each event's Actor to a name in queues — the Queues() of the
// system that recorded the trace. A log that assigns to a queue not in
// queues is an error: the sequence would not be the one served.
func TracedPicks(log *trace.Log, queues []*sched.Queue) ([]int, error) {
	var picks []int
	for _, ev := range log.Events() {
		switch ev.Kind {
		case trace.KindStream:
			picks = picks[:0]
		case trace.KindAssign:
			i := slices.IndexFunc(queues, func(q *sched.Queue) bool { return q.Name() == ev.Actor })
			if i < 0 {
				return nil, fmt.Errorf("core: trace assigns to queue %q, which is not among the system's queues", ev.Actor)
			}
			picks = append(picks, i)
		}
	}
	return picks, nil
}

// streamDone reports whether the current stream has fully completed —
// the executors' exit condition. A crashed node's executors also stand
// down: its queues were purged and its in-flight work voided.
func (s *System) streamDone() bool {
	return s.state == NodeDown || (s.ctrl != nil && s.ctrl.finished)
}

// crashEpoch is the executors' Epoch hook: it advances on every CrashAt,
// letting an executor mid-batch at the crash instant discard the
// batch's results instead of acking voided work.
func (s *System) crashEpoch() int { return s.epoch }

// onBatch forwards stage completions to the active stream's controller.
func (s *System) onBatch(now sim.Time, r *coe.Request) {
	s.ctrl.onBatch(now, r)
}

// onVoid forwards crash-voided batch requests to the controller's drop
// path: accounted, recycled, never acked.
func (s *System) onVoid(now sim.Time, r *coe.Request) {
	s.ctrl.drop(now, r)
}

// Serve runs one request stream to completion and returns its report.
// The first Serve runs against the freshly initialized pools (§4.1);
// consecutive Serve calls warm-restart the system — the virtual clock
// continues and the pools keep whatever experts the previous stream
// left resident, so a follow-up stream with a similar working set pays
// far fewer expert switches than a cold rebuild. Per-stream statistics
// (recorder, executor and pool counters) are reset at
// each restart; a stream that ends with requests still in flight
// poisons the System and fails all further calls.
//
// Serve is the stream protocol driven from inside: it joins a stream
// whose requests it recycles itself, plays the source into OfferAt,
// closes the stream when the source is exhausted, and runs the env.
func (s *System) Serve(src workload.Source) (*Report, error) {
	if err := workload.CheckStream(src, s.m); err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	if err := s.JoinStream(src.Name(), recycler{s}); err != nil {
		return nil, err
	}
	workload.Play(s.env, src, func(now sim.Time, tr workload.TimedRequest) {
		if !s.OfferAt(now, tr.Req) {
			coe.Recycle(tr.Req)
		}
	}, func(sim.Time) { s.CloseStream() })
	s.env.Run()
	if err := s.env.Drained(); err != nil {
		s.serving = false
		s.broken = fmt.Errorf("core: stream %q: %w", src.Name(), err)
		return nil, s.broken
	}
	return s.StreamReport()
}

// recycler is the stream delegate of a system serving its own source.
// The system resolves its requests itself, so the recycler records each
// completion's latency in the system's recorder, tagged with its
// tenant; nothing outside holds the requests, so each goes back to its
// arena the moment the node is done with it.
type recycler struct{ s *System }

func (d recycler) RequestDone(now sim.Time, r *coe.Request) {
	d.s.recorder.Sample(now.Sub(r.Arrival).Seconds(), tag(r))
	coe.Recycle(r)
}

func (recycler) RequestDropped(_ sim.Time, r *coe.Request) { coe.Recycle(r) }

// resetStream zeroes the per-stream statistics for a warm restart,
// keeping the recorder's sample buffers and — deliberately — the pool
// contents, the warm state.
func (s *System) resetStream() {
	s.recorder.Reset()
	// Experts dispatched after the previous stream's last window
	// boundary must not inflate the next stream's first working-set
	// sample (clear is a no-op on a nil map).
	clear(s.windowExperts)
	for _, ex := range s.executors {
		ex.ResetStats()
	}
	for _, pl := range s.pools {
		pl.ResetStats()
	}
}

// StreamDelegate observes a stream's requests from outside the node —
// the cluster layer's completion hook, or Serve's recycler — and owns
// the request objects: the node never recycles a request itself.
// RequestDone fires once per admitted request, at the virtual instant
// its final stage completes, after the node's own counters; whoever
// resolves the request records its latency — Serve's recycler into the
// system's recorder, the cluster on its front end — so a node joined to
// a fleet keeps no latency samples. RequestDropped fires instead when a
// crash voids the request. Either way the object passes back to the
// delegate. A request OfferAt rejects stays with the caller.
type StreamDelegate interface {
	RequestDone(now sim.Time, r *coe.Request)
	RequestDropped(now sim.Time, r *coe.Request)
}

// JoinStream arms the system for one stream named stream whose
// requests the delegate d receives back: per-stream statistics are
// reset on a warm restart, the executors are started on the env, and
// subsequent OfferAt calls feed arrivals in. The env's driver closes the
// stream with CloseStream once the arrival process is exhausted and
// collects the node's slice of the run with StreamReport after the env
// drains. A poisoned system, one with a stream already open, and a
// replay system that has served its one stream refuse.
func (s *System) JoinStream(stream string, d StreamDelegate) error {
	if s.broken != nil {
		return s.broken
	}
	if s.serving {
		return fmt.Errorf("core: stream started re-entrantly")
	}
	if s.runs > 0 && s.cfg.PreschedPicks != nil {
		// A replay system reissues one recorded assignment sequence; a
		// second stream would run past it.
		return fmt.Errorf("core: a pre-scheduled (replay) system serves exactly one stream")
	}
	s.serving = true
	if s.runs > 0 {
		// Warm restart: zero the per-stream statistics. Pool contents —
		// the warm state — are deliberately kept.
		s.resetStream()
	}
	s.runs++
	// A node left Down, Draining, or gray-degraded by a previous
	// stream's faults starts the next stream healthy — the operator
	// reset between streams.
	s.state = NodeUp
	s.gray = nil
	s.ctrl = newController(s, stream, d)
	if s.cfg.Admission != nil {
		s.cfg.Admission.Reset(s.env.Now())
	}
	if s.cfg.Trace != nil {
		// Delimit consecutive streams: request IDs restart per stream.
		s.cfg.Trace.Add(trace.Event{
			At: s.env.Now().Duration(), Kind: trace.KindStream, Detail: stream,
		})
	}
	for _, ex := range s.executors {
		ex.Start()
	}
	if s.cfg.Autoscaler != nil {
		s.autoscale()
	}
	return nil
}

// OfferAt feeds one arrival into the node's admission and dispatch path
// at virtual time now, the node's current instant, and reports whether
// the node admitted it. An admitted request is the node's until it
// passes back through the stream delegate — on completion, or on a
// crash that voids it. A rejected request leaves only a rejection mark;
// a node that is not Up refuses the offer outright, leaving no mark at
// all (the dispatcher should not have routed here). Either way a refused
// request stays with the caller. OfferAt must only be called between
// JoinStream and CloseStream, from an event callback of the system's env.
func (s *System) OfferAt(now sim.Time, r *coe.Request) bool {
	return s.state == NodeUp && s.ctrl.offer(now, r)
}

// CloseStream marks the stream's arrival process exhausted: once the
// node's admitted requests drain, its executors shut down.
func (s *System) CloseStream() {
	c := s.ctrl
	c.closed = true
	if c.completed+c.dropped == c.admitted {
		c.finish()
	}
}

// StreamReport ends the stream after the env has drained and returns
// the node's slice of the run. A stream that ended with requests still
// in flight poisons the system.
func (s *System) StreamReport() (*Report, error) {
	if !s.serving {
		return nil, fmt.Errorf("core: StreamReport without an open stream")
	}
	s.serving = false
	if !s.ctrl.finished {
		s.broken = fmt.Errorf("core: stream %q ended with %d of %d requests incomplete",
			s.ctrl.stream, s.ctrl.admitted-s.ctrl.completed-s.ctrl.dropped, s.ctrl.admitted)
		return nil, s.broken
	}
	if n := len(s.ctrl.tenants); n > math.MaxUint16 {
		return nil, fmt.Errorf("core: stream %q has %d tenants, more than its %d latency tags", s.ctrl.stream, n, math.MaxUint16)
	}
	return s.report(s.ctrl.stream), nil
}

// autoscale starts the control-plane loop: once per window it samples
// each kind's busy fraction over the window and the standing backlog,
// asks the autoscaler for the desired active counts, and applies them,
// until the stream finishes. The active counts persist across
// consecutive streams, so a follow-up stream starts on the topology the
// previous one converged to — with the deactivated executors' pools
// still warm.
func (s *System) autoscale() {
	window := s.cfg.Window
	// Busy times restart at zero with every stream (resetStream).
	lastBusy := make([]time.Duration, len(s.executors))
	s.env.Every(window, func() bool {
		if s.ctrl.finished {
			return false
		}
		// Busy fraction per kind over the window's active executors.
		// Inactive executors may still be draining leftover work; their
		// snapshots advance but do not count toward utilization.
		busyOver := func(from, count int) float64 {
			var busy time.Duration
			for i := from; i < from+count; i++ {
				busy += s.executors[i].BusyTime() - lastBusy[i]
			}
			if count == 0 {
				return 0
			}
			return busy.Seconds() / (window.Seconds() * float64(count))
		}
		u := control.Utilization{
			Window:       window,
			GPUBusy:      busyOver(0, s.activeGPU),
			CPUBusy:      busyOver(s.cfg.GPUExecutors, s.activeCPU),
			Queued:       s.Queued(),
			WorkingSet:   len(s.windowExperts),
			GPUPoolSlots: s.gpuPoolSlots,
			CPUPoolSlots: s.cpuPoolSlots,
		}
		clear(s.windowExperts)
		for i, ex := range s.executors {
			lastBusy[i] = ex.BusyTime()
		}
		g, c := s.cfg.Autoscaler.Scale(s.env.Now(), u, s.activeGPU, s.activeCPU)
		s.setActive(g, c)
		return true
	})
}

// Runs reports how many streams the system has served.
func (s *System) Runs() int { return s.runs }

// RunTask serves the task's closed-loop fixed-period stream — the
// paper's arrival shape — and returns the report. It is Serve over
// Task.Stream; like Serve, it may be called repeatedly for consecutive
// tasks on warm pools.
func (s *System) RunTask(task workload.Task) (*Report, error) {
	src, err := task.Stream()
	if err != nil {
		return nil, err
	}
	return s.Serve(src)
}
