// Package executor implements inference executors: event-driven state
// machines that drain a request queue, ensure the required expert is
// resident (triggering managed expert switches), split work into batches
// bounded by profiled maximum batch size and free activation memory, and
// execute on the shared compute resource of their processor (§4.1 steps
// 4–8).
package executor

import (
	"fmt"
	"time"

	"repro/internal/coe"
	"repro/internal/memory"
	"repro/internal/model"
	"repro/internal/pool"
	"repro/internal/sched"
	"repro/internal/sim"
)

// Executor drives one inference pipeline on a GPU or CPU.
type Executor struct {
	// Name identifies the executor ("gpu0", "cpu1", ...).
	Name string
	// Env is the simulation the executor runs in.
	Env *sim.Env
	// Exec holds the ground-truth execution latency of a batch on the
	// executor's processor, by architecture index (ArchOf).
	Exec *model.ExecTable
	// Queue is the executor's request queue, fed by the controller.
	Queue *sched.Queue
	// Pool holds the executor's resident experts.
	Pool *pool.Pool
	// Compute serializes execution with the other executors sharing the
	// physical processor.
	Compute *sim.Resource
	// Acts is the activation-memory arena shared by the executors of
	// this processor (the §3.3 intermediate-results budget).
	Acts *memory.Arena
	// Perfs holds the profiled performance entry of each architecture
	// on the executor's processor, indexed by ArchOf: an expert's
	// architecture index (coe.Model.Archs).
	Perfs  []model.Perf
	ArchOf []uint8
	// Done reports whether the task has fully completed; the executor
	// exits when its queue is empty and Done is true.
	Done func() bool
	// OnBatch is called after a batch finishes, once per request, in
	// queue order. The controller advances multi-stage requests and
	// records completions here.
	OnBatch func(now sim.Time, r *coe.Request)
	// Observer, when set, is invoked once per executed batch.
	Observer func(e *coe.Expert, n int, lat time.Duration)
	// Epoch reports the data plane's crash epoch. A run snapshots it
	// when it begins and takes no batch once it has changed; if it
	// changed by the time a batch finishes — the node crashed mid-batch —
	// the batch's results are discarded and its requests handed to
	// OnVoid instead of OnBatch, so a since-restarted node never acks
	// work the crash voided.
	Epoch func() int
	// OnVoid receives the requests of a batch voided by a mid-execution
	// crash, once per request, in queue order.
	OnVoid func(now sim.Time, r *coe.Request)
	// Degrade maps a batch's profiled execution latency to the
	// latency actually served — the gray-failure seam. It is consulted
	// once per batch, after the busy-until estimate is published but
	// before execution starts: the executor's own prediction stays at the
	// healthy profile number because a gray-degraded node does not know
	// it is sick. That gap — real completions stretching while the
	// node's self-model keeps promising fast — is what makes fail-slow
	// invisible to model-driven routing and is the whole reason health
	// must be measured from completions. A healthy node returns lat
	// unchanged.
	Degrade func(now sim.Time, lat time.Duration) time.Duration

	processed int64
	batches   int64
	busy      time.Duration

	// idle lists the runs that have returned, for Start to reuse.
	idle *run
}

// Processed reports the number of requests executed.
func (ex *Executor) Processed() int64 { return ex.processed }

// Batches reports the number of batches executed.
func (ex *Executor) Batches() int64 { return ex.batches }

// BusyTime reports cumulative virtual execution time (excluding loads).
func (ex *Executor) BusyTime() time.Duration { return ex.busy }

// ResetStats zeroes the per-run counters. The serving layer calls it
// between consecutive streams so each report covers one stream.
func (ex *Executor) ResetStats() {
	ex.processed, ex.batches, ex.busy = 0, 0, 0
}

// Start launches a serving run at the current instant, after the
// events already due now. The run drains the queue until it is empty
// and Done reports true, or until the crash epoch moves on. A restart
// may start a run while a crashed epoch's run still unwinds its last
// batch, so each run keeps its own state, and Start reuses only a run
// that has returned.
func (ex *Executor) Start() {
	if ex.Env == nil || ex.OnBatch == nil || ex.Done == nil || ex.Epoch == nil || ex.OnVoid == nil || ex.Degrade == nil {
		panic(fmt.Sprintf("executor %s: incomplete wiring", ex.Name))
	}
	r := ex.idle
	if r != nil {
		ex.idle, r.nextIdle = r.nextIdle, nil
	} else {
		r = &run{ex: ex}
		r.beginFn, r.nextFn, r.proceedFn, r.reservedFn, r.executedFn = r.begin, r.next, r.proceed, r.reserved, r.executed
	}
	ex.Env.After(0, r.beginFn)
}

// run is one serving run of an executor: the state its continuations
// share, which are bound once as method values when the run is first
// made, so neither a batch nor a later run on it allocates.
type run struct {
	ex    *Executor
	epoch int // the crash epoch the run serves

	// The group being drained, nil once a take drains it; its expert,
	// the expert's architecture index and profile.
	g    *sched.Group
	e    *coe.Expert
	arch uint8
	perf *model.Perf
	// The batch in flight, in a buffer the run owns and reuses; the
	// group's predicted remaining time when it was taken, its activation
	// bytes and its served latency.
	batch    []*coe.Request
	rest     time.Duration
	actBytes int64
	lat      time.Duration

	beginFn, nextFn, proceedFn, reservedFn, executedFn func()

	nextIdle *run // link in the executor's idle list
}

// end returns a run that has nothing left scheduled to its executor's
// idle list.
func (r *run) end() { r.nextIdle, r.ex.idle = r.ex.idle, r }

// begin snapshots the crash epoch the run belongs to and starts serving.
func (r *run) begin() {
	r.epoch = r.ex.Epoch()
	r.next()
}

// next is the serving loop: it takes the head group, pins its expert
// and serves its batches, and when the queue is empty it waits on the
// queue's gate or, once Done, ends the run.
func (r *run) next() {
	ex := r.ex
	for {
		if ex.Epoch() != r.epoch {
			// This run belongs to a crashed epoch: the node restarted and
			// launched a fresh run. End so the executor is never served
			// by two runs at once.
			r.end()
			return
		}
		g := ex.Queue.Head()
		if g == nil {
			if ex.Done() {
				r.end()
				return
			}
			ex.Queue.Gate().Wait(r.nextFn)
			return
		}
		r.g, r.e = g, g.Expert
		r.arch = ex.ArchOf[r.e.ID]
		r.perf = &ex.Perfs[r.arch]
		if !ex.Pool.Acquire(r.e, r.proceedFn) || !r.serve() {
			return
		}
	}
}

// proceed continues the group being drained — once its expert is
// pinned, and after each batch — and the serving loop once it is done.
func (r *run) proceed() {
	if r.serve() {
		r.next()
	}
}

// serve takes the next batch of the group being drained — at most one
// expert switch per group, then as many batches as the split bound
// allows — and starts it, reporting false. Once the group is drained, or
// the node crashed since the run began, it unpins the expert and reports
// true. The head group may keep growing while a batch executes
// (same-expert arrivals slot in behind it as fresh groups; see sched);
// only this group is drained, and the loop in next picks up successors.
func (r *run) serve() bool {
	ex, g := r.ex, r.g
	// A crash purges the queue, recycling its groups for the restarted
	// epoch's arrivals, so a crashed epoch's run must not touch g again.
	if g != nil && ex.Epoch() == r.epoch {
		bound := sched.SplitBound(r.perf.MaxBatch, ex.Acts.Free(), r.perf.ActPerImage)
		r.batch = ex.Queue.TakeFromHead(r.batch[:0], bound)
		r.rest = g.PredictedRemaining()
		if g.Len() == 0 {
			r.g = nil // drained: the queue has recycled it
		}
		r.actBytes = r.perf.ActPerImage * int64(len(r.batch))
		if ex.Acts.WaitReserve(ex.Env, r.actBytes, r.reservedFn) {
			r.reserved()
		}
		return false
	}
	ex.Pool.Release(r.e.ID)
	return true
}

// reserved runs the batch once its activation memory is held.
func (r *run) reserved() {
	ex := r.ex
	now := ex.Env.Now()
	lat := ex.Exec.Latency(r.arch, len(r.batch))
	ex.Queue.SetBusyUntil(now.Add(lat + r.rest))
	r.lat = ex.Degrade(now, lat)
	ex.Compute.Use(r.lat, r.executedFn)
}

// executed hands a finished batch's requests on and continues the group.
func (r *run) executed() {
	ex := r.ex
	ex.Acts.Release(r.actBytes)
	now := ex.Env.Now()
	if ex.Epoch() != r.epoch {
		// The node crashed while this batch was in flight (waiting for
		// memory, compute, or mid-execution). Its results are void: the
		// crash already purged the queue and the dispatcher is
		// redelivering the node's leases, so handing these to OnBatch
		// would double-serve them. Resources were released above; the
		// batch just produces nothing.
		for _, req := range r.batch {
			ex.OnVoid(now, req)
		}
		ex.Pool.Release(r.e.ID)
		r.next()
		return
	}
	ex.busy += r.lat
	ex.batches++
	ex.processed += int64(len(r.batch))
	if ex.Observer != nil {
		ex.Observer(r.e, len(r.batch), r.lat)
	}
	for _, req := range r.batch {
		ex.OnBatch(now, req)
	}
	r.proceed()
}
