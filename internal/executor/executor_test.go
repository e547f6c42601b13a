package executor

import (
	"testing"
	"time"

	"repro/internal/coe"
	"repro/internal/hw"
	"repro/internal/memory"
	"repro/internal/model"
	"repro/internal/pool"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/xfer"
)

// rig wires a single executor against a NUMA GPU with the given pool and
// activation capacities.
type rig struct {
	env      *sim.Env
	dev      *hw.Device
	store    *pool.Store
	queue    *sched.Queue
	pool     *pool.Pool
	acts     *memory.Arena
	ex       *Executor
	done     bool
	finished []*coe.Request
	model    *coe.Model
}

func newRig(t *testing.T, poolCap, actCap int64, maxBatch int) *rig {
	t.Helper()
	env := sim.NewEnv()
	dev := hw.NUMADevice()

	b := coe.NewBuilder("rig")
	for i := 0; i < 8; i++ {
		id := b.AddExpert("c", model.ResNet101, coe.Preliminary)
		b.AddRule(i, coe.Rule{Classifier: id})
	}
	m, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	store := pool.NewStore(env, dev, 0, m)

	pl := pool.New("gpu0", poolCap, store, memory.TierGPU, pool.LRU{}, env.Now)
	perfs, archOf := gpuPerfs(m, dev, maxBatch)
	r := &rig{env: env, dev: dev, store: store, pool: pl, model: m}
	r.acts = memory.NewArena("acts", actCap)
	r.queue = gpuQueue(env, "q0", m, dev, store, pl)
	r.ex = &Executor{
		Name:    "gpu0",
		Env:     env,
		Exec:    execTable(m, dev),
		Queue:   r.queue,
		Pool:    pl,
		Compute: sim.NewResource(env, "gpu", 1),
		Acts:    r.acts,
		Perfs:   perfs,
		ArchOf:  archOf,
		Done:    func() bool { return r.done },
		OnBatch: func(_ sim.Time, req *coe.Request) { r.finished = append(r.finished, req) },
		Epoch:   noEpoch,
		OnVoid:  noVoid,
		Degrade: healthy,
	}
	return r
}

// The rig's node never crashes and is never gray-degraded: its crash
// epoch stays 0, no batch is voided, and every batch runs at its
// profiled latency.
func noEpoch() int                                        { return 0 }
func noVoid(sim.Time, *coe.Request)                       {}
func healthy(_ sim.Time, lat time.Duration) time.Duration { return lat }

// gpuPerfs builds a GPU executor's per-architecture performance table
// for the model, indexed by the returned expert-to-architecture index.
func gpuPerfs(m *coe.Model, dev *hw.Device, maxBatch int) ([]model.Perf, []uint8) {
	archs, archOf := m.Archs()
	perfs := make([]model.Perf, len(archs))
	for i, a := range archs {
		perfs[i] = model.Perf{
			Arch:        a,
			K:           model.KCoeff(a, dev.GPU),
			B:           dev.GPU.LaunchOverhead,
			MaxBatch:    maxBatch,
			ActPerImage: model.ActBytesPerImage(a, dev.GPU),
		}
	}
	return perfs, archOf
}

// gpuQueue builds a grouped GPU queue over the pool, alone on its node,
// with the model's per-architecture cost tables.
func gpuQueue(env *sim.Env, name string, m *coe.Model, dev *hw.Device, store *pool.Store, pl *pool.Pool) *sched.Queue {
	archs, _ := m.Archs()
	node := sched.NewNode(1, store.Prices(), pool.Carve([]*pool.Pool{pl}))
	c := sched.Costs{Tier: memory.TierGPU, Slot: pl.Slot()}
	for _, a := range archs {
		c.K = append(c.K, model.KCoeff(a, dev.GPU))
		c.B = append(c.B, dev.GPU.LaunchOverhead)
	}
	return node.NewQueue(env, name, sched.ModeGrouped, c)
}

// execTable builds the GPU's execution-latency table for the model.
func execTable(m *coe.Model, dev *hw.Device) *model.ExecTable {
	archs, _ := m.Archs()
	return model.NewExecTable(archs, dev.GPU)
}

// push enqueues the request on the queue as the queue prices it.
func push(q *sched.Queue, e *coe.Expert, r *coe.Request) { q.Enqueue(e, r, q.Predict(e)) }

func (r *rig) enqueue(reqs ...*coe.Request) {
	for _, rq := range reqs {
		push(r.queue, r.model.Expert(rq.Expert()), rq)
	}
}

func (r *rig) finish() {
	r.done = true
	r.queue.Gate().Notify()
}

func mkReq(id int64, e coe.ExpertID) *coe.Request {
	return coe.NewRequest(id, int(e), []coe.ExpertID{e})
}

const rn101Bytes = 178_196_640

func TestExecutorProcessesAllRequests(t *testing.T) {
	r := newRig(t, 4*rn101Bytes, 8<<30, 16)
	for i := 0; i < 10; i++ {
		r.enqueue(mkReq(int64(i), coe.ExpertID(i%2)))
	}
	r.finish()
	r.ex.Start()
	r.env.Run()
	if len(r.finished) != 10 {
		t.Fatalf("finished %d of 10", len(r.finished))
	}
	if r.ex.Processed() != 10 {
		t.Errorf("processed = %d", r.ex.Processed())
	}
	if r.pool.Switches() != 2 {
		t.Errorf("switches = %d, want 2 (one per expert)", r.pool.Switches())
	}
}

func TestExecutorBatchesWithinProfiledMax(t *testing.T) {
	r := newRig(t, 4*rn101Bytes, 64<<30, 4)
	for i := 0; i < 10; i++ {
		r.enqueue(mkReq(int64(i), 0))
	}
	r.finish()
	r.ex.Start()
	r.env.Run()
	// 10 requests at max batch 4 -> batches of 4,4,2.
	if r.ex.Batches() != 3 {
		t.Errorf("batches = %d, want 3", r.ex.Batches())
	}
}

func TestExecutorRespectsMemoryBound(t *testing.T) {
	// Activation arena fits only 2 images -> batches of <= 2 even though
	// the profile allows 16.
	per := model.ActBytesPerImage(model.ResNet101, hw.NUMADevice().GPU)
	r := newRig(t, 4*rn101Bytes, 2*per+per/2, 16)
	for i := 0; i < 6; i++ {
		r.enqueue(mkReq(int64(i), 0))
	}
	r.finish()
	r.ex.Start()
	r.env.Run()
	if r.ex.Batches() != 3 {
		t.Errorf("batches = %d, want 3 (memory-bound batches of 2)", r.ex.Batches())
	}
	if len(r.finished) != 6 {
		t.Errorf("finished = %d of 6", len(r.finished))
	}
	if r.acts.Free() != r.acts.Capacity() {
		t.Errorf("activation bytes leaked: %d", r.acts.Capacity()-r.acts.Free())
	}
}

func TestExecutorBatchTimingMatchesModel(t *testing.T) {
	r := newRig(t, 4*rn101Bytes, 8<<30, 16)
	r.pool.Preload(r.model.Expert(0))
	for i := 0; i < 8; i++ {
		r.enqueue(mkReq(int64(i), 0))
	}
	r.finish()
	r.ex.Start()
	end := r.env.Run()
	want := model.ExecLatency(model.ResNet101, r.dev.GPU, 8)
	if end != sim.Time(want) {
		t.Errorf("run took %v, want one batch = %v", end, want)
	}
	if r.ex.BusyTime() != want {
		t.Errorf("busy = %v, want %v", r.ex.BusyTime(), want)
	}
}

func TestExecutorSwitchThenExecute(t *testing.T) {
	r := newRig(t, 4*rn101Bytes, 8<<30, 16)
	r.enqueue(mkReq(0, 0))
	r.finish()
	r.ex.Start()
	end := r.env.Run()
	load := xfer.LoadLatency(r.dev, xfer.FromSSD, memory.TierGPU, r.model.Expert(0).WeightBytes())
	exec := model.ExecLatency(model.ResNet101, r.dev.GPU, 1)
	if end != sim.Time(load+exec) {
		t.Errorf("run took %v, want load+exec = %v", end, load+exec)
	}
}

func TestExecutorWaitsForWorkThenExits(t *testing.T) {
	r := newRig(t, 4*rn101Bytes, 8<<30, 16)
	r.ex.Start()
	r.env.After(time.Second, func() { r.enqueue(mkReq(0, 0)) })
	r.env.After(6*time.Second, r.finish)
	r.env.Run()
	if len(r.finished) != 1 {
		t.Fatalf("finished = %d, want 1", len(r.finished))
	}
	if err := r.env.Drained(); err != nil {
		t.Errorf("executor did not exit: %v", err)
	}
}

func TestTwoExecutorsShareComputeSerially(t *testing.T) {
	// Two executors on one GPU: loads overlap with execution, but
	// execution itself serializes on the compute resource.
	env := sim.NewEnv()
	dev := hw.NUMADevice()
	b := coe.NewBuilder("m")
	e0 := b.AddExpert("a", model.ResNet101, coe.Preliminary)
	e1 := b.AddExpert("b", model.ResNet101, coe.Preliminary)
	b.AddRule(0, coe.Rule{Classifier: e0})
	b.AddRule(1, coe.Rule{Classifier: e1})
	m, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	store := pool.NewStore(env, dev, 0, m)
	compute := sim.NewResource(env, "gpu", 1)
	acts := memory.NewArena("acts", 8<<30)
	done := false
	var finished int
	mk := func(name string, preload coe.ExpertID) *Executor {
		pl := pool.New(name, 4*rn101Bytes, store, memory.TierGPU, pool.LRU{}, env.Now)
		q := gpuQueue(env, name, m, dev, store, pl)
		pl.Preload(m.Expert(preload))
		perfs, archOf := gpuPerfs(m, dev, 16)
		return &Executor{
			Name:    name,
			Env:     env,
			Exec:    execTable(m, dev),
			Queue:   q,
			Pool:    pl,
			Compute: compute,
			Acts:    acts,
			Perfs:   perfs,
			ArchOf:  archOf,
			Done:    func() bool { return done },
			OnBatch: func(sim.Time, *coe.Request) { finished++ },
			Epoch:   noEpoch,
			OnVoid:  noVoid,
			Degrade: healthy,
		}
	}
	ex0, ex1 := mk("g0", e0), mk("g1", e1)
	push(ex0.Queue, m.Expert(e0), mkReq(0, e0))
	push(ex1.Queue, m.Expert(e1), mkReq(1, e1))
	done = true
	ex0.Start()
	ex1.Start()
	end := env.Run()
	exec1 := model.ExecLatency(model.ResNet101, dev.GPU, 1)
	if end != sim.Time(2*exec1) {
		t.Errorf("two preloaded single-request groups took %v, want serialized 2x%v", end, exec1)
	}
	if finished != 2 {
		t.Errorf("finished = %d, want 2", finished)
	}
}

// TestStartReusesOnlyReturnedRuns: a restart mid-batch starts a fresh
// run beside the crashed epoch's, which still unwinds its batch; once
// both have returned, later streams' Starts reuse them and allocate
// nothing.
func TestStartReusesOnlyReturnedRuns(t *testing.T) {
	r := newRig(t, 4*rn101Bytes, 8<<30, 4)
	r.pool.Preload(r.model.Expert(0))
	epoch, voided := 0, 0
	r.ex.Epoch = func() int { return epoch }
	r.ex.OnVoid = func(sim.Time, *coe.Request) { voided++ }
	for i := 0; i < 8; i++ {
		r.enqueue(mkReq(int64(i), 0))
	}
	r.finish()
	r.ex.Start()
	r.env.After(model.ExecLatency(model.ResNet101, r.dev.GPU, 4)/2, func() {
		epoch++
		if r.ex.idle != nil {
			t.Error("a run is idle while the crashed epoch's run still holds its batch")
		}
		r.ex.Start()
	})
	r.env.Run()
	if voided != 4 || len(r.finished) != 4 {
		t.Fatalf("%d voided and %d finished, want the crashed batch's 4 and the restart's 4", voided, len(r.finished))
	}
	idle := 0
	for x := r.ex.idle; x != nil && idle < 10; x = x.nextIdle {
		idle++
	}
	if idle != 2 {
		t.Fatalf("%d runs idle after both returned, want 2", idle)
	}
	if allocs := testing.AllocsPerRun(10, func() { r.ex.Start(); r.env.Run() }); allocs != 0 {
		t.Errorf("a warm Start allocates %v times, want 0", allocs)
	}
}

// TestRunLetsGoOfDrainedGroup: a take that drains its group recycles the
// group at once, and a request for another expert arriving during the
// batch reuses it. The run must go back to the queue's head and switch
// experts, not serve the reused group under the expert it still holds.
func TestRunLetsGoOfDrainedGroup(t *testing.T) {
	r := newRig(t, 4*rn101Bytes, 8<<30, 4)
	r.pool.Preload(r.model.Expert(0))
	var served []coe.ExpertID
	r.ex.Observer = func(e *coe.Expert, _ int, _ time.Duration) { served = append(served, e.ID) }
	r.enqueue(mkReq(0, 0))
	r.finish()
	r.ex.Start()
	r.env.After(model.ExecLatency(model.ResNet101, r.dev.GPU, 1)/2, func() { r.enqueue(mkReq(1, 1)) })
	r.env.RunUntil(sim.Time(time.Minute))
	if len(served) != 2 || served[0] != 0 || served[1] != 1 {
		t.Fatalf("batches served under experts %v, want [0 1]", served)
	}
	if len(r.finished) != 2 || r.pool.Switches() != 1 {
		t.Errorf("%d finished with %d switches, want 2 and 1", len(r.finished), r.pool.Switches())
	}
	if err := r.env.Drained(); err != nil {
		t.Errorf("run did not return: %v", err)
	}
}

// TestCrashedRunTakesNothing: a node crashes while a run waits on an
// expert load, restarts at once and admits a request for another
// expert. The crash's purge recycled the crashed run's group for that
// request, so when the load lands the crashed epoch's run must end and
// leave the request to the restarted run: nothing is voided, and the
// request is served under its own expert.
func TestCrashedRunTakesNothing(t *testing.T) {
	r := newRig(t, 4*rn101Bytes, 8<<30, 4)
	epoch, voided := 0, 0
	r.ex.Epoch = func() int { return epoch }
	r.ex.OnVoid = func(sim.Time, *coe.Request) { voided++ }
	var served []coe.ExpertID
	r.ex.Observer = func(e *coe.Expert, _ int, _ time.Duration) { served = append(served, e.ID) }
	r.enqueue(mkReq(0, 0))
	r.finish()
	r.ex.Start()
	load := xfer.LoadLatency(r.dev, xfer.FromSSD, memory.TierGPU, r.model.Expert(0).WeightBytes())
	r.env.After(load/2, func() {
		epoch++
		if out := r.queue.Purge(); len(out) != 1 || out[0].ID != 0 {
			t.Errorf("crash purged %v, want request 0", out)
		}
		r.enqueue(mkReq(1, 1))
		r.ex.Start()
	})
	r.env.RunUntil(sim.Time(time.Minute))
	if voided != 0 || len(r.finished) != 1 || r.finished[0].ID != 1 {
		t.Fatalf("%d voided, finished %v, want 0 voided and request 1 finished", voided, r.finished)
	}
	if len(served) != 1 || served[0] != 1 {
		t.Errorf("batches served under experts %v, want [1]", served)
	}
	if err := r.env.Drained(); err != nil {
		t.Errorf("a run did not return: %v", err)
	}
}
