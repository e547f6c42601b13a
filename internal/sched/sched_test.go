package sched

import (
	"testing"
	"testing/quick"
	"time"

	"repro/internal/coe"
	"repro/internal/memory"
	"repro/internal/model"
	"repro/internal/sim"
	"repro/internal/xfer"
)

const (
	testK    = 2 * time.Millisecond
	testB    = 5 * time.Millisecond
	testLoad = 1 * time.Second
)

// testArch maps every expert ID the tests use (below 1<<14) to one
// architecture, so every expert costs testK and testB.
var testArch = make([]uint8, 1<<14)

// testQueues builds n queues of one node with constant costs, each on a
// pool of its own; the experts listed in resident are Loaded in every
// pool.
func testQueues(t *testing.T, env *sim.Env, n int, mode Mode, resident ...coe.ExpertID) []*Queue {
	t.Helper()
	loaded := memory.NewResidency(n, len(testArch))
	for _, id := range resident {
		for i := 0; i < n; i++ {
			loaded.Set(int(id), loaded.Slot(i), true)
		}
	}
	prices := xfer.NewPrices(testArch, func(int, xfer.Source, memory.Tier) time.Duration { return testLoad })
	node := NewNode(n, prices, loaded)
	qs := make([]*Queue, n)
	for i := range qs {
		qs[i] = node.NewQueue(env, "q", mode, Costs{
			K:    []time.Duration{testK},
			B:    []time.Duration{testB},
			Slot: loaded.Slot(i),
		})
	}
	return qs
}

// testQueue builds a queue alone on its node with constant costs; loaded
// experts are listed in resident.
func testQueue(t *testing.T, env *sim.Env, mode Mode, resident ...coe.ExpertID) *Queue {
	t.Helper()
	return testQueues(t, env, 1, mode, resident...)[0]
}

// push enqueues the request on the queue as the queue prices it.
func push(q *Queue, e *coe.Expert, r *coe.Request) { q.Enqueue(e, r, q.Predict(e)) }

func expert(id coe.ExpertID) *coe.Expert {
	return &coe.Expert{ID: id, Name: "e", Arch: model.ResNet101}
}

func req(id int64, e coe.ExpertID) *coe.Request {
	return coe.NewRequest(id, 0, []coe.ExpertID{e})
}

func TestPredictCostsPerPaper(t *testing.T) {
	env := sim.NewEnv()
	q := testQueue(t, env, ModeGrouped, 7)
	// Fresh expert, not loaded: K + B + load.
	if got := q.Predict(expert(1)).Add(); got != testK+testB+testLoad {
		t.Errorf("unloaded fresh = %v, want %v", got, testK+testB+testLoad)
	}
	// Fresh group for a loaded expert: K + B, no switch.
	if got := q.Predict(expert(7)).Add(); got != testK+testB {
		t.Errorf("loaded fresh = %v, want %v", got, testK+testB)
	}
	// After enqueueing expert 1, another request for it merges: just K.
	push(q, expert(1), req(0, 1))
	if got := q.Predict(expert(1)).Add(); got != testK {
		t.Errorf("merge = %v, want %v", got, testK)
	}
	// A different unloaded expert whose requests are queued avoids only
	// the switch (second zero-switch condition of §4.2).
	push(q, expert(2), req(1, 2))
	push(q, expert(1), req(2, 1)) // head grows; expert 2 group not last
	if got := q.Predict(expert(2)).Add(); got != testK {
		t.Errorf("grouped merge across groups = %v, want K=%v", got, testK)
	}
}

func TestEnqueuePendingMatchesPredict(t *testing.T) {
	env := sim.NewEnv()
	q := testQueue(t, env, ModeGrouped)
	var want time.Duration
	for i := 0; i < 10; i++ {
		e := expert(coe.ExpertID(i % 3))
		want += q.Predict(e).Add()
		push(q, e, req(int64(i), e.ID))
	}
	if q.Pending() != want {
		t.Errorf("pending = %v, want sum of predictions %v", q.Pending(), want)
	}
	if q.Len() != 10 {
		t.Errorf("len = %d, want 10", q.Len())
	}
}

func TestGroupedArrangingGroupsSameExpert(t *testing.T) {
	env := sim.NewEnv()
	q := testQueue(t, env, ModeGrouped)
	// Interleaved arrivals: 1,2,1,2,1 -> two groups.
	for i, e := range []coe.ExpertID{1, 2, 1, 2, 1} {
		push(q, expert(e), req(int64(i), e))
	}
	if q.Groups() != 2 {
		t.Fatalf("groups = %d, want 2", q.Groups())
	}
	if q.Head().Expert.ID != 1 || q.Head().Len() != 3 {
		t.Errorf("head group = expert %d x%d, want expert 1 x3", q.Head().Expert.ID, q.Head().Len())
	}
}

func TestFIFOArrangingOnlyMergesTail(t *testing.T) {
	env := sim.NewEnv()
	q := testQueue(t, env, ModeFIFO)
	for i, e := range []coe.ExpertID{1, 1, 2, 1, 1} {
		push(q, expert(e), req(int64(i), e))
	}
	// FIFO: [1 1] [2] [1 1] -> 3 groups, preserving arrival order.
	if q.Groups() != 3 {
		t.Fatalf("groups = %d, want 3", q.Groups())
	}
	if q.Head().Len() != 2 {
		t.Errorf("head len = %d, want 2", q.Head().Len())
	}
}

func TestArrangingPreservesMultiset(t *testing.T) {
	env := sim.NewEnv()
	for _, mode := range []Mode{ModeFIFO, ModeGrouped} {
		q := testQueue(t, env, mode)
		want := map[int64]bool{}
		seq := []coe.ExpertID{3, 1, 3, 2, 2, 3, 1}
		for i, e := range seq {
			push(q, expert(e), req(int64(i), e))
			want[int64(i)] = true
		}
		got := map[int64]bool{}
		for !q.Empty() {
			for _, r := range q.TakeFromHead(nil, 100) {
				if got[r.ID] {
					t.Fatalf("%v: request %d dequeued twice", mode, r.ID)
				}
				got[r.ID] = true
			}
		}
		if len(got) != len(want) {
			t.Errorf("%v: dequeued %d of %d requests", mode, len(got), len(want))
		}
	}
}

func TestTakeFromHeadDrainsPending(t *testing.T) {
	env := sim.NewEnv()
	q := testQueue(t, env, ModeGrouped)
	for i := 0; i < 6; i++ {
		e := expert(coe.ExpertID(i % 2))
		push(q, e, req(int64(i), e.ID))
	}
	for !q.Empty() {
		q.TakeFromHead(nil, 2)
	}
	if q.Pending() != 0 {
		t.Errorf("pending = %v after drain, want 0", q.Pending())
	}
	if q.Groups() != 0 || q.Len() != 0 {
		t.Errorf("groups/len = %d/%d after drain", q.Groups(), q.Len())
	}
}

func TestStartedGroupNotMerged(t *testing.T) {
	env := sim.NewEnv()
	q := testQueue(t, env, ModeGrouped)
	push(q, expert(1), req(0, 1))
	push(q, expert(1), req(1, 1))
	got := q.TakeFromHead(nil, 1) // starts the group, takes req 0
	if len(got) != 1 || got[0].ID != 0 {
		t.Fatalf("TakeFromHead = %v", got)
	}
	push(q, expert(1), req(2, 1))
	// The started head group must not have absorbed request 2...
	if q.Head().Len() != 1 {
		t.Errorf("started head has %d items, want 1", q.Head().Len())
	}
	// ...but the fresh group slots right behind the head.
	if q.Groups() != 2 {
		t.Errorf("groups = %d, want 2", q.Groups())
	}
}

func TestFreshGroupBehindStartedHeadOfSameExpert(t *testing.T) {
	env := sim.NewEnv()
	q := testQueue(t, env, ModeGrouped)
	push(q, expert(1), req(0, 1))
	push(q, expert(2), req(1, 2))
	q.TakeFromHead(nil, 1) // drains group 1 entirely? No: group had 1 item -> removed.
	// Head is now expert 2. Start it.
	if q.Head().Expert.ID != 2 {
		t.Fatalf("head = %d, want 2", q.Head().Expert.ID)
	}
	push(q, expert(3), req(2, 3))
	q.TakeFromHead(nil, 0) // no-op
	taken := q.TakeFromHead(nil, 1)
	if len(taken) != 1 || taken[0].ID != 1 {
		t.Fatalf("taken = %v", taken)
	}
	// Queue: [3]. Nothing started. Enqueue 3 merges.
	push(q, expert(3), req(3, 3))
	if q.Groups() != 1 || q.Head().Len() != 2 {
		t.Errorf("groups=%d headLen=%d, want 1/2", q.Groups(), q.Head().Len())
	}
}

func TestInsertBehindStartedHead(t *testing.T) {
	env := sim.NewEnv()
	q := testQueue(t, env, ModeGrouped)
	push(q, expert(1), req(0, 1))
	push(q, expert(1), req(1, 1))
	push(q, expert(2), req(2, 2))
	q.TakeFromHead(nil, 1) // head (expert 1) started, 1 item left
	push(q, expert(1), req(3, 1))
	// Expected order: started head [1], fresh [1], then [2].
	if q.Groups() != 3 {
		t.Fatalf("groups = %d, want 3", q.Groups())
	}
	q.TakeFromHead(nil, 10) // drain started head
	if q.Head().Expert.ID != 1 {
		t.Errorf("second group expert = %d, want 1 (inserted behind head)", q.Head().Expert.ID)
	}
}

func TestFinishTime(t *testing.T) {
	env := sim.NewEnv()
	q := testQueue(t, env, ModeGrouped)
	now := sim.Time(10 * time.Second)
	if q.FinishTime(now) != now {
		t.Error("empty queue finish != now")
	}
	push(q, expert(1), req(0, 1))
	want := now.Add(testK + testB + testLoad)
	if q.FinishTime(now) != want {
		t.Errorf("finish = %v, want %v", q.FinishTime(now), want)
	}
	q.SetBusyUntil(now.Add(time.Minute))
	if q.FinishTime(now) != now.Add(time.Minute+testK+testB+testLoad) {
		t.Errorf("finish with busy executor = %v", q.FinishTime(now))
	}
	// busyUntil in the past is clamped to now.
	if q.FinishTime(now.Add(2*time.Minute)) != now.Add(2*time.Minute+testK+testB+testLoad) {
		t.Error("past busyUntil not clamped")
	}
}

func TestSingleAndRoundRobinAssigners(t *testing.T) {
	env := sim.NewEnv()
	qs := testQueues(t, env, 3, ModeFIFO)
	s := Single{}
	for i := 0; i < 5; i++ {
		if i, _ := s.Pick(0, qs, expert(1)); i != 0 {
			t.Fatal("Single picked non-zero queue")
		}
	}
	rr := &RoundRobin{}
	var picks []int
	for i := 0; i < 6; i++ {
		i, _ := rr.Pick(0, qs, expert(1))
		picks = append(picks, i)
	}
	want := []int{0, 1, 2, 0, 1, 2}
	for i := range want {
		if picks[i] != want[i] {
			t.Fatalf("round robin picks = %v", picks)
		}
	}
}

func TestMinMaxPrefersShortQueue(t *testing.T) {
	env := sim.NewEnv()
	qs := testQueues(t, env, 2, ModeGrouped)
	q0 := qs[0]
	// Load q0 with a long backlog.
	for i := 0; i < 50; i++ {
		push(q0, expert(coe.ExpertID(i)), req(int64(i), coe.ExpertID(i)))
	}
	mm := MinMax{}
	if got, _ := mm.Pick(0, qs, expert(100)); got != 1 {
		t.Errorf("MinMax picked queue %d, want 1", got)
	}
}

func TestMinMaxTieBreaksBySmallestAddition(t *testing.T) {
	// Figure 8: when several assignments yield the same total time, the
	// queue with the smallest added latency wins. Queue 2 holds the
	// maximum; queues 0 and 1 are shorter. Queue 1 already groups the
	// expert (cheap merge), so it must win over queue 0.
	env := sim.NewEnv()
	qs := testQueues(t, env, 3, ModeGrouped)
	q1, q2 := qs[1], qs[2]
	push(q1, expert(5), req(0, 5))
	for i := 0; i < 80; i++ {
		push(q2, expert(coe.ExpertID(10+i)), req(int64(1+i), coe.ExpertID(10+i)))
	}
	mm := MinMax{}
	if got, _ := mm.Pick(0, qs, expert(5)); got != 1 {
		t.Errorf("MinMax picked queue %d, want 1 (smallest addition)", got)
	}
}

// Property: MinMax minimizes the resulting max finish time over all
// queues, compared against brute force.
func TestMinMaxOptimalProperty(t *testing.T) {
	prop := func(backlogs [4]uint8, eRaw uint8) bool {
		env := sim.NewEnv()
		qs := testQueues(t, env, 4, ModeGrouped)
		id := int64(0)
		for i := range qs {
			for j := 0; j < int(backlogs[i]%16); j++ {
				e := coe.ExpertID(i*100 + j%5)
				push(qs[i], expert(e), req(id, e))
				id++
			}
		}
		e := expert(coe.ExpertID(eRaw % 8))
		pick, _ := MinMax{}.Pick(0, qs, e)

		// Brute force the optimal total.
		bestTotal := sim.Time(1<<62 - 1)
		for i := range qs {
			total := qs[i].FinishTime(0).Add(qs[i].Predict(e).Add())
			for j := range qs {
				if j != i && qs[j].FinishTime(0) > total {
					total = qs[j].FinishTime(0)
				}
			}
			if total < bestTotal {
				bestTotal = total
			}
		}
		total := qs[pick].FinishTime(0).Add(qs[pick].Predict(e).Add())
		for j := range qs {
			if j != pick && qs[j].FinishTime(0) > total {
				total = qs[j].FinishTime(0)
			}
		}
		return total == bestTotal
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestReplayAssigner(t *testing.T) {
	r := NewReplay([]int{2, 0, 1})
	env := sim.NewEnv()
	qs := testQueues(t, env, 3, ModeFIFO)
	for _, want := range []int{2, 0, 1} {
		if got, _ := r.Pick(0, qs, expert(1)); got != want {
			t.Fatalf("replay pick = %d, want %d", got, want)
		}
	}
	defer func() {
		if recover() == nil {
			t.Error("no panic on exhausted replay")
		}
	}()
	r.Pick(0, qs, expert(1))
}

func TestSplitBound(t *testing.T) {
	cases := []struct {
		profiled  int
		free, per int64
		want      int
	}{
		{16, 1 << 30, 100 << 20, 10}, // memory-bound: 1 GiB / 100 MiB
		{8, 1 << 30, 100 << 20, 8},   // profile-bound
		{16, 0, 100 << 20, 1},        // no memory: still 1 (executor blocks)
		{0, 1 << 30, 100 << 20, 1},   // degenerate profile clamps to 1
		{16, 1 << 30, 0, 16},         // no per-image cost: profile rules
	}
	for i, c := range cases {
		if got := SplitBound(c.profiled, c.free, c.per); got != c.want {
			t.Errorf("case %d: SplitBound = %d, want %d", i, got, c.want)
		}
	}
}

func TestGatesNotifyOnEnqueue(t *testing.T) {
	env := sim.NewEnv()
	q := testQueue(t, env, ModeGrouped)
	var woke bool
	q.Gate().Wait(func() { woke = true })
	env.After(time.Second, func() { push(q, expert(1), req(0, 1)) })
	env.Run()
	if !woke {
		t.Error("executor not woken by enqueue")
	}
}

func TestModeStrings(t *testing.T) {
	if ModeFIFO.String() != "fifo" || ModeGrouped.String() != "grouped" {
		t.Error("mode strings wrong")
	}
	if Mode(9).String() == "" {
		t.Error("unknown mode string empty")
	}
}

func TestByExpertPartitions(t *testing.T) {
	env := sim.NewEnv()
	qs := testQueues(t, env, 3, ModeFIFO)
	a := ByExpert{}
	// Same expert always lands on the same queue; distinct experts spread.
	seen := map[coe.ExpertID]int{}
	for trial := 0; trial < 3; trial++ {
		for id := coe.ExpertID(0); id < 9; id++ {
			pick, _ := a.Pick(0, qs, expert(id))
			if prev, ok := seen[id]; ok && prev != pick {
				t.Fatalf("expert %d moved from queue %d to %d", id, prev, pick)
			}
			seen[id] = pick
		}
	}
	used := map[int]bool{}
	for _, q := range seen {
		used[q] = true
	}
	if len(used) != 3 {
		t.Errorf("partition used %d of 3 queues", len(used))
	}
}

// TestExpertIndexConsistency drives a randomized enqueue/take workload
// and checks the expert index agrees with a linear scan of the groups —
// the invariant that lets mergeTarget, hasExpert, and Predict skip the
// scan.
func TestExpertIndexConsistency(t *testing.T) {
	for _, mode := range []Mode{ModeGrouped, ModeFIFO} {
		env := sim.NewEnv()
		q := testQueue(t, env, mode)
		seq := int64(0)
		for step := 0; step < 2000; step++ {
			id := coe.ExpertID(step * 7919 % 13)
			if step%5 == 4 {
				q.TakeFromHead(nil, 1+step%3)
			} else {
				push(q, expert(id), req(seq, id))
				seq++
			}
			for e := coe.ExpertID(0); e < 13; e++ {
				count := 0
				var latest *Group
				for _, g := range q.groups {
					if g.Expert.ID == e {
						count++
						latest = g
					}
				}
				if got := q.hasExpert(e); got != (count > 0) {
					t.Fatalf("%v step %d: hasExpert(%d) = %v, scan count %d", mode, step, e, got, count)
				}
				var wantMerge *Group
				switch mode {
				case ModeGrouped:
					if latest != nil && !latest.started {
						wantMerge = latest
					}
				case ModeFIFO:
					if n := len(q.groups); n > 0 && q.groups[n-1].Expert.ID == e && !q.groups[n-1].started {
						wantMerge = q.groups[n-1]
					}
				}
				if got := q.mergeTarget(e); got != wantMerge {
					t.Fatalf("%v step %d: mergeTarget(%d) = %p, want %p", mode, step, e, got, wantMerge)
				}
			}
		}
	}
}

// TestPredictEnqueueScaleIndependence is the acceptance test for the
// O(1) expert index: on a queue already holding 10,000 groups, Predict
// must not allocate, and both Predict and Enqueue-merge must run in
// time that a linear scan over 10k groups could not meet.
func TestPredictEnqueueScaleIndependence(t *testing.T) {
	env := sim.NewEnv()
	q := testQueue(t, env, ModeGrouped)
	const groups = 10000
	for i := 0; i < groups; i++ {
		id := coe.ExpertID(i)
		push(q, expert(id), req(int64(i), id))
	}
	if q.Groups() != groups {
		t.Fatalf("groups = %d, want %d", q.Groups(), groups)
	}
	probe := expert(groups - 1) // hottest case for a tail-first scan is the miss path; use a hit
	if allocs := testing.AllocsPerRun(100, func() { q.Predict(probe) }); allocs > 0 {
		t.Errorf("Predict on a 10k-group queue allocated %.1f objects/op, want 0", allocs)
	}
	miss := expert(groups + 5)
	if allocs := testing.AllocsPerRun(100, func() { q.Predict(miss) }); allocs > 0 {
		t.Errorf("Predict miss on a 10k-group queue allocated %.1f objects/op, want 0", allocs)
	}
	// Time bound: 200k predictions against 10k groups. A linear scan
	// would be ~2e9 group visits; the index keeps this well under a
	// second even on slow CI hardware.
	start := time.Now()
	for i := 0; i < 200000; i++ {
		q.Predict(probe)
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Errorf("200k predictions on a 10k-group queue took %v; expert index not consulted?", elapsed)
	}

	// Enqueue must be scale-independent too: pre-grow the merge target's
	// item capacity, then bound allocations and time for merges into the
	// 10k-group queue.
	const iters = 300
	target := q.mergeTarget(probe.ID)
	if target == nil {
		t.Fatal("no merge target for probe expert")
	}
	seq := int64(groups)
	for cap(target.items)-len(target.items) < iters+10 {
		push(q, probe, req(seq, probe.ID))
		seq++
	}
	r := req(seq, probe.ID)
	if allocs := testing.AllocsPerRun(iters, func() { push(q, probe, r) }); allocs > 0 {
		t.Errorf("Enqueue merge on a 10k-group queue allocated %.2f objects/op, want 0", allocs)
	}
	start = time.Now()
	for i := 0; i < 100000; i++ {
		push(q, probe, r)
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Errorf("100k enqueues on a 10k-group queue took %v; groups scanned linearly?", elapsed)
	}
}

// TestEnqueueMergeZeroAllocs pins the merge fast path: enqueueing into
// an existing group with spare item capacity must not allocate.
func TestEnqueueMergeZeroAllocs(t *testing.T) {
	env := sim.NewEnv()
	q := testQueue(t, env, ModeGrouped)
	const iters = 200
	id := coe.ExpertID(1)
	push(q, expert(id), req(0, id))
	// Grow the group's item capacity past what the measured runs append,
	// so the measurement sees the steady-state path, not slice growth.
	seq := int64(1)
	for cap(q.groups[0].items)-q.groups[0].Len() < iters+10 {
		push(q, expert(id), req(seq, id))
		seq++
	}
	r := req(seq, id)
	e := expert(id)
	if allocs := testing.AllocsPerRun(iters, func() { push(q, e, r) }); allocs > 0 {
		t.Errorf("Enqueue into an existing group allocated %.2f objects/op, want 0", allocs)
	}
}

// TestPurgeDropsRetiredGroup is the quick-recovery crash regression: a
// batch taken before a crash waits on memory or compute while the purge
// recycles every group and the restarted executor drains fresh ones,
// which reuse the recycled groups' item arrays. The batch lives in the
// taker's buffer, so it must come through intact — whether its take
// drained the group or left the group's tail for the purge.
func TestPurgeDropsRetiredGroup(t *testing.T) {
	for _, mode := range []Mode{ModeGrouped, ModeFIFO} {
		for _, queued := range []int64{2, 3} {
			env := sim.NewEnv()
			q := testQueue(t, env, mode)
			for i := int64(0); i < queued; i++ {
				push(q, expert(1), req(i, 1))
			}
			batch := q.TakeFromHead(make([]*coe.Request, 0, 4), 2)
			if out := q.Purge(); len(out) != int(queued-2) {
				t.Fatalf("%v, %d queued: purge returned %d requests, want %d", mode, queued, len(out), queued-2)
			}
			var buf []*coe.Request
			for i := int64(10); i < 16; i++ { // the restarted executor drains fresh groups
				push(q, expert(2), req(i, 2))
				push(q, expert(2), req(i+10, 2))
				buf = q.TakeFromHead(buf[:0], 2)
			}
			for i, r := range batch {
				if r == nil || r.ID != int64(i) {
					t.Fatalf("%v, %d queued: batch[%d] = %v after purge and restart, want request %d", mode, queued, i, r, i)
				}
			}
		}
	}
}

// TestPurgeMidBatchKeepsSlotsBounded: crashes with a started head group
// recycle every purged group, so repeated crashes neither grow the slot
// table nor break the expert index.
func TestPurgeMidBatchKeepsSlotsBounded(t *testing.T) {
	env := sim.NewEnv()
	q := testQueue(t, env, ModeGrouped)
	for round := 0; round < 50; round++ {
		for i := 0; i < 6; i++ {
			id := coe.ExpertID(i % 3)
			push(q, expert(id), req(int64(i), id))
		}
		q.TakeFromHead(nil, 1) // the head group is started mid-batch
		if out := q.Purge(); len(out) != 5 {
			t.Fatalf("round %d: purge returned %d requests, want 5", round, len(out))
		}
		for id := coe.ExpertID(0); id < 3; id++ {
			if q.hasExpert(id) || q.mergeTarget(id) != nil {
				t.Fatalf("round %d: expert %d still indexed after purge", round, id)
			}
		}
	}
	if n := len(q.slots); n > 8 {
		t.Errorf("slot table grew to %d groups over 50 crashes", n)
	}
}

// TestWarmQueueZeroAllocs pins the steady state of a presized queue: once
// recycled groups have item capacity and the taker reuses its batch
// buffer, Predict, Enqueue — merges and fresh groups alike — and
// TakeFromHead allocate nothing.
func TestWarmQueueZeroAllocs(t *testing.T) {
	for _, mode := range []Mode{ModeGrouped, ModeFIFO} {
		env := sim.NewEnv()
		q := testQueue(t, env, mode, 3)
		experts := []*coe.Expert{expert(1), expert(2), expert(3)}
		reqs := []*coe.Request{req(0, 1), req(1, 2), req(2, 3)}
		var dst []*coe.Request
		cycle := func() {
			for i, e := range experts {
				q.Predict(e)
				push(q, e, reqs[i])
				push(q, e, reqs[i])
			}
			for !q.Empty() {
				dst = q.TakeFromHead(dst[:0], 4)
			}
		}
		for i := 0; i < 4; i++ {
			cycle() // warm the free list and the groups' item arrays
		}
		if allocs := testing.AllocsPerRun(100, cycle); allocs > 0 {
			t.Errorf("%v: warm Predict/Enqueue/TakeFromHead cycle allocated %.2f objects/op, want 0", mode, allocs)
		}
	}
}
