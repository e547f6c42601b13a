package sim

import (
	"errors"
	"math/rand"
	"sort"
	"strings"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/runner"
)

func TestClockStartsAtZero(t *testing.T) {
	env := NewEnv()
	if env.Now() != 0 {
		t.Fatalf("new env clock = %v, want 0", env.Now())
	}
}

func TestSleepAdvancesClock(t *testing.T) {
	env := NewEnv()
	var woke Time
	env.After(3*time.Second, func() { woke = env.Now() })
	end := env.Run()
	if woke != Time(3*time.Second) {
		t.Errorf("woke at %v, want 3s", woke)
	}
	if end != Time(3*time.Second) {
		t.Errorf("Run returned %v, want 3s", end)
	}
}

func TestSequentialSleeps(t *testing.T) {
	env := NewEnv()
	var marks []Time
	var step func()
	step = func() {
		marks = append(marks, env.Now())
		if len(marks) < 3 {
			env.After(time.Second, step)
		}
	}
	env.After(time.Second, step)
	env.Run()
	want := []Time{Time(time.Second), Time(2 * time.Second), Time(3 * time.Second)}
	if len(marks) != len(want) {
		t.Fatalf("got %d marks, want %d", len(marks), len(want))
	}
	for i := range want {
		if marks[i] != want[i] {
			t.Errorf("mark %d = %v, want %v", i, marks[i], want[i])
		}
	}
}

func TestParallelProcessesInterleaveDeterministically(t *testing.T) {
	run := func() []string {
		env := NewEnv()
		var order []string
		for _, name := range []string{"a", "b", "c"} {
			env.After(time.Second, func() {
				order = append(order, name+"1")
				env.After(time.Second, func() { order = append(order, name+"2") })
			})
		}
		env.Run()
		return order
	}
	first := run()
	want := []string{"a1", "b1", "c1", "a2", "b2", "c2"}
	for i := range want {
		if first[i] != want[i] {
			t.Fatalf("order = %v, want %v", first, want)
		}
	}
	for trial := 0; trial < 5; trial++ {
		again := run()
		for i := range first {
			if again[i] != first[i] {
				t.Fatalf("nondeterministic order: %v vs %v", again, first)
			}
		}
	}
}

func TestAfterCallback(t *testing.T) {
	env := NewEnv()
	var at Time
	env.After(5*time.Millisecond, func() { at = env.Now() })
	env.Run()
	if at != Time(5*time.Millisecond) {
		t.Errorf("callback at %v, want 5ms", at)
	}
}

func TestAfterNegativePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic for negative delay")
		}
	}()
	NewEnv().After(-time.Second, func() {})
}

func TestEventBroadcast(t *testing.T) {
	env := NewEnv()
	ev := NewEvent(env)
	var woke []string
	for _, name := range []string{"w1", "w2"} {
		if ev.Wait(func() { woke = append(woke, name) }) {
			t.Fatalf("%s: unfired event reported fired", name)
		}
	}
	env.After(time.Second, ev.Fire)
	env.Run()
	if len(woke) != 2 || woke[0] != "w1" || woke[1] != "w2" {
		t.Errorf("woke = %v, want [w1 w2]", woke)
	}
	if !ev.Fired() {
		t.Error("event not marked fired")
	}
}

func TestEventWaitAfterFireReturnsImmediately(t *testing.T) {
	env := NewEnv()
	ev := NewEvent(env)
	ev.Fire()
	var at Time
	env.After(time.Second, func() {
		if ev.Wait(func() { t.Error("waiter on a fired event parked") }) {
			at = env.Now()
		}
	})
	env.Run()
	if at != Time(time.Second) {
		t.Errorf("late waiter resumed at %v, want 1s", at)
	}
}

func TestEventDoubleFireIsNoop(t *testing.T) {
	env := NewEnv()
	ev := NewEvent(env)
	ev.Fire()
	ev.Fire() // must not panic
}

func TestGateReusable(t *testing.T) {
	env := NewEnv()
	g := NewGate(env)
	var wakes int
	var wait func()
	wait = func() {
		wakes++
		if wakes < 3 {
			g.Wait(wait)
		}
	}
	g.Wait(wait)
	for i := 1; i <= 3; i++ {
		env.After(time.Duration(i)*time.Second, g.Notify)
	}
	env.Run()
	if wakes != 3 {
		t.Errorf("wakes = %d, want 3", wakes)
	}
}

func TestResourceMutualExclusion(t *testing.T) {
	env := NewEnv()
	res := NewResource(env, "gpu", 1)
	var spans [][2]Time
	for i := 0; i < 3; i++ {
		var start Time
		hold := func() {
			start = env.Now()
			env.After(time.Second, func() {
				res.Release()
				spans = append(spans, [2]Time{start, env.Now()})
			})
		}
		if res.Acquire(hold) {
			hold()
		}
	}
	env.Run()
	if len(spans) != 3 {
		t.Fatalf("got %d spans, want 3", len(spans))
	}
	for i := 1; i < len(spans); i++ {
		if spans[i][0] < spans[i-1][1] {
			t.Errorf("span %d starts at %v before previous ends at %v", i, spans[i][0], spans[i-1][1])
		}
	}
	var busy time.Duration
	for _, s := range spans {
		busy += s[1].Sub(s[0])
	}
	if busy != 3*time.Second {
		t.Errorf("busy time = %v, want 3s", busy)
	}
}

func TestResourceCapacityTwoOverlaps(t *testing.T) {
	env := NewEnv()
	res := NewResource(env, "bus", 2)
	var finished []Time
	for i := 0; i < 4; i++ {
		res.Use(time.Second, func() { finished = append(finished, env.Now()) })
	}
	end := env.Run()
	if end != Time(2*time.Second) {
		t.Errorf("4 unit jobs on cap-2 resource finished at %v, want 2s", end)
	}
	if len(finished) != 4 {
		t.Fatalf("finished = %d, want 4", len(finished))
	}
}

func TestResourceFIFOOrder(t *testing.T) {
	env := NewEnv()
	res := NewResource(env, "r", 1)
	var order []int
	for i := 0; i < 5; i++ {
		hold := func() {
			order = append(order, i)
			env.After(time.Second, res.Release)
		}
		// Stagger arrivals so the queue order is unambiguous.
		env.After(time.Duration(i)*time.Millisecond, func() {
			if res.Acquire(hold) {
				hold()
			}
		})
	}
	env.Run()
	for i, got := range order {
		if got != i {
			t.Fatalf("service order = %v, want ascending", order)
		}
	}
}

func TestTryAcquire(t *testing.T) {
	env := NewEnv()
	res := NewResource(env, "r", 1)
	first := res.TryAcquire()
	second := res.TryAcquire()
	if first {
		res.Release()
	}
	if !first || second {
		t.Errorf("TryAcquire = %v, %v; want true, false", first, second)
	}
}

func TestReleaseWithoutAcquirePanics(t *testing.T) {
	res := NewResource(NewEnv(), "r", 1)
	var recovered bool
	func() {
		defer func() {
			if recover() != nil {
				recovered = true
			}
		}()
		res.Release()
	}()
	if !recovered {
		t.Error("no panic on unpaired Release")
	}
}

// TestRunDrainsBlockedProcesses checks that Run returns once the queue
// is empty even with waiters still parked, and that Drained counts
// exactly the continuations nothing released: an unfired event's
// waiter, a gate's, and a resource contender behind a unit never
// released. Released waiters leave the count.
func TestRunDrainsBlockedProcesses(t *testing.T) {
	env := NewEnv()
	ev := NewEvent(env)
	gate := NewGate(env)
	res := NewResource(env, "r", 1)
	stuck := func() { t.Error("stuck continuation ran") }
	ev.Wait(stuck)
	gate.Wait(stuck)
	res.TryAcquire() // never released
	res.Acquire(stuck)
	released := NewGate(env)
	ran := false
	released.Wait(func() { ran = true })
	env.After(time.Second, released.Notify)
	if end := env.Run(); end != Time(time.Second) {
		t.Errorf("Run returned %v, want 1s", end)
	}
	if !ran {
		t.Error("notified waiter did not run")
	}
	if err := env.Drained(); err == nil || !strings.Contains(err.Error(), "3 continuations") {
		t.Errorf("Drained = %v, want 3 continuations parked", err)
	}
}

// processPanic is the value event code panics with in the panic tests.
type processPanic struct{ id int }

// recoverRun calls run and returns what it panicked with, recovered on
// the calling goroutine.
func recoverRun(run func()) (r any) {
	defer func() { r = recover() }()
	run()
	return nil
}

// TestProcessPanicLeavesRun checks that a panic in event code unwinds
// out of Env.Run on the caller's goroutine with its original value.
func TestProcessPanicLeavesRun(t *testing.T) {
	got := recoverRun(func() {
		env := NewEnv()
		env.After(time.Second, func() {})
		env.After(time.Millisecond, func() { panic(processPanic{7}) })
		env.Run()
	})
	if got != (processPanic{7}) {
		t.Fatalf("Run panicked with %T %.80v, want processPanic{7}", got, got)
	}
}

// TestProcessPanicCapturedByMap: since a panic in event code reaches
// the caller of Run, runner.Map reports it as the failing job's error
// and the other jobs finish.
func TestProcessPanicCapturedByMap(t *testing.T) {
	ends, err := runner.Map(runner.New(2), 3, func(i int) (Time, error) {
		env := NewEnv()
		env.After(time.Duration(i+1)*time.Second, func() {
			if i == 1 {
				panic(processPanic{i})
			}
		})
		return env.Run(), nil
	})
	var pe *runner.PanicError
	if !errors.As(err, &pe) || pe.Value != (processPanic{1}) {
		t.Fatalf("Map error = %.80v, want a *runner.PanicError carrying processPanic{1}", err)
	}
	if ends[0] != Time(time.Second) || ends[2] != Time(3*time.Second) {
		t.Errorf("healthy jobs ended at %v and %v, want 1s and 3s", ends[0], ends[2])
	}
}

func TestRunUntilStopsAtDeadline(t *testing.T) {
	env := NewEnv()
	var ticks int
	var tick func()
	tick = func() {
		ticks++
		if ticks < 10 {
			env.After(time.Second, tick)
		}
	}
	env.After(time.Second, tick)
	got := env.RunUntil(Time(3500 * time.Millisecond))
	if ticks != 3 {
		t.Errorf("ticks = %d, want 3", ticks)
	}
	if got != Time(3500*time.Millisecond) {
		t.Errorf("RunUntil returned %v, want 3.5s", got)
	}
}

func TestSchedulingInPastPanics(t *testing.T) {
	env := NewEnv()
	env.After(time.Second, func() {})
	env.Run()
	defer func() {
		if recover() == nil {
			t.Fatal("no panic scheduling in the past")
		}
	}()
	env.schedule(0, func() {})
}

// TestYieldLetsPeersRun pins After(0): the callback it schedules runs at
// the current instant, but after every event already due now.
func TestYieldLetsPeersRun(t *testing.T) {
	env := NewEnv()
	var order []string
	env.After(0, func() {
		order = append(order, "a-start")
		env.After(0, func() { order = append(order, "a-end") })
	})
	env.After(0, func() {
		order = append(order, "b")
	})
	env.Run()
	want := []string{"a-start", "b", "a-end"}
	for i := range want {
		if i >= len(order) || order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

// TestDispatchedCountsByKind pins the kernel's self-report: every
// callback — After, AfterFunc, an unparked continuation — and every
// message is counted once, by kind, and a cancelled timer not at all.
func TestDispatchedCountsByKind(t *testing.T) {
	env := NewEnv()
	gate := NewGate(env)
	gate.Wait(func() {})
	env.After(time.Second, gate.Notify)
	env.Cancel(env.AfterFunc(time.Second, func() {}))
	env.AfterFunc(2*time.Second, func() {})
	env.PostMsg(Time(time.Second), fnMsg(func() {}))
	env.Run()
	if calls, msgs := env.Dispatched(); calls != 3 || msgs != 1 {
		t.Errorf("dispatched %d callbacks and %d messages, want 3 and 1", calls, msgs)
	}
}

// TestEventHeapOrderProperty checks the (time, seq) dequeue invariant
// with random event sets.
func TestEventHeapOrderProperty(t *testing.T) {
	prop := func(times []int16) bool {
		var h eventHeap
		for i, raw := range times {
			at := Time(int64(raw)&0x7fff) * Time(time.Millisecond)
			h.push(&event{at: at, seq: int64(i)})
		}
		lastAt := Time(-1)
		lastSeq := int64(-1)
		for len(h) > 0 {
			ev := h.remove(0)
			if ev.at < lastAt {
				return false
			}
			if ev.at == lastAt && ev.seq < lastSeq {
				return false
			}
			lastAt, lastSeq = ev.at, ev.seq
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestRandomResourceWorkloadConserves checks that an arbitrary mix of
// waits and resource uses completes every worker exactly once and
// never exceeds capacity.
func TestRandomResourceWorkloadConserves(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 20; trial++ {
		env := NewEnv()
		capN := 1 + rng.Intn(3)
		res := NewResource(env, "r", capN)
		n := 5 + rng.Intn(20)
		durs := make([]time.Duration, n)
		for i := range durs {
			durs[i] = time.Duration(1+rng.Intn(1000)) * time.Millisecond
		}
		completed := 0
		maxInUse := 0
		for i := 0; i < n; i++ {
			d := durs[i]
			hold := func() {
				if res.InUse() > maxInUse {
					maxInUse = res.InUse()
				}
				env.After(d, func() {
					res.Release()
					completed++
				})
			}
			env.After(d/2, func() {
				if res.Acquire(hold) {
					hold()
				}
			})
		}
		env.Run()
		if completed != n {
			t.Fatalf("trial %d: completed %d of %d", trial, completed, n)
		}
		if maxInUse > capN {
			t.Fatalf("trial %d: in-use %d exceeded capacity %d", trial, maxInUse, capN)
		}
	}
}

func TestTimeHelpers(t *testing.T) {
	tm := Time(0).Add(1500 * time.Millisecond)
	if tm.Seconds() != 1.5 {
		t.Errorf("Seconds = %v, want 1.5", tm.Seconds())
	}
	if tm.Sub(Time(time.Second)) != 500*time.Millisecond {
		t.Errorf("Sub = %v, want 500ms", tm.Sub(Time(time.Second)))
	}
	if tm.Duration() != 1500*time.Millisecond {
		t.Errorf("Duration = %v", tm.Duration())
	}
	if tm.String() != "1.5s" {
		t.Errorf("String = %q", tm.String())
	}
}

// TestReopenRunsSecondRound checks that a second Run on a drained
// environment continues from the first round's clock.
func TestReopenRunsSecondRound(t *testing.T) {
	env := NewEnv()
	var order []string
	env.After(time.Second, func() { order = append(order, "first") })
	env.Run()
	// The clock continues: the second round starts where the first ended.
	env.After(time.Second, func() { order = append(order, "second") })
	end := env.Run()
	if end != Time(2*time.Second) {
		t.Errorf("clock = %v after second round, want 2s", end)
	}
	if len(order) != 2 || order[0] != "first" || order[1] != "second" {
		t.Errorf("order = %v", order)
	}
}

func TestCancelRevokesPendingTimer(t *testing.T) {
	env := NewEnv()
	fired := false
	tm := env.AfterFunc(time.Second, func() { fired = true })
	if !env.Cancel(tm) {
		t.Fatal("Cancel of a pending timer returned false")
	}
	env.Run()
	if fired {
		t.Error("cancelled callback still ran")
	}
	// A second cancel of the same handle is a no-op.
	if env.Cancel(tm) {
		t.Error("double Cancel returned true")
	}
}

func TestCancelAfterFireReturnsFalse(t *testing.T) {
	env := NewEnv()
	fired := 0
	tm := env.AfterFunc(time.Second, func() { fired++ })
	env.Run()
	if fired != 1 {
		t.Fatalf("callback ran %d times, want 1", fired)
	}
	if env.Cancel(tm) {
		t.Error("Cancel after fire returned true")
	}
}

// TestCancelStaleHandleDoesNotKillReusedEvent pins the pooled-event
// generation guard: a handle whose event fired and was recycled into a
// new timer must not cancel the new timer.
func TestCancelStaleHandleDoesNotKillReusedEvent(t *testing.T) {
	env := NewEnv()
	stale := env.AfterFunc(time.Second, func() {})
	env.Run()

	fired := false
	env.AfterFunc(time.Second, func() { fired = true })
	if env.Cancel(stale) {
		t.Error("stale handle cancelled something")
	}
	env.Run()
	if !fired {
		t.Error("stale Cancel revoked a reused event's callback")
	}
}

func TestCancelZeroTimer(t *testing.T) {
	if NewEnv().Cancel(Timer{}) {
		t.Error("Cancel of zero Timer returned true")
	}
}

// TestCancelInterleavedKeepsOrdering cancels one of three timers and
// checks the survivors fire in timestamp order.
func TestCancelInterleavedKeepsOrdering(t *testing.T) {
	env := NewEnv()
	var order []string
	env.AfterFunc(1*time.Second, func() { order = append(order, "a") })
	b := env.AfterFunc(2*time.Second, func() { order = append(order, "b") })
	env.AfterFunc(3*time.Second, func() { order = append(order, "c") })
	if !env.Cancel(b) {
		t.Fatal("Cancel failed")
	}
	env.Run()
	if len(order) != 2 || order[0] != "a" || order[1] != "c" {
		t.Errorf("order = %v, want [a c]", order)
	}
}

// TestHeapPopClearsIndex pins the invariant Cancel relies on: an event
// leaving the heap must not keep a stale index.
func TestHeapPopClearsIndex(t *testing.T) {
	var h eventHeap
	evs := []*event{{at: 1, seq: 1}, {at: 2, seq: 2}, {at: 3, seq: 3}}
	for _, ev := range evs {
		h.push(ev)
	}
	for len(h) > 0 {
		ev := h.remove(0)
		if ev.index != -1 {
			t.Fatalf("popped event seq %d kept heap index %d", ev.seq, ev.index)
		}
	}
}

// TestEventHeapRandomOps drives the heap with random pushes, removals
// by cached index (Env.Cancel's path) and pops. After every operation
// each event's index must match its slot and every parent must precede
// its children; the pops must come out in (at, seq) order, and the
// events still queued at the end must drain in the sorted order of the
// survivors.
func TestEventHeapRandomOps(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 200; trial++ {
		var h eventHeap
		live := map[*event]bool{}
		check := func(op string) {
			t.Helper()
			for i, ev := range h {
				if ev.index != i {
					t.Fatalf("trial %d after %s: h[%d].index = %d", trial, op, i, ev.index)
				}
				if i > 0 && h.less(ev, h[(i-1)/2]) {
					t.Fatalf("trial %d after %s: h[%d] precedes its parent", trial, op, i)
				}
			}
			if len(h) != len(live) {
				t.Fatalf("trial %d after %s: heap holds %d events, want %d", trial, op, len(h), len(live))
			}
		}
		var seq int64
		for op := 0; op < 300; op++ {
			switch k := rng.Intn(10); {
			case k < 5 || len(h) == 0:
				seq++
				ev := &event{at: Time(rng.Intn(20)), seq: seq}
				h.push(ev)
				live[ev] = true
				check("push")
			case k < 8:
				ev := h[rng.Intn(len(h))]
				if got := h.remove(ev.index); got != ev || ev.index != -1 {
					t.Fatalf("trial %d: remove returned seq %d (index %d), want seq %d", trial, got.seq, ev.index, ev.seq)
				}
				delete(live, ev)
				check("remove")
			default:
				ev := h.remove(0)
				for other := range live {
					if other != ev && h.less(other, ev) {
						t.Fatalf("trial %d: popped (%d, %d) while (%d, %d) was queued", trial, ev.at, ev.seq, other.at, other.seq)
					}
				}
				if ev.index != -1 {
					t.Fatalf("trial %d: popped event kept index %d", trial, ev.index)
				}
				delete(live, ev)
				check("pop")
			}
		}
		want := make([]*event, 0, len(live))
		for ev := range live {
			want = append(want, ev)
		}
		sort.Slice(want, func(i, j int) bool { return h.less(want[i], want[j]) })
		for i, w := range want {
			if got := h.remove(0); got != w {
				t.Fatalf("trial %d: drain pop %d = (%d, %d), want (%d, %d)", trial, i, got.at, got.seq, w.at, w.seq)
			}
		}
	}
}

// TestSleepSteadyStateAllocations pins the pooled kernel hot path: a
// full ping-pong workload (1000 re-armed callbacks across 4 chains)
// must stay well under the ~2 allocations per wait the closure-based
// kernel paid. The budget covers environment construction, the four
// chains' callbacks, and heap growth — not per-wait garbage.
func TestSleepSteadyStateAllocations(t *testing.T) {
	allocs := testing.AllocsPerRun(3, func() {
		env := NewEnv()
		for i := 0; i < 4; i++ {
			left := 250
			var step func()
			step = func() {
				if left--; left > 0 {
					env.After(time.Millisecond, step)
				}
			}
			env.After(time.Millisecond, step)
		}
		env.Run()
	})
	if allocs > 200 {
		t.Errorf("kernel workload allocated %.0f objects, want <= 200 (was ~2000 before event pooling)", allocs)
	}
}

// TestEventPoolReuseAcrossReopen checks warm restarts reuse the free
// list: a second identical round on a drained environment should not
// allocate per-event.
func TestEventPoolReuseAcrossReopen(t *testing.T) {
	env := NewEnv()
	round := func() {
		for i := 0; i < 100; i++ {
			env.After(time.Duration(i)*time.Millisecond, func() {})
		}
		env.Run()
	}
	round()
	allocs := testing.AllocsPerRun(1, round)
	if allocs > 10 {
		t.Errorf("reopened round allocated %.0f objects, want <= 10", allocs)
	}
}

func TestCancelAcrossEnvironmentsPanics(t *testing.T) {
	a, b := NewEnv(), NewEnv()
	tm := a.AfterFunc(time.Second, func() {})
	defer func() {
		if recover() == nil {
			t.Error("no panic cancelling another environment's timer")
		}
	}()
	b.Cancel(tm)
}
