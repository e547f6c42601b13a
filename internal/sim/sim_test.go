package sim

import (
	"errors"
	"math/rand"
	"runtime"
	"sort"
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
	env.Go("sleeper", func(p *Proc) {
		p.Sleep(3 * time.Second)
		woke = p.Now()
	})
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
	env.Go("p", func(p *Proc) {
		for i := 0; i < 3; i++ {
			p.Sleep(time.Second)
			marks = append(marks, p.Now())
		}
	})
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
			name := name
			env.Go(name, func(p *Proc) {
				p.Sleep(time.Second)
				order = append(order, name+"1")
				p.Sleep(time.Second)
				order = append(order, name+"2")
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
		name := name
		env.Go(name, func(p *Proc) {
			ev.Wait(p)
			woke = append(woke, name)
		})
	}
	env.Go("firer", func(p *Proc) {
		p.Sleep(time.Second)
		ev.Fire()
	})
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
	env.Go("late", func(p *Proc) {
		p.Sleep(time.Second)
		ev.Wait(p)
		at = p.Now()
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
	env.Go("waiter", func(p *Proc) {
		for i := 0; i < 3; i++ {
			g.Wait(p)
			wakes++
		}
	})
	env.Go("notifier", func(p *Proc) {
		for i := 0; i < 3; i++ {
			p.Sleep(time.Second)
			g.Notify()
		}
	})
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
		env.Go("user", func(p *Proc) {
			res.Acquire(p)
			start := p.Now()
			p.Sleep(time.Second)
			res.Release(p)
			spans = append(spans, [2]Time{start, p.Now()})
		})
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
	if res.BusyTime() != 3*time.Second {
		t.Errorf("busy time = %v, want 3s", res.BusyTime())
	}
}

func TestResourceCapacityTwoOverlaps(t *testing.T) {
	env := NewEnv()
	res := NewResource(env, "bus", 2)
	var finished []Time
	for i := 0; i < 4; i++ {
		env.Go("user", func(p *Proc) {
			res.Use(p, time.Second)
			finished = append(finished, p.Now())
		})
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
		i := i
		env.Go("u", func(p *Proc) {
			// Stagger arrivals so the queue order is unambiguous.
			p.Sleep(time.Duration(i) * time.Millisecond)
			res.Acquire(p)
			order = append(order, i)
			p.Sleep(time.Second)
			res.Release(p)
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
	var first, second bool
	env.Go("p", func(p *Proc) {
		first = res.TryAcquire(p)
		second = res.TryAcquire(p)
		if first {
			res.Release(p)
		}
	})
	env.Run()
	if !first || second {
		t.Errorf("TryAcquire = %v, %v; want true, false", first, second)
	}
}

func TestReleaseWithoutAcquirePanics(t *testing.T) {
	env := NewEnv()
	res := NewResource(env, "r", 1)
	var recovered bool
	env.Go("p", func(p *Proc) {
		defer func() {
			if recover() != nil {
				recovered = true
			}
		}()
		res.Release(p)
	})
	env.Run()
	if !recovered {
		t.Error("no panic on unpaired Release")
	}
}

func TestRunDrainsBlockedProcesses(t *testing.T) {
	env := NewEnv()
	ev := NewEvent(env)
	env.Go("stuck", func(p *Proc) {
		ev.Wait(p) // never fired
		t.Error("stuck process resumed normally")
	})
	env.Run()
	if env.Procs() != 0 {
		t.Errorf("procs remaining = %d, want 0", env.Procs())
	}
	if !env.Terminated() {
		t.Error("env not terminated after Run")
	}
}

// TestRunLeavesNoGoroutines checks that draining parked processes
// finishes their coroutines before Run returns: the goroutine count,
// raised while they are parked, is back where it started. (A helper
// goroutine of an earlier test may still be exiting, so the check is
// that none is left over, not an exact count.)
func TestRunLeavesNoGoroutines(t *testing.T) {
	before := runtime.NumGoroutine()
	during := 0
	env := NewEnv()
	ev := NewEvent(env)
	gate := NewGate(env)
	res := NewResource(env, "r", 1)
	env.Go("holder", func(p *Proc) {
		res.Acquire(p)
		ev.Wait(p) // never fired: parked holding the resource
	})
	for i := 0; i < 4; i++ {
		env.Go("waiter", func(p *Proc) { gate.Wait(p) })
		env.Go("contender", func(p *Proc) { res.Acquire(p) })
	}
	env.Go("sleeper", func(p *Proc) {
		during = runtime.NumGoroutine() // every other process is parked now
		p.Sleep(time.Second)
	})
	env.Run()
	if env.Procs() != 0 {
		t.Errorf("procs remaining = %d, want 0", env.Procs())
	}
	if during <= before {
		t.Errorf("goroutines while processes were parked = %d, want more than %d", during, before)
	}
	if after := runtime.NumGoroutine(); after > before {
		t.Errorf("goroutines after Run = %d, want at most %d", after, before)
	}
}

// processPanic is the value process code panics with in the panic tests.
type processPanic struct{ id int }

// recoverRun calls run and returns what it panicked with, recovered on
// the calling goroutine.
func recoverRun(run func()) (r any) {
	defer func() { r = recover() }()
	run()
	return nil
}

// TestProcessPanicLeavesRun checks that a panic in process code unwinds
// out of Env.Run on the caller's goroutine with its original value.
func TestProcessPanicLeavesRun(t *testing.T) {
	got := recoverRun(func() {
		env := NewEnv()
		env.Go("fine", func(p *Proc) { p.Sleep(time.Second) })
		env.Go("faulty", func(p *Proc) {
			p.Sleep(time.Millisecond)
			panic(processPanic{7})
		})
		env.Run()
	})
	if got != (processPanic{7}) {
		t.Fatalf("Run panicked with %T %.80v, want processPanic{7}", got, got)
	}
}

// TestProcessPanicCapturedByMap: since a process panic reaches the
// caller of Run, runner.Map reports it as the failing job's error and
// the other jobs finish.
func TestProcessPanicCapturedByMap(t *testing.T) {
	ends, err := runner.Map(runner.New(2), 3, func(i int) (Time, error) {
		env := NewEnv()
		env.Go("job", func(p *Proc) {
			p.Sleep(time.Duration(i+1) * time.Second)
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
	env.Go("ticker", func(p *Proc) {
		for i := 0; i < 10; i++ {
			p.Sleep(time.Second)
			ticks++
		}
	})
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
	env.Go("p", func(p *Proc) { p.Sleep(time.Second) })
	env.Run()
	defer func() {
		if recover() == nil {
			t.Fatal("no panic scheduling in the past")
		}
	}()
	env.schedule(0, func() {})
}

func TestYieldLetsPeersRun(t *testing.T) {
	env := NewEnv()
	var order []string
	env.Go("a", func(p *Proc) {
		order = append(order, "a-start")
		p.Yield()
		order = append(order, "a-end")
	})
	env.Go("b", func(p *Proc) {
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
// sleeps and resource uses completes every process exactly once and
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
			env.Go("w", func(p *Proc) {
				p.Sleep(d / 2)
				res.Acquire(p)
				if res.InUse() > maxInUse {
					maxInUse = res.InUse()
				}
				p.Sleep(d)
				res.Release(p)
				completed++
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

func TestReopenRunsSecondRound(t *testing.T) {
	env := NewEnv()
	var order []string
	env.Go("first", func(p *Proc) {
		p.Sleep(time.Second)
		order = append(order, "first")
	})
	env.Run()
	if !env.Terminated() {
		t.Fatal("env not terminated after Run")
	}
	env.Reopen()
	if env.Terminated() {
		t.Fatal("env still terminated after Reopen")
	}
	// The clock continues: the second round starts where the first ended.
	env.Go("second", func(p *Proc) {
		p.Sleep(time.Second)
		order = append(order, "second")
	})
	end := env.Run()
	if end != Time(2*time.Second) {
		t.Errorf("clock = %v after second round, want 2s", end)
	}
	if len(order) != 2 || order[0] != "first" || order[1] != "second" {
		t.Errorf("order = %v", order)
	}
}

func TestReopenBeforeDrainPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Reopen on a fresh env did not panic")
		}
	}()
	NewEnv().Reopen()
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

	env.Reopen()
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

// TestSleepSteadyStateAllocations pins the pooled, closure-free kernel
// hot path: a full ping-pong workload (1000 sleeps across 4 processes)
// must stay well under the ~2 allocations per sleep the closure-based
// kernel paid. The budget covers environment construction, the four
// process coroutines, and heap growth — not per-sleep garbage.
func TestSleepSteadyStateAllocations(t *testing.T) {
	allocs := testing.AllocsPerRun(3, func() {
		env := NewEnv()
		for i := 0; i < 4; i++ {
			env.Go("p", func(p *Proc) {
				for s := 0; s < 250; s++ {
					p.Sleep(time.Millisecond)
				}
			})
		}
		env.Run()
	})
	if allocs > 200 {
		t.Errorf("kernel workload allocated %.0f objects, want <= 200 (was ~2000 before event pooling)", allocs)
	}
}

// BenchmarkProcRoundTrip prices one process wake-up: Sleep parks the
// process, and the kernel pops its timer and switches back into it.
func BenchmarkProcRoundTrip(b *testing.B) {
	env := NewEnv()
	env.Go("sleeper", func(p *Proc) {
		for i := 0; i < b.N; i++ {
			p.Sleep(time.Nanosecond)
		}
	})
	b.ReportAllocs()
	b.ResetTimer()
	env.Run()
}

// TestEventPoolReuseAcrossReopen checks warm restarts reuse the free
// list: a second identical round on a reopened environment should not
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
	env.Reopen()
	allocs := testing.AllocsPerRun(1, func() {
		round()
		env.Reopen()
	})
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
