package sim

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"time"
)

// refEnv is the reference kernel for the lane: every event, due now or
// later, waits in one list, and the loop pops the least (time,
// sequence) by a linear scan. It has no heap, no lane and no free list.
type refEnv struct {
	now    Time
	seq    int64
	queued []*refEvent
}

type refEvent struct {
	at  Time
	seq int64
	fn  func()
}

func (r *refEnv) schedule(at Time, fn func()) *refEvent {
	r.seq++
	ev := &refEvent{at: at, seq: r.seq, fn: fn}
	r.queued = append(r.queued, ev)
	return ev
}

func (r *refEnv) cancel(ev *refEvent) bool {
	i := slices.Index(r.queued, ev)
	if i < 0 {
		return false
	}
	r.queued = slices.Delete(r.queued, i, i+1)
	return true
}

func (r *refEnv) runUntil(deadline Time) {
	for len(r.queued) > 0 {
		i := 0
		for j, ev := range r.queued {
			if ev.at < r.queued[i].at || ev.at == r.queued[i].at && ev.seq < r.queued[i].seq {
				i = j
			}
		}
		ev := r.queued[i]
		if ev.at > deadline {
			break
		}
		r.queued = slices.Delete(r.queued, i, i+1)
		r.now = ev.at
		ev.fn()
	}
	if len(r.queued) > 0 && r.now < deadline {
		r.now = deadline
	}
}

// kernel is the scheduling surface the order test drives on both
// kernels. Timers are named by the order they were armed in.
type kernel interface {
	now() Time
	after(d time.Duration, fn func())
	afterFunc(d time.Duration, fn func())
	cancel(timer int) bool
	armed() int
	post(at Time, fn func())
	runUntil(deadline Time)
	run()
}

type envKernel struct {
	env    *Env
	timers []Timer
}

func (k *envKernel) now() Time                        { return k.env.Now() }
func (k *envKernel) after(d time.Duration, fn func()) { k.env.After(d, fn) }
func (k *envKernel) afterFunc(d time.Duration, fn func()) {
	k.timers = append(k.timers, k.env.AfterFunc(d, fn))
}
func (k *envKernel) cancel(i int) bool       { return k.env.Cancel(k.timers[i]) }
func (k *envKernel) armed() int              { return len(k.timers) }
func (k *envKernel) post(at Time, fn func()) { k.env.PostMsg(at, fnMsg(fn)) }
func (k *envKernel) runUntil(deadline Time)  { k.env.RunUntil(deadline) }
func (k *envKernel) run()                    { k.env.Run() }

type refKernel struct {
	ref    refEnv
	timers []*refEvent
}

func (k *refKernel) now() Time                        { return k.ref.now }
func (k *refKernel) after(d time.Duration, fn func()) { k.ref.schedule(k.ref.now.Add(d), fn) }
func (k *refKernel) afterFunc(d time.Duration, fn func()) {
	k.timers = append(k.timers, k.ref.schedule(k.ref.now.Add(d), fn))
}
func (k *refKernel) cancel(i int) bool       { return k.ref.cancel(k.timers[i]) }
func (k *refKernel) armed() int              { return len(k.timers) }
func (k *refKernel) post(at Time, fn func()) { k.ref.schedule(at, fn) }
func (k *refKernel) runUntil(deadline Time)  { k.ref.runUntil(deadline) }
func (k *refKernel) run()                    { k.ref.runUntil(1<<63 - 1) }

// orderScript drives k through a random schedule drawn from seed and
// returns the log of what ran when and what each cancel reported. Each
// callback, when it runs, schedules more events: After and AfterFunc at
// 0 or a few milliseconds, PostMsg at now or later, and cancels of
// timers armed earlier, some of them due now. Between RunUntil calls,
// whose deadlines may fall before the clock, events are also scheduled
// from outside the loop; a final Run drains the rest.
func orderScript(k kernel, seed int64) []string {
	rng := rand.New(rand.NewSource(seed))
	var log []string
	budget, id := 400, 0
	delay := func() time.Duration {
		if rng.Intn(2) == 0 {
			return 0
		}
		return time.Duration(rng.Intn(4)) * time.Millisecond
	}
	// act takes one random step: schedule a new callback, or cancel a
	// timer armed earlier and log whether the cancel took.
	var spawn, act func()
	act = func() {
		if n := k.armed(); n > 0 && rng.Intn(3) == 0 {
			i := rng.Intn(n)
			log = append(log, fmt.Sprintf("cancel %d: %v", i, k.cancel(i)))
			return
		}
		spawn()
	}
	spawn = func() {
		if budget--; budget < 0 {
			return
		}
		id++
		me := id
		fn := func() {
			log = append(log, fmt.Sprintf("%d@%v", me, k.now()))
			for n := rng.Intn(4); n > 0; n-- {
				act()
			}
		}
		switch rng.Intn(3) {
		case 0:
			k.after(delay(), fn)
		case 1:
			k.afterFunc(delay(), fn)
		default:
			k.post(k.now().Add(delay()), fn)
		}
	}
	for round := 0; round < 8; round++ {
		for n := rng.Intn(6); n > 0; n-- {
			act()
		}
		deadline := k.now().Add(time.Duration(rng.Intn(12)-4) * time.Millisecond)
		k.runUntil(deadline)
		log = append(log, fmt.Sprintf("until %v: now %v", deadline, k.now()))
	}
	k.run()
	return append(log, fmt.Sprintf("end %v", k.now()))
}

// TestLaneMatchesHeapOrder: events scheduled for the current instant
// wait in the lane rather than the heap, and the loop must still pop
// every event in (time, sequence) order. Random schedules that mix
// After(0) from inside callbacks, AfterFunc(0) with Cancel, PostMsg at
// now and RunUntil (deadlines before the clock included) must run, and
// cancel, exactly as on a kernel that queues everything in one list.
func TestLaneMatchesHeapOrder(t *testing.T) {
	for seed := int64(1); seed <= 300; seed++ {
		env := NewEnv()
		got := orderScript(&envKernel{env: env}, seed)
		want := orderScript(&refKernel{}, seed)
		if !slices.Equal(got, want) {
			for i := range min(len(got), len(want)) {
				if got[i] != want[i] {
					t.Fatalf("seed %d: step %d = %q, reference %q", seed, i, got[i], want[i])
				}
			}
			t.Fatalf("seed %d: %d steps, reference %d", seed, len(got), len(want))
		}
		if len(env.lane) != 0 || len(env.events) != 0 {
			t.Fatalf("seed %d: %d lane and %d heap events left after the final run", seed, len(env.lane), len(env.events))
		}
	}
}

// TestLaneStaysBoundedWithinAnInstant: an instant whose lane never
// drains, five chains each rescheduling itself with After(0) for 10,000
// events, runs the chains round-robin in FIFO order, and the lane slides
// its live events down rather than growing with every event of the
// instant.
func TestLaneStaysBoundedWithinAnInstant(t *testing.T) {
	const chains, events = 5, 10_000
	env := NewEnv()
	var order []int
	for c := range chains {
		var step func()
		step = func() {
			order = append(order, c)
			if len(order) <= events-chains {
				env.After(0, step)
			}
		}
		env.After(0, step)
	}
	if end := env.Run(); end != 0 {
		t.Fatalf("clock moved to %v", end)
	}
	if len(order) != events {
		t.Fatalf("%d events ran, want %d", len(order), events)
	}
	for i, c := range order {
		if c != i%chains {
			t.Fatalf("event %d ran chain %d, want %d", i, c, i%chains)
		}
	}
	if cap(env.lane) > 4*chains {
		t.Errorf("lane grew to %d slots for %d live events", cap(env.lane), chains)
	}
}
