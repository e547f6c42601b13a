package sim

import (
	"fmt"
	"slices"
	"testing"
	"time"
)

// fnMsg adapts a closure to Message, so the kernel tests can post plain
// functions across partitions.
type fnMsg func()

func (f fnMsg) Deliver(Time) { f() }

// shardFold is one completion of the fixed workload, folded back to the
// coordinator.
type shardFold struct {
	at   Time
	job  int
	part int
}

// The fixed workload: traceJobs jobs spread over traceParts worker
// partitions, hops of exactly the lookahead.
const (
	traceParts = 4
	traceJobs  = 48
	traceLA    = 10 * time.Millisecond
)

// traceSend and traceService are job j's dispatch offset and service
// time.
func traceSend(j int) time.Duration    { return time.Duration(j%17) * 3 * time.Millisecond }
func traceService(j int) time.Duration { return time.Duration(1+j%7) * time.Millisecond }

// shardTrace runs the fixed cross-partition workload — coordinator
// dispatch, per-partition service in a local proc, folds back to the
// coordinator — for the given number of streams, reopening the kernel
// between them. It returns each stream's folds in arrival order, each
// stream's final clock, and the kernel.
func shardTrace(streams int) ([][]shardFold, []Time, *Sharded) {
	s := NewSharded(1+traceParts, traceLA)
	coord := s.Part(0)
	folds := make([][]shardFold, streams)
	ends := make([]Time, streams)
	for k := range folds {
		if k > 0 {
			s.Reopen()
		}
		for j := 0; j < traceJobs; j++ {
			target := 1 + j%traceParts
			env := s.Part(target)
			coord.After(traceSend(j), func() {
				s.PostMsg(coord, target, coord.Now().Add(traceLA), fnMsg(func() {
					env.Go("service", func(p *Proc) {
						p.Sleep(traceService(j))
						s.PostMsg(env, 0, p.Now().Add(traceLA), fnMsg(func() {
							folds[k] = append(folds[k], shardFold{at: coord.Now(), job: j, part: target})
						}))
					})
				}))
			})
		}
		ends[k] = s.Run()
	}
	return folds, ends, s
}

// TestShardedEventOrder pins the kernel's event order on the fixed
// workload: every job folds back exactly two hops plus its service time
// after its dispatch, folds land in (time, source partition) order, and
// a second run reproduces the first fold for fold.
func TestShardedEventOrder(t *testing.T) {
	folds, ends, _ := shardTrace(1)
	got := folds[0]
	if len(got) != traceJobs {
		t.Fatalf("%d folds, want %d", len(got), traceJobs)
	}
	for i, f := range got {
		if want := Time(traceSend(f.job) + 2*traceLA + traceService(f.job)); f.at != want {
			t.Errorf("job %d folded at %v, want %v", f.job, f.at, want)
		}
		if i == 0 {
			continue
		}
		if p := got[i-1]; f.at < p.at || f.at == p.at && f.part < p.part {
			t.Errorf("fold %d (part %d @%v) landed after fold %d (part %d @%v)", i, f.part, f.at, i-1, p.part, p.at)
		}
	}
	again, againEnds, _ := shardTrace(1)
	if !slices.Equal(got, again[0]) || againEnds[0] != ends[0] {
		t.Errorf("second run diverged: end %v vs %v", againEnds[0], ends[0])
	}
}

// TestShardedReopen pins the warm-restart path: after Run drains all
// partitions, Reopen re-arms them, the clocks continue, and the second
// stream repeats the first shifted by the first stream's end.
func TestShardedReopen(t *testing.T) {
	folds, ends, _ := shardTrace(2)
	if len(folds[1]) != len(folds[0]) {
		t.Fatalf("second stream folded %d jobs, first %d", len(folds[1]), len(folds[0]))
	}
	for i, f := range folds[1] {
		w := folds[0][i]
		if f.job != w.job || f.part != w.part || f.at != w.at+ends[0] {
			t.Fatalf("second stream fold %d = %+v, want %+v shifted by %v", i, f, w, ends[0])
		}
	}
	if ends[1] != 2*ends[0] {
		t.Errorf("second stream ended at %v, want %v", ends[1], 2*ends[0])
	}
}

// TestShardedStats pins the round counters and the bound they give.
func TestShardedStats(t *testing.T) {
	// By hand: two partitions with one event each at time 0 run in one
	// round, so half the work overlaps.
	s := NewSharded(3, time.Millisecond)
	s.Part(1).After(0, func() {})
	s.Part(2).After(0, func() {})
	s.Run()
	want := ShardStats{Rounds: 1, Active: 2, RoundEvents: 2, CritEvents: 1}
	if got := s.Stats(); got != want || got.Bound() != 2 {
		t.Errorf("two-event round: stats %+v bound %v, want %+v bound 2", got, got.Bound(), want)
	}
	if b := (ShardStats{}).Bound(); b != 1 {
		t.Errorf("idle kernel bound = %v, want 1", b)
	}

	// The fixed workload, twice: per job the coordinator fires the
	// dispatch and the fold, the worker the offer, the proc start and
	// its wake-up, and two messages cross. Counts accumulate over
	// Reopen.
	_, _, s = shardTrace(2)
	got := s.Stats()
	want = ShardStats{Rounds: 54, Active: 142, RoundEvents: 288, CoordEvents: 192, CritEvents: 126, Posts: 192}
	if got != want {
		t.Errorf("fixed workload stats %+v, want %+v", got, want)
	}
	if b, w := got.Bound(), 480.0/318.0; b != w {
		t.Errorf("fixed workload bound %v, want %v", b, w)
	}
}

// TestShardedTimerAcrossPartitions exercises AfterFunc and Cancel in the
// sharded kernel: a coordinator timer fires and posts across a partition
// boundary, a worker partition's timer folds back across the boundary,
// and a cancelled timer never crosses at all.
func TestShardedTimerAcrossPartitions(t *testing.T) {
	la := 10 * time.Millisecond
	s := NewSharded(3, la)
	coord, w := s.Part(0), s.Part(1)
	var fired []string
	// Coordinator timer -> cross-partition post -> worker-side echo back.
	coord.AfterFunc(5*time.Millisecond, func() {
		s.PostMsg(coord, 1, coord.Now().Add(la), fnMsg(func() {
			fired = append(fired, fmt.Sprintf("w@%v", w.Now()))
			s.PostMsg(w, 0, w.Now().Add(la), fnMsg(func() {
				fired = append(fired, fmt.Sprintf("c@%v", coord.Now()))
			}))
		}))
	})
	// Worker-partition timer armed before Run, folding back on fire.
	w.AfterFunc(7*time.Millisecond, func() {
		s.PostMsg(w, 0, w.Now().Add(la), fnMsg(func() {
			fired = append(fired, fmt.Sprintf("wt@%v", coord.Now()))
		}))
	})
	// A timer cancelled before its deadline must never fire.
	cancelled := coord.AfterFunc(20*time.Millisecond, func() {
		fired = append(fired, "cancelled-fired")
	})
	coord.After(6*time.Millisecond, func() {
		if !coord.Cancel(cancelled) {
			t.Error("Cancel reported the pending timer as already gone")
		}
	})
	s.Run()
	want := []string{"w@15ms", "wt@17ms", "c@25ms"}
	if !slices.Equal(fired, want) {
		t.Fatalf("fired = %v, want %v", fired, want)
	}
}

// TestShardedLookaheadViolationPanics pins the conservative contract: a
// worker-partition post closer than lookahead is a bug and must panic
// rather than silently reorder events.
func TestShardedLookaheadViolationPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("lookahead violation did not panic")
		}
	}()
	s := NewSharded(2, 10*time.Millisecond)
	coord, w := s.Part(0), s.Part(1)
	coord.After(0, func() {
		s.PostMsg(coord, 1, 0, fnMsg(func() {
			s.PostMsg(w, 0, w.Now(), fnMsg(func() {}))
		}))
	})
	s.Run()
}

// TestShardedValidation pins the constructor's contract checks.
func TestShardedValidation(t *testing.T) {
	mustPanic := func(name string, fn func()) {
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", name)
			}
		}()
		fn()
	}
	mustPanic("one partition", func() { NewSharded(1, time.Millisecond) })
	mustPanic("zero lookahead", func() { NewSharded(2, 0) })
	mustPanic("foreign env post", func() {
		s := NewSharded(2, time.Millisecond)
		s.PostMsg(NewEnv(), 0, 0, fnMsg(func() {}))
	})
}
