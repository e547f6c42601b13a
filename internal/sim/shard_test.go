package sim

import (
	"fmt"
	"runtime"
	"testing"
	"time"
)

// fnMsg adapts a closure to Message, so the kernel tests can post plain
// functions across partitions.
type fnMsg func()

func (f fnMsg) Deliver(Time) { f() }

// shardTrace runs a fixed cross-partition workload — coordinator
// dispatch, per-partition service with local timers and procs, folds
// back to the coordinator — and returns its event log. The log must be
// identical at every worker count.
func shardTrace(workers, rounds int) []string {
	const (
		parts = 4
		jobs  = 48
	)
	la := 10 * time.Millisecond
	s := NewSharded(1+parts, workers, la)
	coord := s.Part(0)
	var log []string
	for round := 0; round < rounds; round++ {
		if round > 0 {
			s.Reopen()
		}
		done := 0
		for j := 0; j < jobs; j++ {
			j := j
			target := 1 + j%parts
			env := s.Part(target)
			sendAt := time.Duration(j%17) * 3 * time.Millisecond
			coord.After(sendAt, func() {
				now := coord.Now()
				s.PostMsg(coord, target, now.Add(la), fnMsg(func() {
					// Inside the worker partition: model service time with a
					// local proc, then fold the completion back.
					env.Go("service", func(p *Proc) {
						p.Sleep(time.Duration(1+j%7) * time.Millisecond)
						fin := p.Now()
						s.PostMsg(env, 0, fin.Add(la), fnMsg(func() {
							done++
							log = append(log, fmt.Sprintf("%v job=%d part=%d done=%d", coord.Now(), j, target, done))
						}))
					})
				}))
			})
		}
		end := s.Run()
		log = append(log, fmt.Sprintf("round=%d end=%v done=%d", round, end, done))
	}
	return log
}

// TestShardedDeterministicAcrossWorkers pins the kernel's core
// guarantee: the same workload produces an identical event log at every
// worker count, sequential included.
func TestShardedDeterministicAcrossWorkers(t *testing.T) {
	want := shardTrace(1, 1)
	if len(want) != 49 {
		t.Fatalf("reference log has %d entries, want 49", len(want))
	}
	for _, workers := range []int{2, 3, runtime.GOMAXPROCS(0) + 2} {
		got := shardTrace(workers, 1)
		if len(got) != len(want) {
			t.Fatalf("workers=%d: %d log entries, want %d", workers, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("workers=%d: log[%d] = %q, want %q", workers, i, got[i], want[i])
			}
		}
	}
}

// TestShardedReopen pins the warm-restart path: after Run drains all
// partitions, Reopen re-arms them, the clocks continue, and a second
// identical workload stays deterministic across worker counts.
func TestShardedReopen(t *testing.T) {
	want := shardTrace(1, 2)
	got := shardTrace(3, 2)
	if len(got) != len(want) {
		t.Fatalf("%d log entries, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("log[%d] = %q, want %q", i, got[i], want[i])
		}
	}
}

// TestShardedTimerAcrossPartitions exercises AfterFunc and Cancel in the
// sharded kernel: a coordinator timer fires and posts across a partition
// boundary, a worker partition's timer folds back across the boundary,
// and a cancelled timer never crosses at all.
func TestShardedTimerAcrossPartitions(t *testing.T) {
	la := 10 * time.Millisecond
	s := NewSharded(3, 2, la)
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
	if len(fired) != len(want) {
		t.Fatalf("fired = %v, want %v", fired, want)
	}
	for i := range want {
		if fired[i] != want[i] {
			t.Fatalf("fired = %v, want %v", fired, want)
		}
	}
}

// TestShardedLookaheadViolationPanics pins the conservative contract: a
// worker-partition post closer than lookahead is a bug and must panic
// rather than silently break determinism.
func TestShardedLookaheadViolationPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("lookahead violation did not panic")
		}
	}()
	s := NewSharded(2, 1, 10*time.Millisecond)
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
	mustPanic("one partition", func() { NewSharded(1, 1, time.Millisecond) })
	mustPanic("zero lookahead", func() { NewSharded(2, 1, 0) })
	mustPanic("foreign env post", func() {
		s := NewSharded(2, 1, time.Millisecond)
		s.PostMsg(NewEnv(), 0, 0, fnMsg(func() {}))
	})
}
