package sim

import (
	"fmt"
	"slices"
	"testing"
	"time"
)

// fnMsg adapts a closure to Message, so the kernel tests can post plain
// functions.
type fnMsg func()

func (f fnMsg) Deliver(Time) { f() }

// traceFold is one completion of the fixed workload, folded back to the
// dispatcher: post is its position among all folds posted in the stream.
type traceFold struct {
	at   Time
	job  int
	node int
	post int
}

// The fixed workload: traceJobs jobs spread over traceNodes nodes, each
// hop between dispatcher and node taking traceHop.
const (
	traceNodes = 4
	traceJobs  = 48
	traceHop   = 10 * time.Millisecond
)

// traceSend and traceService are job j's dispatch offset and service
// time.
func traceSend(j int) time.Duration    { return time.Duration(j%17) * 3 * time.Millisecond }
func traceService(j int) time.Duration { return time.Duration(1+j%7) * time.Millisecond }

// msgTrace runs the fixed message workload — dispatch, one hop to a
// node, service, one hop back — for the given number of streams run one
// after another on one environment. It returns each stream's folds in
// arrival order and each stream's final clock.
func msgTrace(streams int) ([][]traceFold, []Time) {
	env := NewEnv()
	folds := make([][]traceFold, streams)
	ends := make([]Time, streams)
	for k := range folds {
		posted := 0
		for j := 0; j < traceJobs; j++ {
			node := j % traceNodes
			env.After(traceSend(j), func() {
				env.PostMsg(env.Now().Add(traceHop), fnMsg(func() {
					env.After(traceService(j), func() {
						post := posted
						posted++
						env.PostMsg(env.Now().Add(traceHop), fnMsg(func() {
							folds[k] = append(folds[k], traceFold{at: env.Now(), job: j, node: node, post: post})
						}))
					})
				}))
			})
		}
		ends[k] = env.Run()
	}
	return folds, ends
}

// TestMsgEventOrder pins the message path's event order on the
// fixed workload: every job folds back exactly two hops plus its
// service time after its dispatch, each message is delivered once,
// folds for one instant land in the order they were posted, and a
// second run reproduces the first fold for fold.
func TestMsgEventOrder(t *testing.T) {
	folds, ends := msgTrace(1)
	got := folds[0]
	if len(got) != traceJobs {
		t.Fatalf("%d folds, want %d", len(got), traceJobs)
	}
	seen := make([]bool, traceJobs)
	for i, f := range got {
		if seen[f.job] {
			t.Errorf("job %d folded twice", f.job)
		}
		seen[f.job] = true
		if want := Time(traceSend(f.job) + 2*traceHop + traceService(f.job)); f.at != want {
			t.Errorf("job %d folded at %v, want %v", f.job, f.at, want)
		}
		if i == 0 {
			continue
		}
		if p := got[i-1]; f.at < p.at || f.at == p.at && f.post < p.post {
			t.Errorf("fold %d (post %d @%v) landed after fold %d (post %d @%v)", i, f.post, f.at, i-1, p.post, p.at)
		}
	}
	again, againEnds := msgTrace(1)
	if !slices.Equal(got, again[0]) || againEnds[0] != ends[0] {
		t.Errorf("second run diverged: end %v vs %v", againEnds[0], ends[0])
	}
}

// TestMsgSecondRun pins the warm-restart path with messages in flight:
// after Run drains, a second stream on the same environment continues
// the clock and repeats the first shifted by the first stream's end.
func TestMsgSecondRun(t *testing.T) {
	folds, ends := msgTrace(2)
	if len(folds[1]) != len(folds[0]) {
		t.Fatalf("second stream folded %d jobs, first %d", len(folds[1]), len(folds[0]))
	}
	for i, f := range folds[1] {
		w := folds[0][i]
		if f.job != w.job || f.node != w.node || f.post != w.post || f.at != w.at+ends[0] {
			t.Fatalf("second stream fold %d = %+v, want %+v shifted by %v", i, f, w, ends[0])
		}
	}
	if ends[1] != 2*ends[0] {
		t.Errorf("second stream ended at %v, want %v", ends[1], 2*ends[0])
	}
}

// TestMsgTimersAndMessages exercises AfterFunc and Cancel beside posted
// messages: a timer fires and posts a message whose delivery posts the
// next, a cancelled timer never fires, and events due at one instant —
// messages, After and AfterFunc callbacks, a callback re-armed from a
// zero-delay start — fire in the order they were scheduled.
func TestMsgTimersAndMessages(t *testing.T) {
	hop := 10 * time.Millisecond
	env := NewEnv()
	var fired []string
	log := func(what string) fnMsg {
		return func() { fired = append(fired, fmt.Sprintf("%s@%v", what, env.Now())) }
	}
	// Timer -> message -> message.
	env.AfterFunc(5*time.Millisecond, func() {
		env.PostMsg(env.Now().Add(hop), fnMsg(func() {
			log("w")()
			env.PostMsg(env.Now().Add(hop), log("c"))
		}))
	})
	env.AfterFunc(7*time.Millisecond, func() { env.PostMsg(env.Now().Add(hop), log("wt")) })
	// A timer cancelled before its deadline must never fire.
	cancelled := env.AfterFunc(20*time.Millisecond, log("cancelled"))
	env.After(6*time.Millisecond, func() {
		if !env.Cancel(cancelled) {
			t.Error("Cancel reported the pending timer as already gone")
		}
	})
	// Six events due at 40ms. The zero-delay start runs only once Run
	// starts, so m3 and s are scheduled after m2 and t.
	tie := 40 * time.Millisecond
	env.PostMsg(Time(tie), log("m1"))
	env.After(tie, log("a"))
	env.After(0, func() {
		env.PostMsg(Time(tie), log("m3"))
		env.After(tie, log("s"))
	})
	env.PostMsg(Time(tie), log("m2"))
	env.AfterFunc(tie, log("t"))
	env.Run()
	want := []string{"w@15ms", "wt@17ms", "c@25ms", "m1@40ms", "a@40ms", "m2@40ms", "t@40ms", "m3@40ms", "s@40ms"}
	if !slices.Equal(fired, want) {
		t.Fatalf("fired = %v, want %v", fired, want)
	}
}
