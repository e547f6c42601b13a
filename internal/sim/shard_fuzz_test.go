package sim

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"time"
)

// This file pins the pooled-message path's contract: a randomized
// schedule of cross-partition message chains — hops between worker
// partitions, hops through the coordinator, self-posts, local timer
// churn with immediate head cancels — must deliver every posted message
// exactly once, fire every event at its scheduled instant in
// nondecreasing time per partition, and reproduce its log and final
// clock when run again. All randomness is drawn up front into a plain
// schedule value; the simulation itself reads only that schedule, so
// any violation is the kernel's fault, not the test's.

// fuzzHop is one pre-drawn step of a message chain.
type fuzzHop struct {
	target int           // partition the hop is delivered to
	delay  time.Duration // extra delay past the mandatory lookahead
	local  time.Duration // >0: arm a local AfterFunc on delivery
	cancel bool          // cancel that local timer immediately
}

// fuzzSchedule is everything a run needs, fixed before Run starts.
type fuzzSchedule struct {
	nparts int
	la     time.Duration
	starts []time.Duration // chain launch times (coordinator clock)
	chains [][]fuzzHop
}

// genFuzzSchedule pre-draws a schedule from a seed. The draw order is
// fixed, so one seed means one schedule.
func genFuzzSchedule(seed int64) fuzzSchedule {
	rng := rand.New(rand.NewSource(seed))
	sc := fuzzSchedule{
		nparts: 3 + rng.Intn(6), // 1 coordinator + 2..7 workers
		la:     time.Duration(1+rng.Intn(10)) * time.Millisecond,
	}
	nchains := 4 + rng.Intn(12)
	for c := 0; c < nchains; c++ {
		sc.starts = append(sc.starts, time.Duration(rng.Intn(40))*time.Millisecond)
		hops := make([]fuzzHop, 1+rng.Intn(12))
		for i := range hops {
			h := &hops[i]
			// Mostly worker partitions, sometimes the coordinator — hops
			// through partition 0 exercise direct insertion and the
			// frontier hooks outside rounds.
			if rng.Intn(5) == 0 {
				h.target = 0
			} else {
				h.target = 1 + rng.Intn(sc.nparts-1)
			}
			h.delay = time.Duration(rng.Intn(2000)) * time.Microsecond
			if rng.Intn(3) == 0 {
				h.local = time.Duration(1+rng.Intn(3000)) * time.Microsecond
				h.cancel = rng.Intn(2) == 0
			}
		}
		sc.chains = append(sc.chains, hops)
	}
	return sc
}

// fuzzNet runs one schedule on one kernel, logging every delivery and
// timer firing per partition and recording the first contract
// violation. Messages recycle through one free list like a real
// protocol's, so the run exercises allocation-free steady-state
// delivery.
type fuzzNet struct {
	s         *Sharded
	sc        fuzzSchedule
	logs      [][]string
	last      []Time  // per partition: the latest instant anything fired
	delivered [][]int // per chain and hop: deliveries
	posted    int64
	violation string
	free      *fuzzMsg
}

type fuzzMsg struct {
	n     *fuzzNet
	chain int
	hop   int
	part  int  // delivery partition
	due   Time // the instant it was posted for
	next  *fuzzMsg
}

func (n *fuzzNet) newMsg() *fuzzMsg {
	m := n.free
	if m == nil {
		return &fuzzMsg{n: n}
	}
	n.free = m.next
	m.next = nil
	return m
}

// post sends hop h of chain c to its target, due at.
func (n *fuzzNet) post(from *Env, c, h int, at Time) {
	m := n.newMsg()
	m.chain, m.hop, m.part, m.due = c, h, n.sc.chains[c][h].target, at
	n.posted++
	n.s.PostMsg(from, m.part, at, m)
}

// fired checks one event of partition part against the contract: it
// fires at its scheduled instant, with the partition's clock there, and
// no earlier than the partition's previous event.
func (n *fuzzNet) fired(part int, at, due Time, what string) {
	now := n.s.Part(part).Now()
	switch {
	case n.violation != "":
	case at != due || now != due:
		n.violation = fmt.Sprintf("p%d %s fired at %v (clock %v), scheduled for %v", part, what, at, now, due)
	case at < n.last[part]:
		n.violation = fmt.Sprintf("p%d %s fired at %v after an event at %v", part, what, at, n.last[part])
	}
	n.last[part] = at
}

func (m *fuzzMsg) Deliver(at Time) {
	n := m.n
	chain, hop, part, due := m.chain, m.hop, m.part, m.due
	m.next = n.free
	n.free = m
	env := n.s.Part(part)
	what := fmt.Sprintf("c%d h%d", chain, hop)
	n.fired(part, at, due, what)
	n.delivered[chain][hop]++
	n.logs[part] = append(n.logs[part], fmt.Sprintf("%s @%v", what, at.Duration()))
	h := n.sc.chains[chain][hop]
	if h.local > 0 {
		tdue := at.Add(h.local)
		tm := env.AfterFunc(h.local, func() {
			n.fired(part, env.Now(), tdue, what+" timer")
			n.logs[part] = append(n.logs[part], fmt.Sprintf("%s timer @%v", what, env.Now().Duration()))
		})
		if h.cancel {
			// Immediate cancel: arms and revokes in one instant — from the
			// coordinator this exercises the head-cancel frontier hook.
			env.Cancel(tm)
		}
	}
	if hop+1 < len(n.sc.chains[chain]) {
		n.post(env, chain, hop+1, at.Add(n.sc.la+n.sc.chains[chain][hop+1].delay))
	}
}

// runFuzzNet executes the schedule and returns the finished net, its
// flattened per-partition logs and the final clock.
func runFuzzNet(sc fuzzSchedule) (*fuzzNet, []string, Time) {
	n := &fuzzNet{
		s:         NewSharded(sc.nparts, sc.la),
		sc:        sc,
		logs:      make([][]string, sc.nparts),
		last:      make([]Time, sc.nparts),
		delivered: make([][]int, len(sc.chains)),
	}
	coord := n.s.Part(0)
	for c := range sc.chains {
		n.delivered[c] = make([]int, len(sc.chains[c]))
		n.post(coord, c, 0, Time(sc.starts[c]))
	}
	end := n.s.Run()
	var flat []string
	for p := range n.logs {
		for _, line := range n.logs[p] {
			flat = append(flat, fmt.Sprintf("p%d %s", p, line))
		}
	}
	return n, flat, end
}

// checkFuzzSeed runs one schedule twice and asserts the contract on the
// first run and identical logs and final clocks across the two.
func checkFuzzSeed(t *testing.T, seed int64) {
	t.Helper()
	sc := genFuzzSchedule(seed)
	n, ref, refEnd := runFuzzNet(sc)
	if len(ref) == 0 {
		t.Fatalf("seed %d: schedule produced no deliveries", seed)
	}
	if n.violation != "" {
		t.Fatalf("seed %d: %s", seed, n.violation)
	}
	for c, hops := range n.delivered {
		for h, k := range hops {
			if k != 1 {
				t.Fatalf("seed %d: chain %d hop %d delivered %d times, want once", seed, c, h, k)
			}
		}
	}
	if posts := n.s.Stats().Posts; posts != n.posted {
		t.Fatalf("seed %d: kernel counted %d posts, the net made %d", seed, posts, n.posted)
	}
	_, got, gotEnd := runFuzzNet(sc)
	if gotEnd != refEnd {
		t.Fatalf("seed %d: rerun ended at %v, first run at %v", seed, gotEnd.Duration(), refEnd.Duration())
	}
	if !slices.Equal(got, ref) {
		for i := range min(len(got), len(ref)) {
			if got[i] != ref[i] {
				t.Fatalf("seed %d: rerun log line %d:\n got %q\nwant %q", seed, i, got[i], ref[i])
			}
		}
		t.Fatalf("seed %d: rerun logged %d lines, first run %d", seed, len(got), len(ref))
	}
}

// TestShardedPooledMessageDeterminism is the property test: a spread of
// fixed seeds, each a full randomized schedule.
func TestShardedPooledMessageDeterminism(t *testing.T) {
	for seed := int64(1); seed <= 25; seed++ {
		checkFuzzSeed(t, seed)
	}
}

// FuzzShardedPooledMessageDeterminism lets the fuzzer hunt for a
// schedule that breaks the contract; the seed corpus runs under plain
// go test.
func FuzzShardedPooledMessageDeterminism(f *testing.F) {
	f.Add(int64(42))
	f.Add(int64(20260807))
	f.Add(int64(-1))
	f.Fuzz(func(t *testing.T, seed int64) {
		checkFuzzSeed(t, seed)
	})
}
