package sim

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"time"
)

// This file pins the pooled-message path's contract: a randomized
// schedule of message chains hopping between places, with timer churn
// (immediate cancels included) and two-step callback chains beside
// them, must deliver every posted message exactly once at its instant,
// fire every event in (time, scheduling order) order — messages
// interleaved with After and AfterFunc callbacks, zero-delay starts and
// their re-armed steps exactly as they were scheduled — and reproduce its log and final clock when run
// again. All randomness is drawn up front into a plain schedule value;
// the simulation itself reads only that schedule, so any violation is
// the kernel's fault, not the test's.

// fuzzHop is one pre-drawn step of a message chain.
type fuzzHop struct {
	place  int           // the place the hop is delivered to (a log label)
	delay  time.Duration // extra delay past the schedule's base hop
	local  time.Duration // >0: arm a local timer (or two-step chain) on delivery
	cancel bool          // cancel that local timer immediately
	sleep  bool          // run the local wait as a chain instead: a start at the current instant that re-arms itself
}

// fuzzSchedule is everything a run needs, fixed before Run starts.
type fuzzSchedule struct {
	places int
	hop    time.Duration   // base hop latency; zero makes same-instant posts common
	starts []time.Duration // chain launch times
	chains [][]fuzzHop
}

// genFuzzSchedule pre-draws a schedule from a seed. The draw order is
// fixed, so one seed means one schedule.
func genFuzzSchedule(seed int64) fuzzSchedule {
	rng := rand.New(rand.NewSource(seed))
	sc := fuzzSchedule{
		places: 2 + rng.Intn(7),
		hop:    time.Duration(rng.Intn(10)) * time.Millisecond,
	}
	nchains := 4 + rng.Intn(12)
	for c := 0; c < nchains; c++ {
		sc.starts = append(sc.starts, time.Duration(rng.Intn(40))*time.Millisecond)
		hops := make([]fuzzHop, 1+rng.Intn(12))
		for i := range hops {
			h := &hops[i]
			h.place = rng.Intn(sc.places)
			// Whole milliseconds half the time, so posts from different
			// chains often meet at one instant.
			if rng.Intn(2) == 0 {
				h.delay = time.Duration(rng.Intn(3)) * time.Millisecond
			} else {
				h.delay = time.Duration(rng.Intn(2000)) * time.Microsecond
			}
			if rng.Intn(3) == 0 {
				h.local = time.Duration(1+rng.Intn(3000)) * time.Microsecond
				h.cancel = rng.Intn(2) == 0
				h.sleep = !h.cancel && rng.Intn(2) == 0
			}
		}
		sc.chains = append(sc.chains, hops)
	}
	return sc
}

// fuzzNet runs one schedule on one environment, logging every delivery,
// timer firing and wake-up per place and recording the first contract
// violation. Every event the net schedules takes the next ticket, so
// tickets follow the kernel's sequence numbers: the events must fire in
// (time, ticket) order. Messages recycle through one free list like a
// real protocol's, so the run exercises allocation-free steady-state
// delivery.
type fuzzNet struct {
	env       *Env
	sc        fuzzSchedule
	logs      [][]string
	tickets   int
	lastAt    Time // the latest event fired
	lastTk    int  // and its ticket
	delivered [][]int
	posted    int
	violation string
	free      *fuzzMsg
}

type fuzzMsg struct {
	n      *fuzzNet
	chain  int
	hop    int
	due    Time // the instant it was posted for
	ticket int
	next   *fuzzMsg
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

// ticket numbers the event about to be scheduled.
func (n *fuzzNet) ticket() int {
	n.tickets++
	return n.tickets
}

// post sends hop h of chain c, due at.
func (n *fuzzNet) post(c, h int, at Time) {
	m := n.newMsg()
	m.chain, m.hop, m.due, m.ticket = c, h, at, n.ticket()
	n.posted++
	n.env.PostMsg(at, m)
}

// fired checks one event against the contract — it fires at its
// scheduled instant with the clock there, after every event scheduled
// before it for no later instant — and logs it under its place.
func (n *fuzzNet) fired(place int, due Time, ticket int, what string) {
	now := n.env.Now()
	switch {
	case n.violation != "":
	case now != due:
		n.violation = fmt.Sprintf("%s fired at %v, scheduled for %v", what, now, due)
	case now < n.lastAt || now == n.lastAt && ticket < n.lastTk:
		n.violation = fmt.Sprintf("%s (ticket %d @%v) fired after ticket %d @%v", what, ticket, now, n.lastTk, n.lastAt)
	}
	n.lastAt, n.lastTk = now, ticket
	n.logs[place] = append(n.logs[place], fmt.Sprintf("%s @%v", what, now.Duration()))
}

func (m *fuzzMsg) Deliver(at Time) {
	n := m.n
	chain, hop, due, ticket := m.chain, m.hop, m.due, m.ticket
	m.next = n.free
	n.free = m
	if at != due && n.violation == "" {
		n.violation = fmt.Sprintf("c%d h%d delivered with at %v, posted for %v", chain, hop, at, due)
	}
	h := n.sc.chains[chain][hop]
	what := fmt.Sprintf("c%d h%d", chain, hop)
	n.fired(h.place, due, ticket, what)
	n.delivered[chain][hop]++
	env := n.env
	switch {
	case h.sleep:
		start := n.ticket()
		env.After(0, func() {
			n.fired(h.place, at, start, what+" start")
			wake := n.ticket()
			env.After(h.local, func() { n.fired(h.place, at.Add(h.local), wake, what+" wake") })
		})
	case h.local > 0:
		tk := n.ticket()
		tm := env.AfterFunc(h.local, func() { n.fired(h.place, at.Add(h.local), tk, what+" timer") })
		if h.cancel {
			env.Cancel(tm)
		}
	}
	if hop+1 < len(n.sc.chains[chain]) {
		n.post(chain, hop+1, at.Add(n.sc.hop+n.sc.chains[chain][hop+1].delay))
	}
}

// runFuzzNet executes the schedule and returns the finished net, its
// flattened per-place logs and the final clock.
func runFuzzNet(sc fuzzSchedule) (*fuzzNet, []string, Time) {
	n := &fuzzNet{
		env:       NewEnv(),
		sc:        sc,
		logs:      make([][]string, sc.places),
		delivered: make([][]int, len(sc.chains)),
	}
	for c := range sc.chains {
		n.delivered[c] = make([]int, len(sc.chains[c]))
		n.post(c, 0, Time(sc.starts[c]))
	}
	end := n.env.Run()
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
	total := 0
	for c, hops := range n.delivered {
		for h, k := range hops {
			if k != 1 {
				t.Fatalf("seed %d: chain %d hop %d delivered %d times, want once", seed, c, h, k)
			}
			total += k
		}
	}
	if total != n.posted {
		t.Fatalf("seed %d: %d deliveries for %d posts", seed, total, n.posted)
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

// TestPooledMessageDeterminism is the property test: a spread of
// fixed seeds, each a full randomized schedule.
func TestPooledMessageDeterminism(t *testing.T) {
	for seed := int64(1); seed <= 25; seed++ {
		checkFuzzSeed(t, seed)
	}
}

// FuzzPooledMessageDeterminism lets the fuzzer hunt for a
// schedule that breaks the contract; the seed corpus runs under plain
// go test.
func FuzzPooledMessageDeterminism(f *testing.F) {
	f.Add(int64(42))
	f.Add(int64(20260807))
	f.Add(int64(-1))
	f.Fuzz(func(t *testing.T, seed int64) {
		checkFuzzSeed(t, seed)
	})
}
