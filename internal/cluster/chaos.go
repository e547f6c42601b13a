package cluster

import (
	"fmt"
	"time"

	"repro/internal/coe"
	"repro/internal/core"
	"repro/internal/sim"
)

// chaosState is the durable-delivery bookkeeping of one stream, built
// with the cluster and reset in place each stream. The cluster front
// end is the lease holder: every arrival opens a lease (with a private
// copy of the request's expert chain — the request object is recycled
// once its node is done with it), completions resolve leases exactly
// once, and a crash voids the dead node's leases so their requests can
// be redelivered to surviving nodes. Every stream runs over it, faults
// or not: one lease per request in flight, one hold per request copy a
// node has been handed (see hold).
type chaosState struct {
	// pending holds voided (or never-delivered) leases waiting for a
	// routable node, in void order; flushed on every recovery.
	pending []*lease

	srcClosed bool

	// Exactly-once accounting: at every fault boundary,
	// arrivals == completions + terminalRejected + leased + len(pending)
	//           + offersInFlight.
	// The last term is non-zero only over an interconnect: a lease's
	// offer crossing the interconnect holds its request's accounting
	// token until the fold lands it in one of the other buckets.
	// hedgeOffers tracks in-flight hedge copies separately — duplicates
	// carry no token but still gate stream close.
	arrivals         int64 // requests the source yielded
	completions      int64 // lease-resolved completions (each request once)
	terminalRejected int64 // requests rejected with no lease left open
	leased           int64 // leases whose primary copy a node holds
	offersInFlight   int64 // primary/redelivery offers on the wire
	hedgeOffers      int64 // hedge offers on the wire
	violations       []string

	// The report's counter groups, incremented in place. Every copy a
	// node admits ends in exactly one of Completions, HedgeWasted,
	// DupAcks (its completion folded back) or LostLeases, HedgesVoided,
	// HedgePromoted (a crash dropped it, counted when the drop folds
	// back).
	WireStats
	ChaosStats
	HedgeStats

	failoverSum time.Duration
	failoverMax time.Duration
	failoverN   int64
}

// lease is one request's durable-delivery record: identity, the chain
// copy redelivery rebuilds the request from, the copies that currently
// serve it, and its original arrival for exactly-once latency
// accounting.
type lease struct {
	id     int64
	class  int
	tenant string
	chain  []coe.ExpertID  // private copy; never aliases a live request
	buf    [4]coe.ExpertID // chain's backing array while it fits

	// primary is the copy carrying the request's accounting token — an
	// offer on the wire or held by a node — nil while the lease is
	// parked, voided or resolved. hedge is the speculative second copy,
	// on the wire or held, nil while unhedged. A lease is recycled once
	// done (completed or terminally rejected) and neither points at a
	// hold.
	primary *hold
	hedge   *hold
	done    bool

	hasArrival   bool
	timerSet     bool     // timer is armed
	arrival      sim.Time // first admission — the latency clock's origin
	voidedAt     sim.Time
	redeliveries int

	// Hedging state: the pending deadline timer, the callback it runs
	// (built on first use and kept across recyclings, so a deadline
	// allocates nothing), and how many times the deadline has re-armed
	// after failed hedge attempts.
	timer   sim.Timer
	due     func()
	retries int

	nextFree *lease // free-list link, meaningful only while released
}

// held reports whether a node holds the lease's primary copy.
func (l *lease) held() bool { return l.primary != nil && l.primary.held }

// hold is the front end's record of one request object it has handed to
// a node. It is taken when the offer leaves (postOffer), appended to its
// node's hold list when the accept fold lands, unlinked when its copy
// completes or its node crashes, and returned to the pool when the
// object folds back for the last time: completion, reject, bounce, or
// the recycle fold of a crash drop. The request carries the hold's pool
// index (coe.Request.Hold), so every fold finds it without a lookup.
type hold struct {
	idx  int // position in Cluster.holds
	node int
	// l is the lease this copy serves as its primary or hedge; nil once
	// the copy lost a hedge race (it then completes as waste) or a crash
	// killed it.
	l    *lease
	held bool // on its node's hold list
	// fate is the counter a copy a crash killed lands in once its drop
	// folds back: LostLeases for a voided primary, HedgePromoted for a
	// primary whose hedge took over, HedgesVoided for a hedge copy or
	// hedge-race loser. Nil while the copy lives.
	fate *int64

	prev, next *hold // node hold list links; next doubles as the free-list link
}

// newHold draws a hold for a copy offered to node from the pool, which
// grows by a block of 32 when it runs dry.
func (c *Cluster) newHold(node int) *hold {
	if c.freeHolds == nil {
		block := make([]hold, 32)
		for i := range block {
			block[i].idx = len(c.holds)
			c.holds = append(c.holds, &block[i])
			c.freeHold(&block[i])
		}
	}
	h := c.freeHolds
	c.freeHolds = h.next
	h.node, h.next = node, nil
	return h
}

// freeHold returns an unlinked hold to the pool.
func (c *Cluster) freeHold(h *hold) {
	*h = hold{idx: h.idx, next: c.freeHolds}
	c.freeHolds = h
}

// link appends a hold to its node's hold list: accept order.
func (c *Cluster) link(h *hold) {
	n := c.nodes[h.node]
	h.held = true
	h.prev = n.lastHeld
	if h.prev == nil {
		n.firstHeld = h
	} else {
		h.prev.next = h
	}
	n.lastHeld = h
}

// unlink takes a hold off its node's hold list, if it is on it.
func (c *Cluster) unlink(h *hold) {
	if !h.held {
		return
	}
	n := c.nodes[h.node]
	if h.prev == nil {
		n.firstHeld = h.next
	} else {
		h.prev.next = h.next
	}
	if h.next == nil {
		n.lastHeld = h.prev
	} else {
		h.next.prev = h.prev
	}
	h.held, h.prev, h.next = false, nil, nil
}

// newLease draws a lease from the pool (chain capacity retained), which
// grows by a block of 32 when it runs dry, each chain starting in its
// lease's own buffer.
func (c *Cluster) newLease() *lease {
	if c.freeLeases == nil {
		block := make([]lease, 32)
		for i := range block {
			block[i].chain = block[i].buf[:0]
			block[i].nextFree = c.freeLeases
			c.freeLeases = &block[i]
		}
		c.leases += len(block)
	}
	l := c.freeLeases
	c.freeLeases = l.nextFree
	l.nextFree = nil
	return l
}

// settle recycles a lease once it is done and no hold points at it. A
// hedge offer still on the wire keeps a resolved lease alive until it
// lands. The lease is reset field by field: only its chain capacity and
// hedge callback carry over (primary and hedge are nil already).
func (c *Cluster) settle(l *lease) {
	if !l.done || l.primary != nil || l.hedge != nil {
		return
	}
	l.id, l.class, l.tenant = 0, 0, ""
	l.chain, l.buf = l.chain[:0], [len(l.buf)]coe.ExpertID{}
	l.done, l.hasArrival, l.timerSet = false, false, false
	l.arrival, l.voidedAt, l.redeliveries = 0, 0, 0
	l.timer, l.retries = sim.Timer{}, 0
	l.nextFree = c.freeLeases
	c.freeLeases = l
}

// openLease draws a lease carrying the request's identity (ID, class,
// tenant) and a private copy of its chain, served by no copy yet.
func (c *Cluster) openLease(r *coe.Request) *lease {
	l := c.newLease()
	l.id = r.ID
	l.class = r.Class
	l.tenant = r.Tenant
	l.chain = append(l.chain, r.Chain...)
	return l
}

// parkLease queues a lease with no holder for the next recovery.
func (cs *chaosState) parkLease(l *lease) {
	cs.pending = append(cs.pending, l)
	cs.PendingPeak = max(cs.PendingPeak, len(cs.pending))
}

// leaseRequest leases a fresh request object for a lease's redelivered
// or hedged copy from the cluster's arena, restoring the request's
// identity. The chain is copied out of the lease: the object the lease
// originally rode in may have been recycled and re-leased by anyone
// since, so sharing backing arrays in either direction would alias
// live state.
func (c *Cluster) leaseRequest(l *lease) *coe.Request {
	r := c.arena.Lease()
	r.ID, r.Class, r.Tenant = l.id, l.class, l.tenant
	r.Chain = append(r.Chain, l.chain...)
	return r
}

// accounted reports the requests in the exactly-once buckets: every
// arrival is in exactly one of them.
func (cs *chaosState) accounted() int64 {
	return cs.completions + cs.terminalRejected + cs.leased + int64(len(cs.pending)) + cs.offersInFlight
}

// verify asserts the exactly-once invariant at a fault boundary,
// recording (not panicking on) violations so Serve can fail the stream
// with the full list. A caller whose label must be formatted checks
// accounted first, so the label is built only for a violation.
func (cs *chaosState) verify(now sim.Time, where string) {
	if got := cs.accounted(); got != cs.arrivals {
		cs.violations = append(cs.violations, fmt.Sprintf(
			"at %v (%s): completions %d + rejections %d + leased %d + pending %d + in-flight %d = %d, want arrivals %d",
			now.Duration(), where, cs.completions, cs.terminalRejected,
			cs.leased, len(cs.pending), cs.offersInFlight, got, cs.arrivals))
	}
}

// applyFault fires one fault-plan event: the state transition on the
// node, lease voiding and redelivery for crashes, drain timing for
// drains, and pending-queue flushing for recoveries. The exactly-once
// invariant is checked after every event — the fault boundaries.
func (c *Cluster) applyFault(now sim.Time, ev sim.FaultEvent) {
	cs := c.chaos
	n := c.nodes[ev.Node]
	switch ev.Kind {
	case sim.FaultCrash:
		st := n.sys.State()
		if st == core.NodeDown {
			break
		}
		cs.Crashes++
		n.lastCrash = now
		setBit(c.fleet.up, ev.Node, false)
		if st == core.NodeDraining { // the drain is moot now
			c.endDrain(ev.Node, false)
		}
		// Walk the node's hold list in accept order, voiding primaries
		// onto the pending queue, then crash the node (purging its queues
		// and voiding its in-flight batches), then redeliver. The order
		// matters for arena safety: by the time a redelivered request
		// leases a possibly-recycled object, the leases' chain copies are
		// the only truth left from the original admission. Queueing
		// before redelivering also keeps every voided lease visible to
		// the close check while the redeliveries land. Each killed copy
		// keeps its hold, marked with its fate, until its drop folds back.
		for h := n.firstHeld; h != nil; h = n.firstHeld {
			c.unlink(h)
			l := h.l
			h.l = nil
			switch {
			case l == nil:
				// The losing copy of a hedge race dies here instead of
				// surfacing as waste.
				h.fate = &cs.HedgesVoided
			case l.hedge == h:
				// The hedge copy dies with this node; the primary keeps the
				// lease and may hedge again after a fresh deadline.
				h.fate = &cs.HedgesVoided
				l.hedge = nil
				c.armHedge(l, c.cfg.Hedge.After)
			case l.hedge != nil && l.hedge.held:
				// The primary died but its hedge copy holds the work:
				// promote the hedge to primary — no void, no redelivery.
				h.fate = &cs.HedgePromoted
				l.primary, l.hedge = l.hedge, nil
				c.armHedge(l, c.cfg.Hedge.After)
			default:
				h.fate = &cs.LostLeases
				c.cancelHedge(l)
				l.primary = nil
				l.voidedAt = now
				cs.leased--
				cs.pending = append(cs.pending, l)
			}
		}
		if c.health != nil {
			c.health.resetNode(n)
		}
		n.sys.CrashAt(now)
		c.flushPending(now)
		cs.PendingPeak = max(cs.PendingPeak, len(cs.pending))
	case sim.FaultDrain:
		if n.sys.State() != core.NodeUp {
			break
		}
		cs.Drains++
		c.startDrain(now, ev.Node, false)
		c.checkDrains(now) // an idle node drains instantly
	case sim.FaultRecover:
		st := n.sys.State()
		if st == core.NodeUp {
			if n.sys.GrayDegraded() {
				// The gray recover: the node never left Up, the fault just
				// stops degrading it. No routing or pending-queue work.
				cs.Recoveries++
				n.sys.ClearGray()
			}
			break
		}
		cs.Recoveries++
		if st == core.NodeDown {
			n.sys.Restart()
			setBit(c.fleet.up, ev.Node, true)
		} else {
			c.endDrain(ev.Node, true)
		}
		n.sys.ClearGray()
		c.flushPending(now)
	case sim.FaultSlow:
		if n.sys.State() == core.NodeDown {
			break
		}
		cs.Slows++
		n.sys.SetSlow(ev.Factor)
	case sim.FaultJitter:
		if n.sys.State() == core.NodeDown {
			break
		}
		cs.Jitters++
		n.sys.SetJitter(ev.Factor, jitterSeed(ev))
	case sim.FaultStall:
		if n.sys.State() == core.NodeDown {
			break
		}
		cs.Stalls++
		n.sys.Stall(now, ev.For)
	}
	if cs.accounted() != cs.arrivals {
		cs.verify(now, fmt.Sprintf("%s node%d", ev.Kind, ev.Node))
	}
	c.maybeClose()
}

// jitterSeed derives a jitter RNG seed from the event itself, so a
// jittery node's per-batch draw sequence is a pure function of the
// fault plan and runs stay byte-identical.
func jitterSeed(ev sim.FaultEvent) int64 {
	return int64(ev.Node+1)*1_000_000_007 + int64(ev.At)
}

// flushPending delivers parked leases in order after a recovery or a
// crash, stopping (and keeping the rest parked) if no node is routable.
// The queue keeps every lease until the flush ends, so a redelivery
// that lands synchronously cannot close the stream under the rest.
func (c *Cluster) flushPending(now sim.Time) {
	cs := c.chaos
	if len(cs.pending) == 0 {
		return
	}
	rest := cs.pending[:0]
	for i, l := range cs.pending {
		if !c.redeliverOne(now, l) {
			rest = append(rest, cs.pending[i:]...)
			break
		}
	}
	for i := len(rest); i < len(cs.pending); i++ {
		cs.pending[i] = nil
	}
	cs.pending = rest
}
