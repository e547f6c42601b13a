package cluster

import (
	"repro/internal/coe"
	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/workload"
)

// This file is the front end's request protocol, the one path every
// offer, redelivery, hedge and completion takes on both kernels:
//
//	front end ── offer ──▶ node        (postOffer → nodeOffer)
//	node      ── fold  ──▶ front end   (postFold → accept/reject/bounce/
//	                                    completion/recycle fold)
//
// The offer carries the request to the node, where it is either bounced
// (node not Up), rejected by node admission, or admitted; the outcome
// folds back and only then touches the lease ledger, the fleet
// recorder, health scoring, and the hedge timers. Every front-end
// structure — ledger, arena, recorder, router scratch — is therefore
// touched only in front-end context, and a node touches only its own
// state plus the request object the offer handed it.
//
// Only the transport depends on the kernel, and only postOffer and
// postFold know which one runs. On the classic kernel the fleet shares
// one environment and a hop is a direct call to deliverMsg at the
// sending instant — not a zero-delay event, which would reorder
// same-instant events. On the sharded kernel (Config.Interconnect) the
// front end runs in the coordinator partition and every node in its own
// worker partition, and a hop is a timed cross-partition event one
// interconnect latency later, which is what lets node partitions
// simulate in parallel under the kernel's conservative lookahead.
//
// Control verbs flow the other way without messages at all: a
// coordinator event runs only when every node partition has advanced
// past its timestamp with nothing pending before it, so fault
// injection, drains, restarts, and stream close may call into node
// state directly — the call is race-free and lands at the node's
// current logical instant.
//
// Every hop is a pooled shardMsg — one typed union covering the whole
// protocol — drawn from per-partition free lists and released into the
// delivering partition's list, so the steady-state
// offer→accept→completion cycle allocates nothing: the offer's message
// is freed into the node's list and immediately reused for the fold,
// the fold's into the front end's and reused for the next offer.
type offerKind int

const (
	// offerPrimary is a fresh arrival's first delivery.
	offerPrimary offerKind = iota
	// offerRedeliver re-delivers a crash-voided (or parked) lease.
	offerRedeliver
	// offerHedge delivers the speculative second copy of a leased
	// request whose deadline expired.
	offerHedge
)

// shardOp selects a shardMsg's handler — the protocol's full verb set.
type shardOp uint8

const (
	opOffer      shardOp = iota // coordinator → node: deliver a request to admission
	opAccept                    // node → coordinator: admission succeeded, receipt enclosed
	opReject                    // node → coordinator: admission refused
	opBounce                    // node → coordinator: node not Up, request unopened
	opCompletion                // node → coordinator: request finished, ack the lease
	opRecycle                   // node → coordinator: return a dropped request to the arena
)

// shardMsg is the pooled protocol message: one union for every hop, so
// a free list of them serves the entire request path. Fields beyond op are populated per-verb; receipt
// only rides on opAccept.
type shardMsg struct {
	c       *Cluster
	op      shardOp
	kind    offerKind
	idx     int // node index: offer target, or fold origin
	r       *coe.Request
	tenant  string
	l       *lease
	receipt core.Lease
	next    *shardMsg // free-list link
}

// Deliver implements sim.Message: the sharded kernel invokes it in the
// target partition at the scheduled instant.
func (m *shardMsg) Deliver(at sim.Time) { m.c.deliverMsg(m, at) }

// newMsg draws a message from partition part's free list. part must be
// the partition whose context is executing — the lists are
// unsynchronized by design.
func (c *Cluster) newMsg(part int) *shardMsg {
	m := c.msgFree[part]
	if m == nil {
		return &shardMsg{c: c}
	}
	c.msgFree[part] = m.next
	m.next = nil
	return m
}

// freeMsg returns a delivered message to partition part's free list,
// clearing payload pointers so the list pins nothing.
func (c *Cluster) freeMsg(part int, m *shardMsg) {
	m.r, m.l = nil, nil
	m.tenant = ""
	m.receipt = core.Lease{}
	m.next = c.msgFree[part]
	c.msgFree[part] = m
}

// deliverMsg unpacks and dispatches one protocol hop, freeing the
// message before the handler runs so a handler that immediately posts
// the next hop (nodeOffer folding the outcome back, a fold routing the
// next offer) reuses the very message that carried this one.
//
// Which list a message frees into is what keeps every list in balance
// over the steady offer → accept fold → completion fold cycle: the
// node's list supplies two folds per request but receives only the
// offer's carcass, and the coordinator's supplies one offer but
// receives two carcasses. So the offer frees into its node's list (the
// only safe choice mid-round anyway), the admission folds
// (accept/reject/bounce) free into the coordinator's — restocking the
// next offer — and the completion fold returns to its origin node's
// list, closing the loop at zero net drift. Folds run as coordinator
// events, which never overlap a worker round, so touching a node's
// list there is race-free under the kernel's control-verb contract.
func (c *Cluster) deliverMsg(m *shardMsg, at sim.Time) {
	op, kind, idx, r, tenant, l, receipt := m.op, m.kind, m.idx, m.r, m.tenant, m.l, m.receipt
	if op == opOffer {
		c.freeMsg(1+idx, m)
		c.nodeOffer(at, idx, kind, r, tenant, l)
		return
	}
	if op == opCompletion {
		c.freeMsg(1+idx, m)
	} else {
		c.freeMsg(0, m)
	}
	if op == opAccept || op == opReject || op == opBounce {
		// The offer has landed: it no longer holds an accounting token
		// (or, for a hedge, blocks the lease's next deadline).
		if kind == offerHedge {
			c.chaos.hedgeOffers--
			l.hedgeInFlight = false
		} else {
			c.chaos.offersInFlight--
		}
	}
	switch op {
	case opAccept:
		c.acceptFold(at, idx, kind, r, tenant, l, receipt)
	case opReject:
		c.rejectFold(at, idx, kind, r, l)
	case opBounce:
		c.bounceFold(at, idx, kind, r, tenant, l)
	case opCompletion:
		c.completionFold(at, idx, r)
	case opRecycle:
		coe.Recycle(r)
	}
}

// postOffer dispatches a request toward node idx: delivered at once on
// the classic kernel, one hop from now on the sharded one. The offer is
// tracked while it flies so exactly-once verification and stream close
// account for it: a primary or redelivery offer carries the request's
// accounting token (it is in neither the ledger nor the pending queue
// meanwhile), a hedge offer carries only duplicate work. l is the lease
// a redelivery or hedge offer belongs to, nil for primaries.
//
// Offers always originate in front-end context — routing, bounce
// re-routes, redelivery, and hedge timers — so the message comes from
// the front end's free list unconditionally.
func (c *Cluster) postOffer(now sim.Time, idx int, kind offerKind, r *coe.Request, tenant string, l *lease) {
	cs := c.chaos
	c.routed[idx]++
	if kind == offerHedge {
		cs.hedgeOffers++
	} else {
		cs.offersInFlight++
	}
	m := c.newMsg(0)
	m.op, m.kind, m.idx = opOffer, kind, idx
	m.r, m.tenant, m.l = r, tenant, l
	if c.kernel == nil {
		c.deliverMsg(m, now)
		return
	}
	c.kernel.PostMsg(c.env, 1+idx, now.Add(c.latency[idx]), m)
}

// postFold posts a fold verb from node idx to the front end: delivered
// at once on the classic kernel, one hop after now on the sharded one.
// The sharded post is safe from both phases: during a node round it
// buffers in the partition outbox (the hop is >= the kernel lookahead by
// construction) and the message comes from the node's free list; from
// coordinator context — crash purges calling the drop delegate — it
// inserts directly and draws from the coordinator's list.
// PosterPartition distinguishes the two.
func (c *Cluster) postFold(idx int, now sim.Time, op shardOp, kind offerKind, r *coe.Request, tenant string, l *lease, receipt core.Lease) {
	part := 1 + idx
	if c.kernel != nil {
		part = c.kernel.PosterPartition(c.kernel.Part(1 + idx))
	}
	m := c.newMsg(part)
	m.op, m.kind, m.idx = op, kind, idx
	m.r, m.tenant, m.l, m.receipt = r, tenant, l, receipt
	if c.kernel == nil {
		c.deliverMsg(m, now)
		return
	}
	c.kernel.PostMsg(c.kernel.Part(1+idx), 0, now.Add(c.latency[idx]), m)
}

// nodeOffer runs in node idx's context at the offer's arrival instant
// (now). It reads and advances only node-local state, and reports the
// outcome with a fold. On the sharded kernel the fold lands one hop
// later — at least the kernel's lookahead after the node's now, which is
// what licenses the node partitions to run concurrently.
func (c *Cluster) nodeOffer(now sim.Time, idx int, kind offerKind, r *coe.Request, tenant string, l *lease) {
	sys := c.nodes[idx].sys
	if sys.State() != core.NodeUp {
		// The node went down or started draining while the offer was on
		// the wire: bounce it back unopened for the coordinator to
		// re-route.
		c.postFold(idx, now, opBounce, kind, r, tenant, l, core.Lease{})
		return
	}
	receipt, ok := sys.OfferAt(now, workload.TimedRequest{Req: r, Tenant: tenant})
	if ok {
		c.postFold(idx, now, opAccept, kind, r, tenant, l, receipt)
	} else {
		c.postFold(idx, now, opReject, kind, r, "", l, core.Lease{})
	}
}

// acceptFold lands a successful admission on the front end: the lease
// ledger, fleet recorder, health scoring, and hedge arming all advance
// here. On the sharded kernel a node can crash after issuing the
// receipt, while the fold flies; it already purged the request, so the
// lease it would hold is voided on landing instead.
func (c *Cluster) acceptFold(now sim.Time, idx int, kind offerKind, r *coe.Request, tenant string, l *lease, receipt core.Lease) {
	cs := c.chaos
	crashed := cs.lastCrash[idx] > receipt.Issued
	switch kind {
	case offerPrimary:
		c.recorder.Arrival(now)
		l = cs.open(idx, r, tenant, receipt.Issued)
	case offerRedeliver:
		if l.hasArrival {
			cs.redelivered++
			l.redeliveries++
		} else {
			l.hasArrival = true
			l.arrival = receipt.Issued
			c.recorder.Arrival(now)
		}
		l.node = idx
		cs.ledger[l.id] = l
		cs.track(idx, l.id)
	case offerHedge:
		switch {
		case crashed:
			// The copy died with its node before the fold landed.
			cs.hedgesVoided++
			c.hedgeMissed(l, c.hedge.After)
		case cs.ledger[l.id] == l && l.node >= 0 && l.hedgeNode < 0:
			cs.hedgesFired++
			l.hedgeNode = idx
			cs.track(idx, l.id)
			if h := c.health; h != nil {
				h.onAdmit(idx)
			}
		default:
			// The lease resolved — or was voided into a redelivery — while
			// the hedge flew. The node admitted a duplicate nobody tracks a
			// lease for; record it so its completion counts as hedge waste,
			// exactly like a lost hedge race.
			cs.orphans[r.ID] = idx
			cs.releaseIfResolved(l)
		}
		c.maybeClose()
		return
	}
	if crashed {
		c.voidLanded(now, idx, l)
	} else {
		if h := c.health; h != nil {
			h.onAdmit(idx)
		}
		c.armHedge(l, c.hedge.After)
	}
	c.maybeClose()
}

// voidLanded voids and redelivers a lease whose accept fold landed after
// its node crashed, exactly as the crash would have had it been open.
func (c *Cluster) voidLanded(now sim.Time, idx int, l *lease) {
	cs := c.chaos
	delete(cs.ledger, l.id)
	l.node = -1
	l.voidedAt = cs.lastCrash[idx]
	cs.lostLeases++
	if !c.redeliverOne(now, l) {
		cs.parkLease(l)
	}
}

// rejectFold lands a node-admission refusal on the front end. Rejection
// of a primary or first delivery is terminal and counted once; a hedge
// refusal re-arms the deadline with backoff.
func (c *Cluster) rejectFold(now sim.Time, idx int, kind offerKind, r *coe.Request, l *lease) {
	cs := c.chaos
	switch kind {
	case offerPrimary:
		c.recorder.Rejection(now)
		cs.terminalRejected++
	case offerRedeliver:
		cs.terminalRejected++
		if l.hasArrival {
			cs.redeliveredRejected++
		} else {
			c.recorder.Rejection(now)
		}
		cs.resolveLease(l)
	case offerHedge:
		cs.hedgeRejected++
		c.hedgeMissed(l, 0)
	}
	coe.Recycle(r)
	c.maybeClose()
}

// bounceFold lands an offer that found its node not Up: the request
// never reached admission, so the coordinator re-routes it with
// current knowledge — re-picking for primaries and redeliveries
// (parking when nothing is routable), re-arming the deadline for
// hedges.
func (c *Cluster) bounceFold(now sim.Time, idx int, kind offerKind, r *coe.Request, tenant string, l *lease) {
	cs := c.chaos
	cs.bounced++
	switch kind {
	case offerPrimary:
		if j := c.pickNode(now, r); j >= 0 {
			c.postOffer(now, j, offerPrimary, r, tenant, nil)
			return
		}
		cs.park(r, tenant, now)
	case offerRedeliver:
		if j := c.pickNode(now, r); j >= 0 {
			c.postOffer(now, j, offerRedeliver, r, tenant, l)
			return
		}
		cs.parkLease(l)
	case offerHedge:
		c.hedgeMissed(l, 0)
	}
	coe.Recycle(r)
	c.maybeClose()
}

// completionFold resolves a completion against the lease ledger on the
// front end. First fold wins: it resolves the lease, records the fleet
// completion (latency spans first node admission to this fold, return
// hop included), restores a redelivered request's original arrival, and
// schedules the loser of any hedge race as waste. Folds from holders
// the ledger no longer tracks — on the sharded kernel, a copy that
// completed on a node after its lease was voided and redelivered —
// count as duplicate acks, never as completions.
func (c *Cluster) completionFold(now sim.Time, idx int, r *coe.Request) {
	cs := c.chaos
	l := cs.ledger[r.ID]
	if l == nil || (idx != l.node && idx != l.hedgeNode) {
		if on, ok := cs.orphans[r.ID]; ok && on == idx {
			delete(cs.orphans, r.ID)
			cs.hedgeWasted++
		} else {
			cs.dupAcks++
		}
		coe.Recycle(r)
		return
	}
	c.cancelHedge(l)
	if l.hedgeNode >= 0 {
		if idx == l.hedgeNode {
			cs.hedgeWins++
			cs.orphans[r.ID] = l.node
		} else {
			cs.orphans[r.ID] = l.hedgeNode
		}
	}
	if h := c.health; h != nil {
		h.onComplete(idx, now.Sub(l.arrival).Seconds())
	}
	delete(cs.ledger, r.ID)
	cs.completions++
	c.recorder.Completion(l.arrival, now)
	if l.redeliveries > 0 {
		d := now.Sub(l.voidedAt)
		cs.failoverSum += d
		cs.failoverN++
		if d > cs.failoverMax {
			cs.failoverMax = d
		}
	}
	cs.resolveLease(l)
	coe.Recycle(r)
	if c.draining > 0 {
		c.checkDrains(now)
	}
	c.maybeClose()
}

// redeliverOne re-dispatches a voided (or parked) lease: it rebuilds the
// request, routes it over the Up subset, and offers it. The offer owns
// the outcome from here — acceptance, terminal rejection, and
// bounce-driven re-routing all land as folds — so the caller only
// learns whether a routable node existed at this instant (false: the
// lease stays with the caller for the pending queue).
func (c *Cluster) redeliverOne(now sim.Time, l *lease) bool {
	r := c.chaos.leaseRequest(l)
	idx := c.pickNode(now, r)
	if idx < 0 {
		coe.Recycle(r)
		return false
	}
	c.postOffer(now, idx, offerRedeliver, r, l.tenant, l)
	return true
}
