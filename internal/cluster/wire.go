package cluster

import (
	"repro/internal/coe"
	"repro/internal/core"
	"repro/internal/sim"
)

// This file is the front end's request protocol, the one path every
// offer, redelivery, hedge and completion takes:
//
//	front end ── offer ──▶ node        (postOffer → nodeOffer)
//	node      ── fold  ──▶ front end   (postFold → accept/reject/bounce/
//	                                    completion/recycle fold)
//
// The offer carries the request to the node, where it is either bounced
// (node not Up), rejected by node admission, or admitted; the outcome
// folds back and only then touches the leases and holds, the fleet
// recorder, health scoring, and the hedge timers. Every front-end
// structure — leases, holds, arena, recorder, router scratch — is
// therefore written only in front-end context, and a node touches only
// its own state plus the request object the offer handed it.
//
// The front end and every node run on the fleet's one environment.
// Only the transport depends on Config.Interconnect, and only post
// knows which one runs. With no interconnect a hop is a
// direct call to deliverMsg at the sending instant — not a zero-delay
// event, which would reorder same-instant events. With one, a hop is a
// pooled message posted on the environment one hop latency later; it
// orders against every other event by (time, sequence), so messages
// due at one instant land in the order they were posted.
//
// Control verbs flow the other way without messages at all: fault
// injection, drains, restarts, and stream close call into node state
// directly, at the instant they run.
//
// Every hop is a pooled wireMsg — one typed union covering the whole
// protocol — drawn from one free list and released on delivery, so the
// steady-state offer→accept→completion cycle allocates nothing: the
// offer's message is freed at the node and immediately reused for the
// fold, the fold's for the next offer.

// wireOp selects a wireMsg's handler — the protocol's full verb set.
type wireOp uint8

const (
	opOffer      wireOp = iota // front end → node: deliver a request to admission
	opAccept                   // node → front end: admission succeeded
	opReject                   // node → front end: admission refused
	opBounce                   // node → front end: node not Up, request unopened
	opCompletion               // node → front end: request finished, ack the lease
	opRecycle                  // node → front end: return a dropped request to the arena
)

// wireMsg is the pooled protocol message: one union for every hop, so
// a free list of them serves the entire request path. The request names
// its hold (coe.Request.Hold), which names the node — the offer's
// target, the fold's origin — and the lease. A fold carries the node
// instant it was sent; an accept's is the instant the node admitted the
// request.
type wireMsg struct {
	c    *Cluster
	op   wireOp
	r    *coe.Request
	sent sim.Time
	next *wireMsg // free-list link
}

// Deliver implements sim.Message: the environment invokes it at the
// instant the hop lands.
func (m *wireMsg) Deliver(at sim.Time) { m.c.deliverMsg(m, at) }

// newMsg draws a message from the free list.
func (c *Cluster) newMsg() *wireMsg {
	m := c.msgFree
	if m == nil {
		return &wireMsg{c: c}
	}
	c.msgFree = m.next
	m.next = nil
	return m
}

// freeMsg returns a delivered message to the free list, clearing
// payload pointers so the list pins nothing.
func (c *Cluster) freeMsg(m *wireMsg) {
	m.r = nil
	m.next = c.msgFree
	c.msgFree = m
}

// deliverMsg unpacks and dispatches one protocol hop, freeing the
// message before the handler runs so a handler that immediately posts
// the next hop (nodeOffer folding the outcome back, a fold routing the
// next offer) reuses the very message that carried this one.
func (c *Cluster) deliverMsg(m *wireMsg, at sim.Time) {
	op, r, sent := m.op, m.r, m.sent
	c.freeMsg(m)
	h := c.holds[r.Hold]
	if op == opOffer {
		c.nodeOffer(at, h, r)
		return
	}
	hedge := false
	if op == opAccept || op == opReject || op == opBounce {
		// The offer has landed: it no longer holds an accounting token
		// (or, for a hedge, counts as a copy on the wire).
		if hedge = h.l.hedge == h; hedge {
			c.chaos.hedgeOffers--
		} else {
			c.chaos.offersInFlight--
		}
	}
	switch op {
	case opAccept:
		c.acceptFold(at, h, hedge, sent)
	case opReject:
		c.rejectFold(at, h, hedge, r)
	case opBounce:
		c.bounceFold(at, h, hedge, r)
	case opCompletion:
		c.completionFold(at, h, r)
	case opRecycle:
		c.recycleFold(h, r)
	}
}

// postOffer hands a copy of lease l's request to node idx — its primary
// copy, or with hedge its speculative second one — under a fresh hold:
// delivered at once with no interconnect, one hop from now with one.
// The offer is counted while it flies so exactly-once
// verification and stream close account for it: a primary offer carries
// the request's accounting token (its lease is in no other bucket
// meanwhile), a hedge offer carries only duplicate work.
func (c *Cluster) postOffer(now sim.Time, idx int, l *lease, r *coe.Request, hedge bool) {
	cs := c.chaos
	n := c.nodes[idx]
	h := c.newHold(idx)
	h.l = l
	r.Hold = h.idx
	n.routed++
	if hedge {
		l.hedge = h
		cs.hedgeOffers++
	} else {
		l.primary = h
		cs.offersInFlight++
	}
	m := c.newMsg()
	m.op, m.r = opOffer, r
	c.post(n, now, m)
}

// postFold posts a fold verb from node n to the front end: delivered at
// once with no interconnect, one hop after now with one.
func (c *Cluster) postFold(n *Node, now sim.Time, op wireOp, r *coe.Request) {
	m := c.newMsg()
	m.op, m.r, m.sent = op, r, now
	c.post(n, now, m)
}

// post carries m across node n's link, sent at now: the two transports.
func (c *Cluster) post(n *Node, now sim.Time, m *wireMsg) {
	if n.hop == 0 {
		c.deliverMsg(m, now)
		return
	}
	c.env.PostMsg(now.Add(n.hop), m)
}

// nodeOffer runs in the context of the offer's node at its arrival
// instant (now). It advances only node-local state, and reports the
// outcome with a fold, which lands one hop later over an interconnect.
func (c *Cluster) nodeOffer(now sim.Time, h *hold, r *coe.Request) {
	n := c.nodes[h.node]
	switch {
	case n.sys.State() != core.NodeUp:
		// The node went down or started draining while the offer was on
		// the wire: bounce it back unopened for the front end to
		// re-route.
		c.postFold(n, now, opBounce, r)
	case n.sys.OfferAt(now, r):
		c.postFold(n, now, opAccept, r)
	default:
		c.postFold(n, now, opReject, r)
	}
}

// acceptFold lands a successful admission on the front end: the hold
// joins its node's list, and the fleet recorder, health scoring, and
// hedge arming advance. Over an interconnect a node can crash after
// admitting the request at issued, while the fold flies; it already
// purged the request, so the copy is marked killed and a primary's
// lease is voided on landing instead.
func (c *Cluster) acceptFold(now sim.Time, h *hold, hedge bool, issued sim.Time) {
	cs := c.chaos
	l, n := h.l, c.nodes[h.node]
	crashed := n.lastCrash > issued
	if hedge {
		switch {
		case crashed:
			h.fate = &cs.HedgesVoided
			h.l, l.hedge = nil, nil
			c.hedgeMissed(l, c.cfg.Hedge.After)
			c.settle(l)
		case l.held():
			cs.HedgesFired++
			c.link(h)
			if hl := c.health; hl != nil {
				hl.onAdmit(n)
			}
		default:
			// The lease resolved — or was voided into a redelivery — while
			// the hedge flew. The node admitted a duplicate no lease wants:
			// it completes as hedge waste, exactly like a lost hedge race,
			// or dies with its node.
			h.l, l.hedge = nil, nil
			c.link(h)
			c.settle(l)
		}
		c.maybeClose()
		return
	}
	if l.hasArrival {
		cs.Redelivered++
		l.redeliveries++
	} else {
		l.hasArrival = true
		l.arrival = issued
		c.recorder.Arrival(now)
	}
	if crashed {
		// Void and redeliver the lease exactly as the crash would have
		// had the copy been held.
		h.fate = &cs.LostLeases
		h.l, l.primary = nil, nil
		l.voidedAt = n.lastCrash
		if !c.redeliverOne(now, l) {
			cs.parkLease(l)
		}
	} else {
		c.link(h)
		cs.leased++
		if hl := c.health; hl != nil {
			hl.onAdmit(n)
		}
		c.armHedge(l, c.cfg.Hedge.After)
	}
	c.maybeClose()
}

// rejectFold lands a node-admission refusal on the front end. Refusing
// a lease's primary copy is terminal and counted once; a hedge refusal
// re-arms the deadline with backoff.
func (c *Cluster) rejectFold(now sim.Time, h *hold, hedge bool, r *coe.Request) {
	cs := c.chaos
	l := h.l
	if hedge {
		cs.HedgeRejected++
		l.hedge = nil
		c.hedgeMissed(l, 0)
	} else {
		cs.terminalRejected++
		if l.hasArrival {
			cs.RedeliveredRejected++
		} else {
			c.recorder.Rejection(now)
		}
		l.primary, l.done = nil, true
	}
	c.freeHold(h)
	c.settle(l)
	coe.Recycle(r)
	c.maybeClose()
}

// bounceFold lands an offer that found its node not Up: the request
// never reached admission, so the front end re-routes it with
// current knowledge — re-picking for a primary copy (parking when
// nothing is routable), re-arming the deadline for a hedge.
func (c *Cluster) bounceFold(now sim.Time, h *hold, hedge bool, r *coe.Request) {
	cs := c.chaos
	cs.Bounced++
	l := h.l
	c.freeHold(h)
	if hedge {
		l.hedge = nil
		c.hedgeMissed(l, 0)
		c.settle(l)
	} else {
		l.primary = nil
		if j := c.pickNode(now, r); j >= 0 {
			c.postOffer(now, j, l, r, false)
			return
		}
		cs.parkLease(l)
	}
	coe.Recycle(r)
	c.maybeClose()
}

// completionFold lands a copy's completion on the front end. The first
// copy of a lease to complete resolves it: it records the fleet
// completion — the request's one latency sample, spanning first node
// admission to this fold, return hop included, tagged with the serving
// node and tenant — and turns any other held copy into a hedge-race
// loser. A loser's completion counts as hedge waste; a copy a crash
// already killed — on an interconnect its completion can cross the
// crash on the wire, after the lease was voided — counts as a
// duplicate ack, never as a completion.
func (c *Cluster) completionFold(now sim.Time, h *hold, r *coe.Request) {
	cs := c.chaos
	c.unlink(h)
	l, n := h.l, c.nodes[h.node]
	if l == nil {
		if h.fate != nil {
			cs.DupAcks++
		} else {
			cs.HedgeWasted++
		}
		c.freeHold(h)
		coe.Recycle(r)
		return
	}
	c.cancelHedge(l)
	if lose := l.hedge; lose != nil && (lose == h || lose.held) {
		if lose == h {
			cs.HedgeWins++
			lose = l.primary
		}
		lose.l, l.hedge = nil, nil
	}
	lat := now.Sub(l.arrival).Seconds()
	if hl := c.health; hl != nil {
		hl.onComplete(n, lat)
	}
	cs.leased--
	cs.completions++
	c.recorder.Completion(l.arrival, now)
	c.recorder.Sample(lat, c.tag(n, r.TenantSlot))
	if l.redeliveries > 0 {
		d := now.Sub(l.voidedAt)
		cs.failoverSum += d
		cs.failoverN++
		cs.failoverMax = max(cs.failoverMax, d)
	}
	l.primary, l.done = nil, true
	c.freeHold(h)
	c.settle(l)
	coe.Recycle(r)
	if c.draining > 0 {
		c.checkDrains(now)
	}
	c.maybeClose()
}

// recycleFold lands a request a crash dropped: the crash walk (or an
// accept fold that landed after the crash) set the counter its copy
// ends in. The object returns to the arena.
func (c *Cluster) recycleFold(h *hold, r *coe.Request) {
	*h.fate++
	c.freeHold(h)
	coe.Recycle(r)
}

// redeliverOne re-dispatches a voided (or parked) lease: it rebuilds the
// request, routes it over the Up subset, and offers it. The offer owns
// the outcome from here — acceptance, terminal rejection, and
// bounce-driven re-routing all land as folds — so the caller only
// learns whether a routable node existed at this instant (false: the
// lease stays with the caller for the pending queue).
func (c *Cluster) redeliverOne(now sim.Time, l *lease) bool {
	r := c.leaseRequest(l)
	idx := c.pickNode(now, r)
	if idx < 0 {
		coe.Recycle(r)
		return false
	}
	c.postOffer(now, idx, l, r, false)
	return true
}
