package cluster

import (
	"fmt"
	"time"

	"repro/internal/coe"
	"repro/internal/sim"
)

// HedgeConfig enables per-request timeouts with hedged redelivery: a
// request still leased After past its admission is speculatively
// re-offered to a healthy node. First completion wins and resolves the
// lease; the loser's copy no longer serves a lease, so its completion
// counts as wasted work, never as a second completion — one hold per
// copy is what makes hedging safe to account.
type HedgeConfig struct {
	// After is the deadline budget: a lease older than this (and not
	// already hedged) fires a hedge. Zero disables hedging — the
	// byte-identical default.
	After time.Duration
}

// hedgeRetries bounds the re-arms when a hedge attempt finds no
// node to route to or is refused by node admission; each retry backs off
// exponentially (After, 2·After, 4·After).
const hedgeRetries = 3

// Enabled reports whether hedging is on.
func (h HedgeConfig) Enabled() bool { return h.After > 0 }

func (h HedgeConfig) validate() error {
	if h.After < 0 {
		return fmt.Errorf("cluster: Hedge.After must be >= 0, got %v", h.After)
	}
	return nil
}

// armHedge schedules the lease's deadline timer d from now. Every armed
// timer is cancelled when the lease resolves or its holder crashes, so
// no timer outlives its lease.
func (c *Cluster) armHedge(l *lease, d time.Duration) {
	if !c.cfg.Hedge.Enabled() || l.timerSet {
		return
	}
	if l.due == nil {
		l.due = func() { c.hedgeDue(l) }
	}
	l.timer = c.env.AfterFunc(d, l.due)
	l.timerSet = true
}

// cancelHedge revokes a lease's pending deadline timer, if any.
func (c *Cluster) cancelHedge(l *lease) {
	if l.timerSet {
		c.env.Cancel(l.timer)
		l.timerSet = false
	}
}

// hedgeDue is the timer callback: the lease outlived its deadline
// budget, so its request is re-offered to a healthy node, unless the
// lease was voided or hedged since arming. Once the acceptance lands the
// lease is served by both copies; whichever completes first resolves it
// and the other surfaces as wasted work. When no node may take the copy
// (or node admission refuses or bounces the copy) the primary keeps the
// lease untouched and the timer re-arms with exponential backoff, up to
// hedgeRetries times.
func (c *Cluster) hedgeDue(l *lease) {
	if !l.held() || l.hedge != nil {
		return
	}
	l.timerSet = false
	// With the breaker armed, hedge only leases whose holder is actually
	// quarantined or probing. A deadline alone cannot tell a gray
	// failure from an honest queue — hedging every overdue request
	// under load duplicates most of the fleet's work and melts the
	// healthy nodes too — and a transient score dip short of a trip is
	// still ambiguous, so only the breaker's verdict releases a hedge.
	// Without the breaker there is no such signal and the deadline is
	// trusted as-is: health scoring alone only observes.
	if c.cfg.Health.Breaker && c.nodes[l.primary.node].phase == breakerClosed {
		c.rearmHedge(l)
		return
	}
	now := c.env.Now()
	idx := c.pickHedgeNode(now, l)
	if idx < 0 {
		c.rearmHedge(l)
		return
	}
	// HedgesFired and the hold list entry attach when the accept fold
	// lands; a refusal or bounce re-arms the deadline from its fold.
	c.postOffer(now, idx, l, c.leaseRequest(l), true)
	// A hedge moves no lease between accounting buckets — one arrival,
	// one lease, still exactly one completion ahead — so the invariant
	// must hold unchanged at this boundary.
	if cs := c.chaos; cs.accounted() != cs.arrivals {
		cs.verify(now, fmt.Sprintf("hedge %d", l.id))
	}
}

// hedgeMissed lands a hedge copy that did not take: refused, bounced, or
// lost with its node. A lease still held by its primary re-arms its
// deadline — after d, or with backoff when d is 0.
func (c *Cluster) hedgeMissed(l *lease, d time.Duration) {
	switch {
	case !l.held():
	case d > 0:
		c.armHedge(l, d)
	default:
		c.rearmHedge(l)
	}
}

// rearmHedge backs the deadline off exponentially and re-arms it, or
// gives up after hedgeRetries — the primary then simply keeps the lease.
func (c *Cluster) rearmHedge(l *lease) {
	if l.retries >= hedgeRetries {
		return
	}
	l.retries++
	c.chaos.HedgeRetries++
	c.armHedge(l, c.cfg.Hedge.After<<uint(l.retries))
}

// pickHedgeNode routes a hedge copy over the Up nodes whose breaker is
// closed, less the primary holder's. Returns -1 when no such node
// exists.
func (c *Cluster) pickHedgeNode(now sim.Time, l *lease) int {
	mask := c.fleet.pick
	copy(mask, c.fleet.up)
	if c.health != nil {
		for k, w := range c.health.open {
			mask[k] &^= w
		}
	}
	setBit(mask, l.primary.node, false)
	// The router only reads the request (ID, class, chain), so the pick
	// runs against a reusable probe built from the lease's own chain
	// copy — no allocation, and the probe never reaches a queue.
	c.probe = coe.Request{ID: l.id, Class: l.class, Chain: l.chain}
	return c.route(now, mask, &c.probe)
}
