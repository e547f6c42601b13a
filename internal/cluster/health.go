package cluster

import (
	"fmt"
	"math/bits"
	"sort"
	"time"

	"repro/internal/core"
)

// HealthConfig enables per-node health scoring and, optionally, the
// circuit breaker that routes around unhealthy nodes. Health is the
// mitigation side of the gray-failure story: a fail-slow node never
// leaves the Up lifecycle state, so the router only stops feeding it if
// something measures it.
type HealthConfig struct {
	// Window is the scoring interval: once per Window every node's mean
	// completion latency over the window is scored against the fleet
	// median into a health score in [0, 1].
	// Zero disables health entirely — the byte-identical default; a
	// positive Window must be at least core.MinWindow.
	Window time.Duration
	// Breaker arms the circuit breaker: a node whose score falls below
	// tripBelow is quarantined out of routing, held open for Cooldown
	// windows, then probed half-open (at most Probes outstanding
	// requests) and reinstated once its score recovers to restoreAbove.
	// Requires Window > 0.
	Breaker bool
	// Cooldown is how many windows a tripped node stays fully open
	// before half-open probing begins (default 2).
	Cooldown int
	// Probes caps the requests routed to a half-open node per window
	// (default 1).
	Probes int
}

// The breaker's score thresholds: a closed node trips below tripBelow,
// and a half-open node is reinstated at restoreAbove or better.
const (
	tripBelow    = 0.5
	restoreAbove = 0.8
)

// Enabled reports whether health scoring is on.
func (h HealthConfig) Enabled() bool { return h.Window > 0 }

// withDefaults fills the zero knobs.
func (h HealthConfig) withDefaults() HealthConfig {
	if h.Cooldown == 0 {
		h.Cooldown = 2
	}
	if h.Probes == 0 {
		h.Probes = 1
	}
	return h
}

func (h HealthConfig) validate() error {
	if h.Breaker && h.Window <= 0 {
		return fmt.Errorf("cluster: Health.Breaker needs Health.Window > 0 (the scoring interval)")
	}
	if h.Window < 0 {
		return fmt.Errorf("cluster: Health.Window must be >= 0, got %v", h.Window)
	}
	if h.Window > 0 && h.Window < core.MinWindow {
		return fmt.Errorf("cluster: Health.Window %v below the %v floor", h.Window, core.MinWindow)
	}
	return nil
}

// breakerPhase is one node's circuit-breaker state.
type breakerPhase int

const (
	breakerClosed   breakerPhase = iota // routable
	breakerOpen                         // quarantined, cooling down
	breakerHalfOpen                     // probing: Probes requests per window
)

func (b breakerPhase) String() string {
	switch b {
	case breakerClosed:
		return "closed"
	case breakerOpen:
		return "open"
	case breakerHalfOpen:
		return "half-open"
	}
	return fmt.Sprintf("breakerPhase(%d)", int(b))
}

// healthState is the fleet's health bookkeeping, built once and reset
// each stream. Each Node holds its own windowed completion latency (a
// count and a sum, reset every window), the score derived from it and
// its breaker phase; healthState holds the breaker's bitset and
// counters. Nil on clusters without HealthConfig — those pay nothing.
type healthState struct {
	cfg   HealthConfig
	means []float64 // scratch for the median reference
	// open has node i's bit set while its phase is not closed.
	open []uint64

	HealthStats // the report's breaker counters, incremented in place
}

// reset closes every node's breaker and zeroes the counters: the state
// each stream starts from.
func (h *healthState) reset(nodes []*Node) {
	h.HealthStats = HealthStats{}
	for _, n := range nodes {
		h.resetNode(n)
	}
}

// holdOut sets mask to up less the nodes the breaker holds out of
// ordinary routing: open, or half-open with every probe slot taken.
func (h *healthState) holdOut(mask, up []uint64, nodes []*Node) {
	for k, w := range h.open {
		m := up[k]
		for ; w != 0; w &= w - 1 {
			n := nodes[k<<6|bits.TrailingZeros64(w)]
			if n.phase == breakerOpen || n.probes >= h.cfg.Probes {
				m &^= 1 << (n.idx & 63)
			}
		}
		mask[k] = m
	}
}

// onAdmit records a successful admission to node n.
func (h *healthState) onAdmit(n *Node) {
	if n.phase == breakerHalfOpen {
		n.probes++
		h.ProbesSent++
	}
}

// onComplete records a lease-resolved completion on node n with the
// given end-to-end latency.
func (h *healthState) onComplete(n *Node, latSeconds float64) {
	n.done++
	n.latSum += latSeconds
	if n.probes > 0 {
		n.probes--
	}
}

// resetNode wipes node n's health bookkeeping — a crash already resets
// the node itself, so the restarted instance is presumed healthy until
// measured again.
func (h *healthState) resetNode(n *Node) {
	setBit(h.open, n.idx, false)
	n.score, n.phase = 1, breakerClosed
	n.cool, n.probes, n.dry = 0, 0, 0
	n.done, n.latSum = 0, 0
}

// healthTick is the scoring loop's window: it folds per-node scores from
// this window's completion latencies and admissions, then advances the
// breaker FSM. It stops after the stream has fully closed, like the
// fleet autoscaler.
func (c *Cluster) healthTick() bool {
	if c.closedAll {
		return false
	}
	h := c.health
	// Reference latency: the median of the per-node mean completion
	// latencies this window, over Up nodes that completed anything. A
	// healthy homogeneous fleet scores ~1 everywhere; one straggler sits
	// far above the median and scores ~median/self.
	h.means = h.means[:0]
	for i, n := range c.nodes {
		if !hasBit(c.fleet.up, i) || n.done == 0 {
			continue
		}
		h.means = append(h.means, n.latSum/float64(n.done))
	}
	ref := 0.0
	if len(h.means) > 0 {
		sort.Float64s(h.means)
		ref = h.means[len(h.means)/2]
	}
	for i, n := range c.nodes {
		if !hasBit(c.fleet.up, i) {
			// Down/Draining nodes are the lifecycle layer's problem; their
			// health resets so they come back presumed healthy.
			continue
		}
		cnt := n.done
		switch {
		case cnt == 0 && n.sys.Outstanding() > 0:
			// Completed nothing while holding work. One window of silence
			// is no verdict — the held batch may simply span the boundary —
			// so the score is left where it was until the silence repeats;
			// from the second consecutive dry window on, the node reads as
			// stalled.
			n.dry++
			if n.dry >= 2 {
				n.score = 0
			}
		case cnt == 0:
			// Idle: nothing to hold against it.
			n.dry, n.score = 0, 1
		default:
			n.dry = 0
			// Relative latency only. A raw completions/admissions ratio
			// would also read queue growth — which any node shows under a
			// Poisson burst — as sickness and trip healthy nodes; queueing
			// surfaces in the sojourn latencies soon enough, and the
			// cnt == 0 case above catches the true zero-throughput stall.
			n.score = 1
			if mean := n.latSum / float64(cnt); ref > 0 && mean > ref {
				n.score = ref / mean
			}
		}
	}
	if h.cfg.Breaker {
		c.breakerTick()
	}
	for _, n := range c.nodes {
		n.done, n.latSum, n.probes = 0, 0, 0
	}
	return true
}

// breakerTick advances every Up node's breaker FSM on the scores the
// window just produced. Two liveness guards bound fresh trips: at most
// half the fleet may be quarantined at once (relative scoring always
// ranks somebody last, and a breaker with no cap will happily eat a
// healthy fleet one "worst" node at a time), and a trip never
// quarantines the last routable node — better a measured straggler
// than a blackholed fleet. A node already open or half-open may re-trip
// freely; it holds its quarantine slot until reinstated.
func (c *Cluster) breakerTick() {
	h := c.health
	maxOpen := len(c.nodes) / 2
	if maxOpen < 1 {
		maxOpen = 1
	}
	for i, n := range c.nodes {
		if !hasBit(c.fleet.up, i) {
			continue
		}
		switch n.phase {
		case breakerClosed:
			if n.score < tripBelow && count(h.open) < maxOpen && c.routableHealthy() > 1 {
				n.phase, n.cool = breakerOpen, h.cfg.Cooldown
				setBit(h.open, i, true)
				h.BreakerTrips++
			}
		case breakerOpen:
			if n.cool--; n.cool <= 0 {
				n.phase = breakerHalfOpen
			}
		case breakerHalfOpen:
			// Judge only on windows with a full quorum of completions; an
			// unprobed window (probe still queued behind the straggler's
			// backlog) keeps the node half-open, and a single lucky
			// completion from a jittering node is not evidence of health —
			// one fast batch must not reinstate a sick node.
			if n.done < int64(h.cfg.Probes) {
				break
			}
			if n.score >= restoreAbove {
				n.phase = breakerClosed
				setBit(h.open, i, false)
				h.BreakerReinstates++
			} else if n.score < tripBelow {
				n.phase, n.cool = breakerOpen, h.cfg.Cooldown
				h.BreakerTrips++
			}
		}
	}
}

// routableHealthy counts Up nodes whose breaker is closed.
func (c *Cluster) routableHealthy() int {
	n := 0
	for k, w := range c.fleet.up {
		n += bits.OnesCount64(w &^ c.health.open[k])
	}
	return n
}
