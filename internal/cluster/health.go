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

// healthState is the per-stream health bookkeeping: windowed per-node
// completion latency (a count and a sum each, reset every window), the
// scores derived from it, and the breaker FSM. Nil on streams without
// HealthConfig — those pay nothing.
type healthState struct {
	cfg   HealthConfig
	score []float64
	phase []breakerPhase
	cool  []int // windows left before open → half-open
	// probes counts a half-open node's in-flight probe admissions; it
	// caps routing, decrements on completion, and resets each window.
	probes []int
	// dry counts consecutive windows a node completed nothing while
	// holding work. One silent window is routine — a cold start or a
	// batch spanning the window boundary looks exactly like this — so
	// only a run of them reads as a stall.
	dry []int
	// done and latSum are this window's completion count and latency
	// sum (seconds) per node.
	done   []int64
	latSum []float64
	means  []float64 // scratch for the median reference
	// open has node i's bit set while its phase is not closed.
	open []uint64

	HealthStats // the report's breaker counters, incremented in place
}

// newHealthState returns fresh health bookkeeping for the fleet's
// nodes, every breaker closed.
func newHealthState(cfg HealthConfig, f *fleet) *healthState {
	nodes := len(f.backlog)
	clear(f.open)
	h := &healthState{
		cfg:    cfg,
		score:  make([]float64, nodes),
		phase:  make([]breakerPhase, nodes),
		cool:   make([]int, nodes),
		probes: make([]int, nodes),
		dry:    make([]int, nodes),
		done:   make([]int64, nodes),
		latSum: make([]float64, nodes),
		means:  make([]float64, 0, nodes),
		open:   f.open,
	}
	for i := range h.score {
		h.score[i] = 1
	}
	return h
}

// holdOut sets mask to up less the nodes the breaker holds out of
// ordinary routing: open, or half-open with every probe slot taken.
func (h *healthState) holdOut(mask, up []uint64) {
	for k, w := range h.open {
		m := up[k]
		for ; w != 0; w &= w - 1 {
			i := k<<6 | bits.TrailingZeros64(w)
			if h.phase[i] == breakerOpen || h.probes[i] >= h.cfg.Probes {
				m &^= 1 << (i & 63)
			}
		}
		mask[k] = m
	}
}

// onAdmit records a successful admission to node i.
func (h *healthState) onAdmit(i int) {
	if h.phase[i] == breakerHalfOpen {
		h.probes[i]++
		h.ProbesSent++
	}
}

// onComplete records a lease-resolved completion on node i with the
// given end-to-end latency.
func (h *healthState) onComplete(i int, latSeconds float64) {
	h.done[i]++
	h.latSum[i] += latSeconds
	if h.probes[i] > 0 {
		h.probes[i]--
	}
}

// resetNode wipes node i's health bookkeeping — a crash already resets
// the node itself, so the restarted instance is presumed healthy until
// measured again.
func (h *healthState) resetNode(i int) {
	h.phase[i] = breakerClosed
	setBit(h.open, i, false)
	h.score[i] = 1
	h.cool[i] = 0
	h.probes[i] = 0
	h.dry[i] = 0
	h.done[i], h.latSum[i] = 0, 0
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
	for i := range c.nodes {
		if !hasBit(c.fleet.up, i) || h.done[i] == 0 {
			continue
		}
		h.means = append(h.means, h.latSum[i]/float64(h.done[i]))
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
		cnt := h.done[i]
		switch {
		case cnt == 0 && n.sys.Outstanding() > 0:
			// Completed nothing while holding work. One window of silence
			// is no verdict — the held batch may simply span the boundary —
			// so the score is left where it was until the silence repeats;
			// from the second consecutive dry window on, the node reads as
			// stalled.
			h.dry[i]++
			if h.dry[i] >= 2 {
				h.score[i] = 0
			}
		case cnt == 0:
			// Idle: nothing to hold against it.
			h.dry[i] = 0
			h.score[i] = 1
		default:
			h.dry[i] = 0
			// Relative latency only. A raw completions/admissions ratio
			// would also read queue growth — which any node shows under a
			// Poisson burst — as sickness and trip healthy nodes; queueing
			// surfaces in the sojourn latencies soon enough, and the
			// cnt == 0 case above catches the true zero-throughput stall.
			h.score[i] = 1
			if mean := h.latSum[i] / float64(cnt); ref > 0 && mean > ref {
				h.score[i] = ref / mean
			}
		}
	}
	if h.cfg.Breaker {
		c.breakerTick()
	}
	clear(h.done)
	clear(h.latSum)
	clear(h.probes)
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
	for i := range c.nodes {
		if !hasBit(c.fleet.up, i) {
			continue
		}
		switch h.phase[i] {
		case breakerClosed:
			if h.score[i] < tripBelow && count(h.open) < maxOpen && c.routableHealthy() > 1 {
				h.phase[i] = breakerOpen
				h.cool[i] = h.cfg.Cooldown
				setBit(h.open, i, true)
				h.BreakerTrips++
			}
		case breakerOpen:
			h.cool[i]--
			if h.cool[i] <= 0 {
				h.phase[i] = breakerHalfOpen
			}
		case breakerHalfOpen:
			// Judge only on windows with a full quorum of completions; an
			// unprobed window (probe still queued behind the straggler's
			// backlog) keeps the node half-open, and a single lucky
			// completion from a jittering node is not evidence of health —
			// one fast batch must not reinstate a sick node.
			if h.done[i] < int64(h.cfg.Probes) {
				break
			}
			if h.score[i] >= restoreAbove {
				h.phase[i] = breakerClosed
				setBit(h.open, i, false)
				h.BreakerReinstates++
			} else if h.score[i] < tripBelow {
				h.phase[i] = breakerOpen
				h.cool[i] = h.cfg.Cooldown
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
