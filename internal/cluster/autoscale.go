package cluster

import (
	"fmt"
	"math"
	"time"

	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/sim"
)

// FleetAutoscaler decides how many nodes should be routable. Once per
// Config.Window the cluster hands it the last window of the fleet's
// metrics series and the current topology; the returned desired count
// is clamped to [1, total] and applied by draining the highest-index Up
// nodes (scale-down — they finish in-flight work, stop receiving new)
// or resuming previously autoscaler-drained nodes (scale-up). Nodes a
// fault plan crashed or drained are never touched: the autoscaler only
// reclaims drains it ordered itself.
type FleetAutoscaler interface {
	Name() string
	// Scale returns the desired routable node count given the last
	// completed window w of length interval, the current Up count, and
	// the fleet size.
	Scale(now sim.Time, w metrics.Window, interval time.Duration, active, total int) int
}

// RateFleetScaler sizes the fleet from the offered rate: enough nodes
// that each carries at most PerNode arrivals per second, with a
// hysteresis band so the count does not flap — it scales up as soon as
// the rate exceeds the active capacity, but scales down only when the
// rate falls below shrinkAt of the post-shrink capacity.
type RateFleetScaler struct {
	// PerNode is one node's target arrival rate (requests/second).
	PerNode float64
}

// shrinkAt is the scale-down hysteresis factor: shrinking to k nodes
// requires rate < shrinkAt * k * PerNode.
const shrinkAt = 0.7

// NewRateFleetScaler returns a rate-driven fleet scaler targeting
// perNode arrivals per second per node.
func NewRateFleetScaler(perNode float64) (*RateFleetScaler, error) {
	if perNode <= 0 {
		return nil, fmt.Errorf("cluster: RateFleetScaler needs a positive per-node rate, got %v", perNode)
	}
	return &RateFleetScaler{PerNode: perNode}, nil
}

// Name implements FleetAutoscaler.
func (s *RateFleetScaler) Name() string { return "rate" }

// Scale implements FleetAutoscaler.
func (s *RateFleetScaler) Scale(now sim.Time, w metrics.Window, interval time.Duration, active, total int) int {
	if interval <= 0 {
		return active
	}
	rate := float64(w.Arrivals) / interval.Seconds()
	need := int(math.Ceil(rate / s.PerNode))
	if need < 1 {
		need = 1
	}
	if need > active {
		return need // scale up immediately: attainment is on the line
	}
	if need < active {
		// Only shrink when the rate clears the hysteresis band below the
		// post-shrink capacity; otherwise hold.
		if rate < shrinkAt*float64(need)*s.PerNode {
			return need
		}
	}
	return active
}

// fleetAutoscale starts the cluster's scaling loop: once per Window it
// synthesizes the last window of the fleet series from the recorder's
// counters (arrivals, completions, rejections since the previous tick),
// asks the autoscaler for a desired Up count, and applies it. It stops
// once the stream's nodes have been closed — the fleet only drains from
// there.
func (c *Cluster) fleetAutoscale() {
	window := c.cfg.Window
	start := c.env.Now()
	var lastArr, lastComp, lastRej int64
	c.env.Every(window, func() bool {
		if c.closedAll {
			return false
		}
		now := c.env.Now()
		arr := c.recorder.Arrivals()
		comp := c.recorder.Completions()
		rej := c.recorder.Rejections()
		w := metrics.Window{
			Start:       now.Sub(start) - window,
			Arrivals:    arr - lastArr,
			Completions: comp - lastComp,
			Rejections:  rej - lastRej,
		}
		lastArr, lastComp, lastRej = arr, comp, rej
		if up := count(c.fleet.up); up > 0 { // mid-blackout there is nothing to scale
			desired := c.cfg.Autoscaler.Scale(now, w, window, up, len(c.nodes))
			c.applyScale(now, min(max(desired, 1), len(c.nodes)), up)
		}
		return true
	})
}

// applyScale drains or resumes nodes to move the Up count toward
// desired. Scale-down drains from the highest index; scale-up resumes
// autoscaler-drained nodes from the lowest. Crashed nodes and fault-
// plan drains are out of bounds in both directions.
func (c *Cluster) applyScale(now sim.Time, desired, up int) {
	for i := len(c.nodes) - 1; i >= 0 && up > desired; i-- {
		if !hasBit(c.fleet.up, i) {
			continue
		}
		c.startDrain(now, i, true)
		c.chaos.ScaleDowns++
		up--
	}
	c.checkDrains(now) // an idle node drains instantly
	resumed := false
	for i := 0; i < len(c.nodes) && up < desired; i++ {
		n := c.nodes[i]
		if !n.scalerDrained || n.sys.State() != core.NodeDraining {
			continue
		}
		c.endDrain(i, true)
		c.chaos.ScaleUps++
		up++
		resumed = true
	}
	if resumed {
		c.flushPending(now)
	}
}
