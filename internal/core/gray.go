package core

import (
	"math/rand"
	"time"

	"repro/internal/sim"
)

// grayState is a node's active performance degradation — the gray-failure
// counterpart of the fail-stop lifecycle in lifecycle.go. A nil grayState
// is the healthy fast path: the executor Degrade hook returns immediately
// and timings are bit-identical to a build without the gray layer.
//
// Slow and jitter compose multiplicatively with each other and additively
// with a pending stall window; all three are pure functions of the
// virtual clock and a seeded RNG, so degraded runs stay byte-identical.
type grayState struct {
	// slow multiplies every batch's service time (1 = off).
	slow float64
	// jitter inflates each batch by an independent uniform factor in
	// [1, jitter] drawn from rng (1 = off).
	jitter float64
	rng    *rand.Rand
	// stallUntil freezes the node: batches starting before it do not
	// finish before it. Zero = off; it clears itself as the clock passes.
	stallUntil sim.Time
}

// SetSlow marks the node fail-slow: every batch runs factor× its
// profiled latency until ClearGray (or a crash) resets it.
func (s *System) SetSlow(factor float64) {
	s.grayFor().slow = factor
}

// SetJitter marks the node jittery: each batch's latency is multiplied
// by an independent uniform draw from [1, maxFactor]. The RNG is seeded
// here, so the draw sequence is a pure function of (seed, batch order)
// and runs stay byte-identical.
func (s *System) SetJitter(maxFactor float64, seed int64) {
	g := s.grayFor()
	g.jitter = maxFactor
	g.rng = rand.New(rand.NewSource(seed))
}

// Stall freezes the node for d from now: any batch starting inside the
// window has the remainder of the window added to its service time, so
// nothing started during the stall finishes before it ends. Queued and
// in-flight state is kept — the node resumes by itself.
func (s *System) Stall(now sim.Time, d time.Duration) {
	g := s.grayFor()
	if until := now.Add(d); until > g.stallUntil {
		g.stallUntil = until
	}
}

// ClearGray removes any active degradation — the gray recover.
func (s *System) ClearGray() { s.gray = nil }

// GrayDegraded reports whether a slow or jitter degradation is active.
// A pending stall does not count: it clears itself without a recover.
func (s *System) GrayDegraded() bool {
	return s.gray != nil && (s.gray.slow > 1 || s.gray.jitter > 1)
}

// grayFor returns the node's gray state, creating it on first use.
func (s *System) grayFor() *grayState {
	if s.gray == nil {
		s.gray = &grayState{slow: 1, jitter: 1}
	}
	return s.gray
}

// degrade is the executor Degrade hook: it maps a batch's profiled
// latency to the latency the degraded node actually serves. Wired on
// every executor; the nil check is the healthy node's entire cost.
func (s *System) degrade(now sim.Time, lat time.Duration) time.Duration {
	g := s.gray
	if g == nil {
		return lat
	}
	if g.slow > 1 {
		lat = time.Duration(float64(lat) * g.slow)
	}
	if g.jitter > 1 {
		lat = time.Duration(float64(lat) * (1 + (g.jitter-1)*g.rng.Float64()))
	}
	if g.stallUntil != 0 {
		if remain := g.stallUntil.Sub(now); remain > 0 {
			lat += remain
		} else {
			g.stallUntil = 0
		}
	}
	return lat
}
