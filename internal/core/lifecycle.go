package core

import (
	"repro/internal/sim"
)

// NodeState is a system's lifecycle state on the cluster seam. Every
// stream starts NodeUp; only the cluster layer's fault injection drives
// the transitions, so a system no fault touches stays NodeUp.
type NodeState int

const (
	// NodeUp: the node accepts offered work and serves normally.
	NodeUp NodeState = iota
	// NodeDraining: the node accepts no new work but finishes what it
	// already holds — the graceful removal path.
	NodeDraining
	// NodeDown: the node crashed. Queued work was voided (handed back to
	// the lease holder for redelivery), executors have exited, and OfferAt
	// refuses arrivals until Restart.
	NodeDown
)

func (s NodeState) String() string {
	switch s {
	case NodeUp:
		return "up"
	case NodeDraining:
		return "draining"
	case NodeDown:
		return "down"
	}
	return "unknown"
}

// State reports the node's lifecycle state.
func (s *System) State() NodeState { return s.state }

// Outstanding reports the number of admitted requests not yet completed
// or dropped — the node's in-flight count, the drain-completion signal.
func (s *System) Outstanding() int64 {
	if s.ctrl == nil {
		return 0
	}
	return s.ctrl.admitted - s.ctrl.completed - s.ctrl.dropped
}

// Drain takes an Up node out of routing gracefully: the cluster stops
// offering it work and the node finishes what it holds. A no-op in any
// other state.
func (s *System) Drain() {
	if s.state == NodeUp {
		s.state = NodeDraining
	}
}

// Resume returns a Draining node to service. A no-op in any other state
// (a crashed node needs Restart).
func (s *System) Resume() {
	if s.state == NodeDraining {
		s.state = NodeUp
	}
}

// CrashAt kills the node abruptly at virtual time now, the node's
// current instant: the state goes Down, the crash epoch advances (so
// executors mid-batch discard their results through the OnVoid path
// instead of acking voided work), every queued request is purged and
// dropped — struck from the node's accounting so the stream can still
// finish exactly, and handed back to the stream delegate — and the
// executors are woken to observe the down state and exit. The requests
// a crash voids are the dispatcher's to redeliver: it held the leases.
// Returns the number of requests dropped from the queues (in-flight
// batches surface as drops later, when their virtual execution unwinds).
func (s *System) CrashAt(now sim.Time) int {
	if s.state == NodeDown {
		return 0
	}
	s.state = NodeDown
	s.epoch++
	// A crash wipes gray degradation with everything else: the restart
	// comes back at full speed (a persistent fault is scripted as a
	// fresh gray event after the recover).
	s.gray = nil
	if s.ctrl == nil || s.ctrl.finished {
		return 0
	}
	n := 0
	for _, q := range s.queues {
		for _, r := range q.Purge() {
			s.ctrl.drop(now, r)
			n++
		}
	}
	for _, q := range s.queues {
		q.Gate().Notify()
	}
	return n
}

// Restart returns a crashed node to service: the state goes Up and — if
// a stream is still open — a fresh set of executor runs is launched (the
// crashed epoch's runs ended, or will end the moment they observe the
// epoch change). The node rejoins routing with
// empty queues; its pools keep whatever the crash left resident, the
// warm-restart analogue of a machine coming back with its disk intact.
func (s *System) Restart() {
	if s.state != NodeDown {
		return
	}
	s.state = NodeUp
	if s.serving && s.ctrl != nil && !s.ctrl.finished {
		for _, ex := range s.executors {
			ex.Start()
		}
	}
}
