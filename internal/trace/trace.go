// Package trace records structured serving events — request assignment,
// expert switches, batch executions, completions — for analysis of a
// run; Figure 19 replays a traced run's queue assignments.
package trace

import (
	"slices"
	"time"
)

// Kind classifies an event.
type Kind string

const (
	// KindArrival: a request entered the system.
	KindArrival Kind = "arrival"
	// KindAssign: a request (stage) was assigned to a queue.
	KindAssign Kind = "assign"
	// KindSwitch: a pool loaded an expert (an expert switch).
	KindSwitch Kind = "switch"
	// KindBatch: an executor finished a batch.
	KindBatch Kind = "batch"
	// KindComplete: a request finished its final stage.
	KindComplete Kind = "complete"
	// KindRejected: admission control rejected an arriving request. The
	// request never touches a queue; this is its only trace of existence.
	KindRejected Kind = "rejected"
	// KindDropped: a node crash voided an in-flight request; its lease
	// holder (the cluster front end) redelivers it elsewhere.
	KindDropped Kind = "dropped"
	// KindStream: a new stream began serving (warm restarts append
	// consecutive streams to one log; request IDs restart per stream,
	// so consumers must pair arrivals to completions within stream
	// segments). Detail carries the stream name.
	KindStream Kind = "stream"
)

// Event is one recorded occurrence. At is virtual time from simulation
// start.
type Event struct {
	At      time.Duration `json:"at"`
	Kind    Kind          `json:"kind"`
	Actor   string        `json:"actor,omitempty"`   // queue/pool/executor name
	Request int64         `json:"request,omitempty"` // request id
	Expert  int32         `json:"expert,omitempty"`  // expert id
	N       int           `json:"n,omitempty"`       // batch size
	Dur     time.Duration `json:"dur,omitempty"`     // operation duration
	Detail  string        `json:"detail,omitempty"`  // e.g. load source
}

// Log is an append-only event recorder. The zero value records
// unboundedly; NewBounded caps retention (oldest events are dropped).
// Log is not safe for concurrent use — the simulation is single-threaded.
type Log struct {
	events []Event
	// head is the oldest retained event's index once a bounded log is
	// full: Add overwrites it in place, so a full log is a ring buffer.
	head    int
	limit   int
	dropped int64
}

// New returns an unbounded log.
func New() *Log { return &Log{} }

// NewBounded returns a log that retains at most limit events.
//
//detlint:allow unused core's TracedPicks test needs a log that dropped events, which only a bounded log can be
func NewBounded(limit int) *Log {
	if limit < 1 {
		panic("trace: bound must be >= 1")
	}
	return &Log{limit: limit}
}

// Add appends an event. On a full bounded log it replaces the oldest
// event in O(1).
func (l *Log) Add(ev Event) {
	if l.limit > 0 && len(l.events) >= l.limit {
		l.events[l.head] = ev
		l.head = (l.head + 1) % len(l.events)
		l.dropped++
		return
	}
	l.events = append(l.events, ev)
}

// Dropped reports how many events a bounded log discarded.
func (l *Log) Dropped() int64 { return l.dropped }

// Events returns the retained events, oldest first. Callers must not
// modify the returned slice. On a wrapped ring it first rotates the
// buffer in place, so reading costs O(n) once per wrap, not per Add.
func (l *Log) Events() []Event {
	if h := l.head; h > 0 {
		slices.Reverse(l.events[:h])
		slices.Reverse(l.events[h:])
		slices.Reverse(l.events)
		l.head = 0
	}
	return l.events
}
