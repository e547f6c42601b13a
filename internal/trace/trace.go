// Package trace records structured serving events — request assignment,
// expert switches, batch executions, completions — for analysis of a
// run; Figure 19 replays a traced run's queue assignments.
package trace

import "time"

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

// Log is an append-only event recorder. The zero value is ready to use.
// Log is not safe for concurrent use — the simulation is single-threaded.
type Log struct {
	events []Event
}

// New returns an empty log.
func New() *Log { return &Log{} }

// Add appends an event.
func (l *Log) Add(ev Event) { l.events = append(l.events, ev) }

// Events returns the recorded events, oldest first. Callers must not
// modify the returned slice.
func (l *Log) Events() []Event { return l.events }
