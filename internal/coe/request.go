package coe

import (
	"fmt"

	"repro/internal/sim"
)

// Request is one inference request traveling through a CoE pipeline. A
// request carries its full expert chain (decided by the router) and a
// cursor over it; the serving system schedules one stage at a time and
// advances the cursor when a stage completes.
type Request struct {
	ID    int64
	Class int
	Chain []ExpertID
	// stage is the cursor over Chain. TenantSlot shares its word, so a
	// request stays 96 bytes.
	stage int32
	// TenantSlot belongs to the node serving the request, as Hold belongs
	// to whoever offers it: at admission the node stamps the index plus
	// one of Tenant in its own tenant table (0: no tenant), so that its
	// completion accounting reads the index instead of looking the name
	// up again. A cluster front end reads it too, when it folds the
	// completion, to tag the latency sample with the (node, tenant) pair.
	TenantSlot int32

	// Tenant names the stream the request came from in a multi-tenant
	// mix (empty for single-tenant streams). Mix and trace replay stamp
	// it; admission quotas and per-tenant accounting read it.
	Tenant string

	// Arrival is stamped by the serving system when the request enters.
	Arrival sim.Time
	// Done is stamped when the final stage completes.
	Done sim.Time

	// Hold belongs to whoever offers the request to a serving node: the
	// cluster front end keeps the index of its record of this copy here.
	// The data plane never reads or writes it.
	Hold int

	// arena, when non-nil, marks the request as leased from an Arena;
	// Recycle returns it there. Plain NewRequest objects leave it nil.
	arena *Arena
}

// NewRequest returns a request at stage 0 of the given chain.
func NewRequest(id int64, class int, chain []ExpertID) *Request {
	if len(chain) == 0 {
		panic("coe: request with empty chain")
	}
	return &Request{ID: id, Class: class, Chain: chain}
}

// Expert reports the expert required by the request's current stage.
func (r *Request) Expert() ExpertID { return r.Chain[r.stage] }

// Stage reports the zero-based index of the current stage.
func (r *Request) Stage() int { return int(r.stage) }

// Stages reports the total number of stages in the chain.
func (r *Request) Stages() int { return len(r.Chain) }

// Advance moves the request to its next stage. It reports false when the
// request has completed its final stage.
func (r *Request) Advance() bool {
	if int(r.stage)+1 >= len(r.Chain) {
		return false
	}
	r.stage++
	return true
}

// Final reports whether the request is on its last stage.
func (r *Request) Final() bool { return int(r.stage) == len(r.Chain)-1 }

func (r *Request) String() string {
	return fmt.Sprintf("req%d(class=%d stage=%d/%d expert=%d)",
		r.ID, r.Class, r.stage+1, len(r.Chain), r.Expert())
}
