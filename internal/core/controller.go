package core

import (
	"math"
	"time"

	"repro/internal/coe"
	"repro/internal/sim"
	"repro/internal/trace"
)

// controller owns admission and completion for one stream served by a
// System: it takes arriving requests through the admission policy into
// the dispatch path, tracks outstanding work, and shuts the executors
// down once the stream has fully drained. Arrivals reach offer through
// OfferAt, whether Serve plays them from its own source or the cluster
// routes them in.
type controller struct {
	sys    *System
	stream string // the stream name reports and traces carry

	// delegate receives every admitted request back once the node is
	// done with it (StreamDelegate).
	delegate StreamDelegate

	admitted   int64
	completed  int64
	dropped    int64 // admitted requests voided by node crashes
	peakQueued int   // largest backlog observed at a dispatch instant
	closed     bool  // the source is exhausted
	finished   bool  // every admitted request has completed or dropped

	// tenants counts each request Tenant's admissions, rejections and
	// completions, in first-seen order; tenantIdx indexes by name the
	// tenants past the first tenantScan, which slot finds by a scan.
	// Both stay empty until the first tagged request. offer looks the
	// name up once and stamps the index plus one on the request
	// (coe.Request.TenantSlot); completion reads it back. A tenant's
	// latency samples carry that slot as their recorder tag (0: no
	// tenant).
	tenants   []tenantCounts
	tenantIdx map[string]int
}

// tenantCounts is one tenant's slice of a stream's counters.
type tenantCounts struct {
	name                          string
	admitted, rejected, completed int64
}

func newController(s *System, stream string, d StreamDelegate) *controller {
	return &controller{sys: s, stream: stream, delegate: d}
}

// offer runs one arrival through the admission policy and, if accepted,
// the dispatch path, at virtual time now. Rejected requests leave
// exactly one mark — a rejection count (and a KindRejected trace
// event) — and never touch a queue or the recorder's completion path.
// It is OfferAt's body.
func (c *controller) offer(now sim.Time, r *coe.Request) bool {
	s := c.sys
	slot := c.slot(r.Tenant)
	if s.cfg.Admission != nil && !s.cfg.Admission.Admit(now, s, r) {
		s.recorder.Rejection(now)
		if slot > 0 {
			c.tenants[slot-1].rejected++
		}
		if s.cfg.Trace != nil {
			s.cfg.Trace.Add(trace.Event{
				At: now.Duration(), Kind: trace.KindRejected, Request: r.ID,
			})
		}
		return false
	}
	r.Arrival, r.TenantSlot = now, slot
	s.recorder.Arrival(r.Arrival)
	c.admitted++
	if slot > 0 {
		c.tenants[slot-1].admitted++
	}
	if s.cfg.Trace != nil {
		s.cfg.Trace.Add(trace.Event{
			At: r.Arrival.Duration(), Kind: trace.KindArrival, Request: r.ID,
		})
	}
	s.dispatch(r)
	return true
}

// onBatch advances a completed stage: multi-stage requests are
// re-dispatched for their subsequent expert; finished requests are
// counted and passed to the delegate, which records their latency, and
// the final completion of a closed stream shuts the system down.
func (c *controller) onBatch(now sim.Time, r *coe.Request) {
	s := c.sys
	s.recorder.StageDone()
	if r.Advance() {
		s.dispatch(r)
		return
	}
	r.Done = now
	s.recorder.Completion(r.Arrival, now)
	if r.TenantSlot > 0 {
		c.tenants[r.TenantSlot-1].completed++
	}
	if s.cfg.Trace != nil {
		s.cfg.Trace.Add(trace.Event{
			At: now.Duration(), Kind: trace.KindComplete,
			Request: r.ID, Dur: now.Sub(r.Arrival),
		})
	}
	c.completed++
	// Last touch of the request: its completion is recorded and the
	// trace event holds copies, so the object passes to the delegate.
	c.delegate.RequestDone(now, r)
	if c.closed && c.completed+c.dropped == c.admitted {
		c.finish()
	}
}

// drop strikes a crash-voided request from the stream's accounting: it
// was admitted but will never complete here — its lease holder
// redelivers it to another node. The request passes back to the
// delegate (the voiding dispatcher copied what it needs before the
// crash was applied) and the stream can still finish exactly:
// completed + dropped == admitted.
func (c *controller) drop(now sim.Time, r *coe.Request) {
	s := c.sys
	c.dropped++
	if s.cfg.Trace != nil {
		s.cfg.Trace.Add(trace.Event{
			At: now.Duration(), Kind: trace.KindDropped, Request: r.ID,
		})
	}
	c.delegate.RequestDropped(now, r)
	if c.closed && c.completed+c.dropped == c.admitted {
		c.finish()
	}
}

// finish marks the stream complete and wakes every executor so it can
// observe Done and exit, leaving the environment clean for a warm
// restart.
func (c *controller) finish() {
	c.finished = true
	for _, q := range c.sys.queues {
		q.Gate().Notify()
	}
}

// tenantScan is how many of the first-seen tenants slot finds by
// comparing names, before it asks the map.
const tenantScan = 8

// slot returns the named tenant's index plus one in c.tenants, or 0 for
// no tenant, registering the tenant in first-seen order on its first
// request.
func (c *controller) slot(name string) int32 {
	if name == "" {
		return 0
	}
	for j := range min(len(c.tenants), tenantScan) {
		if c.tenants[j].name == name {
			return int32(j + 1)
		}
	}
	j, ok := c.tenantIdx[name]
	if !ok {
		j = len(c.tenants)
		c.tenants = append(c.tenants, tenantCounts{name: name})
		if j >= tenantScan {
			if c.tenantIdx == nil {
				c.tenantIdx = make(map[string]int)
			}
			c.tenantIdx[name] = j
		}
	}
	return int32(j + 1)
}

// tag returns the recorder tag of an admitted request: its tenant slot,
// 0 for no tenant. Tenants past the 16-bit tag space share the last tag,
// and StreamReport refuses their stream.
func tag(r *coe.Request) uint16 { return uint16(min(r.TenantSlot, math.MaxUint16)) }

// tenantStats renders the per-tenant breakdown in first-seen order: the
// counters, and each tenant's latency folded from the recorder's tags.
func (c *controller) tenantStats(slo time.Duration) []TenantStats {
	if len(c.tenants) == 0 {
		return nil
	}
	lat := c.sys.recorder.GroupLatency(len(c.tenants)+1, nil, func(int) time.Duration { return slo })
	out := make([]TenantStats, len(c.tenants))
	for j, tc := range c.tenants {
		out[j] = TenantStats{
			Name:          tc.name,
			Admitted:      tc.admitted,
			Rejected:      tc.rejected,
			Completions:   tc.completed,
			Latency:       lat[j+1].Summary,
			SLOAttainment: lat[j+1].SLOAttainment,
		}
	}
	return out
}
