package core

import (
	"time"

	"repro/internal/coe"
	"repro/internal/metrics"
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
	rejected   int64
	completed  int64
	dropped    int64 // admitted requests voided by node crashes
	peakQueued int   // largest backlog observed at a dispatch instant
	closed     bool  // the source is exhausted
	finished   bool  // every admitted request has completed or dropped

	// tenants holds one recorder per request Tenant — its admissions
	// (arrivals), rejections, completions and latencies, in sketch mode
	// when the system's recorder is — and order their first-seen order.
	// Nil until the first tagged request.
	tenants map[string]*metrics.Recorder
	order   []string
}

func newController(s *System, stream string, d StreamDelegate) *controller {
	return &controller{sys: s, stream: stream, delegate: d}
}

// offer runs one arrival through the admission policy and, if accepted,
// the dispatch path, at virtual time now. Rejected requests leave
// exactly one mark — a rejection count (and a KindRejected trace
// event) — and never touch a queue, the recorder's completion path, or
// the per-tenant latency aggregates. It is OfferAt's body.
func (c *controller) offer(now sim.Time, r *coe.Request) bool {
	s := c.sys
	if s.cfg.Admission != nil && !s.cfg.Admission.Admit(now, s, r) {
		c.rejected++
		s.recorder.Rejection(now)
		if r.Tenant != "" {
			c.tenantFor(r.Tenant).Rejection(now)
		}
		if s.cfg.Trace != nil {
			s.cfg.Trace.Add(trace.Event{
				At: now.Duration(), Kind: trace.KindRejected, Request: r.ID,
			})
		}
		return false
	}
	r.Arrival = now
	s.recorder.Arrival(r.Arrival)
	c.admitted++
	if r.Tenant != "" {
		c.tenantFor(r.Tenant).Arrival(now)
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
// recorded, and the final completion of a closed stream shuts the
// system down.
func (c *controller) onBatch(now sim.Time, r *coe.Request) {
	s := c.sys
	s.recorder.StageDone()
	if r.Advance() {
		s.dispatch(r)
		return
	}
	r.Done = now
	s.recorder.Completion(r.Arrival, now)
	if r.Tenant != "" {
		c.tenants[r.Tenant].Completion(r.Arrival, now)
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

// tenantFor returns (taking from the system's spares or creating if
// needed) a tenant's recorder, registering first-seen order.
func (c *controller) tenantFor(tenant string) *metrics.Recorder {
	if c.tenants == nil {
		c.tenants = make(map[string]*metrics.Recorder)
	}
	rec, ok := c.tenants[tenant]
	if !ok {
		s := c.sys
		if n := len(s.spareTenants); n > 0 {
			rec, s.spareTenants = s.spareTenants[n-1], s.spareTenants[:n-1]
		} else {
			rec = metrics.NewRecorder()
			if s.cfg.Percentiles == PercentilesSketch {
				rec.UseSketch()
			}
		}
		c.tenants[tenant] = rec
		c.order = append(c.order, tenant)
	}
	return rec
}

// tenantStats renders the per-tenant breakdown in first-seen order.
func (c *controller) tenantStats(slo time.Duration) []TenantStats {
	if len(c.order) == 0 {
		return nil
	}
	out := make([]TenantStats, 0, len(c.order))
	for _, name := range c.order {
		rec := c.tenants[name]
		out = append(out, TenantStats{
			Name:          name,
			Admitted:      rec.Arrivals(),
			Rejected:      rec.Rejections(),
			Completions:   rec.Completions(),
			Latency:       rec.LatencySummary(),
			SLOAttainment: rec.SLOAttainment(slo),
		})
	}
	return out
}
