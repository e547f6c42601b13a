// Package metrics collects the measurements the paper's evaluation
// reports: throughput (images per second, the primary metric of §5.1),
// expert switch counts (Figure 14), per-request latency, and the
// real-wall-clock scheduling overhead of Figure 19.
package metrics

import (
	"slices"
	"time"

	"repro/internal/sim"
	"repro/internal/stats"
)

// Window is one fixed-width interval of a stream's windowed series:
// arrivals, completions, rejections, and summed completion latency that
// fell inside it. Start is the window's left edge as an offset from the
// stream's first recorded event, so consecutive warm-restarted streams
// each produce a series starting near zero.
type Window struct {
	Start       time.Duration
	Arrivals    int64
	Completions int64
	Rejections  int64
	// LatencySum is the summed end-to-end latency (seconds) of the
	// window's completions.
	LatencySum float64
}

// MeanLatency reports the window's mean completion latency in seconds
// (0 when nothing completed).
func (w Window) MeanLatency() float64 {
	if w.Completions == 0 {
		return 0
	}
	return w.LatencySum / float64(w.Completions)
}

// sampleBlock is the size of one exact-mode latency block.
const sampleBlock = 8192

// Recorder accumulates the metrics of one task run. Completion counts a
// finished request; Sample records its latency, once, with a small tag
// naming the group it belongs to (a tenant, a serving node — the
// caller's numbering), so one store answers for the whole population
// and for every group (GroupLatency). In the default exact mode it keeps
// every sample and its tag, in insertion order, in fixed-size blocks
// that are never copied: only the first block grows by append (so a
// short stream allocates no more than a flat slice would), later blocks
// are allocated at full size, and Reset keeps them all for the next
// stream. In sketch mode (UseSketch) samples stream into a fixed-size
// sketch for the whole population and one per group instead, making
// recorder memory O(1) in completions. Either way a stream keeps no
// per-group record until its first nonzero tag: before it, every
// sample is tag 0's and the whole population is tag 0's record.
type Recorder struct {
	arrivals    int64
	completions int64
	rejections  int64
	stages      int64

	firstArrival   sim.Time
	lastCompletion sim.Time
	haveArrival    bool

	// window, when positive, enables the sliding-interval series: every
	// arrival, completion, and rejection is also bucketed into
	// fixed-width windows offset from the stream's first event.
	window     time.Duration
	origin     sim.Time
	haveOrigin bool
	windows    []Window

	// sampled counts the stream's latency samples. In exact mode the
	// i-th, in seconds, lands in samples block i/sampleBlock and, once
	// tagged, its tag at the same place in tags; both stay empty in
	// sketch mode, where sketch holds the whole population and, once
	// tagged, groups[t] the samples tagged t. tagged reports that a
	// nonzero tag has arrived this stream; until then no tag block is
	// written and no group sketch fed.
	sampled int64
	samples [][]float64
	tags    [][]uint16
	sketch  *stats.Sketch
	groups  []*stats.Sketch
	tagged  bool

	// flat is the exact summaries' scratch copy of the samples, kept
	// across streams.
	flat []float64

	// schedWall is real wall-clock time spent inside the timed
	// scheduling decisions, schedTimed counts them, and schedOps counts
	// every decision. The simulation clock never advances during
	// scheduling — the paper measures its cost on the real CPU (Figure
	// 19) and so do we.
	schedWall  time.Duration
	schedTimed int64
	schedOps   int64
}

// NewRecorder returns an empty recorder.
func NewRecorder() *Recorder { return &Recorder{} }

// Reset zeroes the recorder for another stream while keeping the sample
// blocks and sketches, so warm-restarted serving streams stop
// reallocating their latency records.
func (r *Recorder) Reset() {
	r.arrivals, r.completions, r.rejections, r.stages = 0, 0, 0, 0
	r.firstArrival, r.lastCompletion = 0, 0
	r.haveArrival = false
	r.haveOrigin = false
	r.windows = r.windows[:0]
	r.sampled = 0
	r.tagged = false
	for i := range r.samples {
		r.samples[i] = r.samples[i][:0]
	}
	for i := range r.tags {
		r.tags[i] = r.tags[i][:0]
	}
	if r.sketch != nil {
		r.sketch.Reset()
	}
	for _, g := range r.groups {
		if g != nil {
			g.Reset()
		}
	}
	r.schedWall, r.schedTimed, r.schedOps = 0, 0, 0
}

// UseSketch switches the recorder to streaming-quantile mode: latency
// samples feed a fixed-size mergeable stats.Sketch for the whole
// population and one per tag instead of the store-every-sample blocks,
// so memory is O(1) in completions and the summaries carry the sketch's
// documented accuracy bound. The sketches of tags below groups are
// built now; a higher tag's at its first sample, and tag 0's, if not
// built now, at the stream's first nonzero tag. The switch is one-way
// and survives Reset; enable it before the first sample.
func (r *Recorder) UseSketch(groups int) {
	if r.sketch == nil {
		r.sketch = stats.NewSketch()
	}
	for t := range groups {
		r.group(uint16(t))
	}
}

// group returns tag t's sketch, building it on first use.
func (r *Recorder) group(t uint16) *stats.Sketch {
	for int(t) >= len(r.groups) {
		r.groups = append(r.groups, nil)
	}
	if r.groups[t] == nil {
		r.groups[t] = stats.NewSketch()
	}
	return r.groups[t]
}

// Sketch returns the recorder's latency sketch (nil unless UseSketch
// was called). Callers must not modify it; clone before mutating.
func (r *Recorder) Sketch() *stats.Sketch { return r.sketch }

// SetWindow enables (d > 0) or disables (d <= 0) the windowed series.
// The setting survives Reset, so warm-restarted streams keep their
// windows; changing it mid-stream is not supported.
func (r *Recorder) SetWindow(d time.Duration) {
	if d <= 0 {
		d = 0
	}
	r.window = d
}

// Windows returns the stream's windowed series in time order, including
// interior windows with no events. Callers must not modify the returned
// slice, and must not hold it across a Reset.
func (r *Recorder) Windows() []Window { return r.windows }

// bucket returns the window covering virtual time t, growing the series
// as needed; nil when the windowed series is disabled. The first
// recorded event anchors the series origin.
func (r *Recorder) bucket(t sim.Time) *Window {
	if r.window <= 0 {
		return nil
	}
	if !r.haveOrigin {
		r.origin, r.haveOrigin = t, true
	}
	idx := int(t.Sub(r.origin) / r.window)
	for len(r.windows) <= idx {
		r.windows = append(r.windows, Window{Start: time.Duration(len(r.windows)) * r.window})
	}
	return &r.windows[idx]
}

// Arrival records a request entering the system at virtual time t.
func (r *Recorder) Arrival(t sim.Time) {
	if !r.haveArrival || t < r.firstArrival {
		r.firstArrival = t
		r.haveArrival = true
	}
	r.arrivals++
	if w := r.bucket(t); w != nil {
		w.Arrivals++
	}
}

// Rejection records admission control rejecting a request at virtual
// time t. Rejected requests touch nothing else in the recorder: they
// are not arrivals, do not complete, and carry no latency sample.
func (r *Recorder) Rejection(t sim.Time) {
	r.rejections++
	if w := r.bucket(t); w != nil {
		w.Rejections++
	}
}

// Rejections reports the number of requests admission control rejected.
func (r *Recorder) Rejections() int64 { return r.rejections }

// StageDone records the completion of one pipeline stage.
func (r *Recorder) StageDone() { r.stages++ }

// Completion counts a request finishing its final stage at virtual time
// t, having arrived at the given time: the completion count, the
// makespan and the windowed series. Its latency sample is Sample's, and
// is recorded only by whoever resolves the request.
func (r *Recorder) Completion(arrival, t sim.Time) {
	r.completions++
	if t > r.lastCompletion {
		r.lastCompletion = t
	}
	if w := r.bucket(t); w != nil {
		w.Completions++
		w.LatencySum += t.Sub(arrival).Seconds()
	}
}

// Sample records one request's latency lat, in seconds, in the group
// tag names. In sketch mode one bucket key feeds both the
// whole-population sketch and, once tagged, the group's; in exact mode
// the sample and, once tagged, its tag are appended to the current
// blocks, which are made if no earlier stream did.
func (r *Recorder) Sample(lat float64, tag uint16) {
	r.sampled++
	if !r.tagged && tag != 0 {
		r.startTags()
	}
	if r.sketch != nil {
		if !r.tagged {
			r.sketch.Add(lat)
			return
		}
		stats.Observe(lat, r.sketch, r.group(tag))
		return
	}
	i := int(r.sampled-1) / sampleBlock
	if i == len(r.samples) {
		r.samples = append(r.samples, block[float64](i))
	}
	r.samples[i] = append(r.samples[i], lat)
	if r.tagged {
		if i == len(r.tags) {
			r.tags = append(r.tags, block[uint16](i))
		}
		r.tags[i] = append(r.tags[i], tag)
	}
}

// startTags starts the group records at the stream's first nonzero
// tag. Every sample before it was tag 0's: in sketch mode tag 0's
// sketch, empty since it was built or last Reset, takes a copy of the
// whole population's (integer buckets, and the same float sums made in
// the same order); in exact mode the samples recorded so far get zero
// tags.
func (r *Recorder) startTags() {
	r.tagged = true
	if r.sketch != nil {
		r.group(0).Merge(r.sketch)
		return
	}
	done := int(r.sampled - 1)
	for i := 0; i*sampleBlock < done; i++ {
		if i == len(r.tags) {
			r.tags = append(r.tags, block[uint16](i))
		}
		n := min(done-i*sampleBlock, sampleBlock)
		r.tags[i] = slices.Grow(r.tags[i][:0], n)[:n]
		clear(r.tags[i])
	}
}

// block makes exact-mode block i: the first grows by append, later
// ones are made at full size.
func block[T any](i int) []T {
	if i == 0 {
		return nil
	}
	return make([]T, 0, sampleBlock)
}

// SchedOp records one timed scheduling decision that took duration d.
func (r *Recorder) SchedOp(d time.Duration) {
	r.schedWall += d
	r.schedTimed++
	r.schedOps++
}

// SchedUntimed records one scheduling decision whose cost was not timed.
func (r *Recorder) SchedUntimed() { r.schedOps++ }

// Arrivals reports the number of requests that entered.
func (r *Recorder) Arrivals() int64 { return r.arrivals }

// Completions reports the number of requests that fully completed.
func (r *Recorder) Completions() int64 { return r.completions }

// Stages reports the number of completed pipeline stages.
func (r *Recorder) Stages() int64 { return r.stages }

// Makespan reports the virtual time from first arrival to last
// completion.
func (r *Recorder) Makespan() time.Duration {
	if r.completions == 0 {
		return 0
	}
	return r.lastCompletion.Sub(r.firstArrival)
}

// Throughput reports completed requests per second of virtual time —
// the paper's primary performance metric.
func (r *Recorder) Throughput() float64 {
	mk := r.Makespan().Seconds()
	if mk <= 0 {
		return 0
	}
	return float64(r.completions) / mk
}

// LatencySummary summarizes the sampled per-request latencies in
// seconds, including the p50/p95/p99 tail percentiles serving reports
// quote. Exact in the default mode; within the sketch's accuracy bound
// in sketch mode (N, Mean, Std, Min, Max stay exact either way). The
// exact mode gathers the blocks into the recorder's flat scratch copy,
// in insertion order, and summarizes that copy in place.
func (r *Recorder) LatencySummary() stats.Summary {
	if r.sketch != nil {
		return r.sketch.Summary()
	}
	flat := slices.Grow(r.flat[:0], int(r.sampled))
	for _, b := range r.samples {
		flat = append(flat, b...)
	}
	r.flat = flat
	return stats.SummarizeInPlace(flat)
}

// SLOAttainment reports the fraction of sampled requests whose
// end-to-end latency met the objective. It returns 0 when nothing was
// sampled and 1 under a non-positive (disabled) objective — an
// unconstrained run trivially attains its SLO.
func (r *Recorder) SLOAttainment(slo time.Duration) float64 {
	limit := slo.Seconds()
	if r.sketch != nil {
		return r.sketch.Attainment(limit)
	}
	if limit <= 0 {
		return 1
	}
	if r.sampled == 0 {
		return 0
	}
	met := 0
	for _, b := range r.samples {
		for _, x := range b {
			if x <= limit {
				met++
			}
		}
	}
	return float64(met) / float64(r.sampled)
}

// Latency is one population's latency view: its summary and the
// fraction of it that met an objective.
type Latency struct {
	Summary       stats.Summary
	SLOAttainment float64
}

// GroupLatency folds the stream's latency samples into classes: a
// sample tagged t belongs to class classOf[t] (class t when classOf is
// nil), classOf must cover every tag recorded or built by UseSketch,
// and out[k] summarizes class k and scores it against slo(k). In exact
// mode a class's view is, bit for bit, what stats.SummarizeInPlace and
// stats.Attainment give over its samples in recording order: the
// samples are scattered into the recorder's one flat scratch copy,
// partitioned by class with recording order kept inside each class, and
// each segment is summarized in place. Sketch mode merges the class's
// group sketches (one tag's class reads its sketch exactly). Before the
// stream's first nonzero tag every sample is tag 0's, so tag 0's class
// reads the whole population and every other class is empty.
func (r *Recorder) GroupLatency(classes int, classOf []int, slo func(class int) time.Duration) []Latency {
	class := func(t uint16) int {
		if classOf == nil {
			return int(t)
		}
		return classOf[t]
	}
	out := make([]Latency, classes)
	if r.sketch != nil {
		merged := stats.NewSketch()
		for k := range out {
			merged.Reset()
			if !r.tagged && r.sampled > 0 && class(0) == k {
				merged.Merge(r.sketch)
			}
			for t, g := range r.groups {
				if g != nil && class(uint16(t)) == k {
					merged.Merge(g)
				}
			}
			out[k] = Latency{merged.Summary(), merged.Attainment(slo(k).Seconds())}
		}
		return out
	}
	// bounds[k]..bounds[k+1] is class k's segment of flat; next[k] is
	// where its next sample goes.
	bounds := make([]int, classes+1)
	if r.tagged {
		for _, tb := range r.tags {
			for _, t := range tb {
				bounds[class(t)+1]++
			}
		}
	} else if r.sampled > 0 {
		bounds[class(0)+1] = int(r.sampled)
	}
	for k := range classes {
		bounds[k+1] += bounds[k]
	}
	next := append([]int(nil), bounds[:classes]...)
	flat := slices.Grow(r.flat[:0], int(r.sampled))[:r.sampled]
	for i, b := range r.samples {
		for j, x := range b {
			var t uint16
			if r.tagged {
				t = r.tags[i][j]
			}
			k := class(t)
			flat[next[k]] = x
			next[k]++
		}
	}
	r.flat = flat
	for k := range out {
		seg := flat[bounds[k]:bounds[k+1]]
		met := stats.Attainment(seg, slo(k).Seconds())
		out[k] = Latency{stats.SummarizeInPlace(seg), met}
	}
	return out
}

// SchedPerOp reports the mean wall-clock cost of one scheduling
// decision, over the timed ones.
func (r *Recorder) SchedPerOp() time.Duration {
	if r.schedTimed == 0 {
		return 0
	}
	return r.schedWall / time.Duration(r.schedTimed)
}

// SchedOps reports the number of scheduling decisions.
func (r *Recorder) SchedOps() int64 { return r.schedOps }
