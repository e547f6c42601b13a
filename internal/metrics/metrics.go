// Package metrics collects the measurements the paper's evaluation
// reports: throughput (images per second, the primary metric of §5.1),
// expert switch counts (Figure 14), per-request latency, and the
// real-wall-clock scheduling overhead of Figure 19.
package metrics

import (
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

// Recorder accumulates the metrics of one task run. In the default exact
// mode it keeps every latency sample, in insertion order, in fixed-size
// blocks that are never copied: only the first block grows by append (so
// a short stream allocates no more than a flat slice would), later blocks
// are allocated at full size, and Reset keeps them all for the next
// stream. In sketch mode (UseSketch) samples stream into a fixed-size
// sketch instead, making recorder memory O(1) in completions.
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

	// samples holds the exact per-request latencies in seconds: the
	// i-th completion of a stream lands in block i/sampleBlock. It stays
	// empty in sketch mode.
	samples [][]float64
	sketch  *stats.Sketch

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
// blocks, so warm-restarted serving streams stop reallocating their
// latency samples.
func (r *Recorder) Reset() {
	r.arrivals, r.completions, r.rejections, r.stages = 0, 0, 0, 0
	r.firstArrival, r.lastCompletion = 0, 0
	r.haveArrival = false
	r.haveOrigin = false
	r.windows = r.windows[:0]
	for i := range r.samples {
		r.samples[i] = r.samples[i][:0]
	}
	if r.sketch != nil {
		r.sketch.Reset()
	}
	r.schedWall, r.schedTimed, r.schedOps = 0, 0, 0
}

// UseSketch switches the recorder to streaming-quantile mode: latency
// samples feed a fixed-size mergeable stats.Sketch instead of the
// store-every-sample buffer, so memory is O(1) in completions and
// LatencySummary/SLOAttainment carry the sketch's documented accuracy
// bound. The switch is one-way and survives Reset; enable it before the
// first sample.
func (r *Recorder) UseSketch() {
	if r.sketch == nil {
		r.sketch = stats.NewSketch()
	}
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

// Window reports the configured window width (0 when disabled).
func (r *Recorder) Window() time.Duration { return r.window }

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

// Completion records a request finishing its final stage at virtual time
// t, having arrived at the given time.
func (r *Recorder) Completion(arrival, t sim.Time) {
	r.completions++
	if t > r.lastCompletion {
		r.lastCompletion = t
	}
	lat := t.Sub(arrival).Seconds()
	if r.sketch != nil {
		r.sketch.Add(lat)
	} else {
		r.addSample(lat)
	}
	if w := r.bucket(t); w != nil {
		w.Completions++
		w.LatencySum += lat
	}
}

// addSample appends the stream's completions-th latency sample to its
// block, making the block if no earlier stream did.
func (r *Recorder) addSample(lat float64) {
	i := int(r.completions-1) / sampleBlock
	if i == len(r.samples) {
		var b []float64
		if i > 0 {
			b = make([]float64, 0, sampleBlock)
		}
		r.samples = append(r.samples, b)
	}
	r.samples[i] = append(r.samples[i], lat)
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

// LatencySummary summarizes per-request end-to-end latency in seconds,
// including the p50/p95/p99 tail percentiles serving reports quote.
// Exact in the default mode; within the sketch's accuracy bound in
// sketch mode (N, Mean, Std, Min, Max stay exact either way). The exact
// mode gathers the blocks into one flat copy, in insertion order, and
// summarizes that copy in place.
func (r *Recorder) LatencySummary() stats.Summary {
	if r.sketch != nil {
		return r.sketch.Summary()
	}
	flat := make([]float64, 0, r.completions)
	for _, b := range r.samples {
		flat = append(flat, b...)
	}
	return stats.SummarizeInPlace(flat)
}

// SLOAttainment reports the fraction of completed requests whose
// end-to-end latency met the objective. It returns 0 when nothing
// completed and 1 under a non-positive (disabled) objective — an
// unconstrained run trivially attains its SLO.
func (r *Recorder) SLOAttainment(slo time.Duration) float64 {
	limit := slo.Seconds()
	if r.sketch != nil {
		return r.sketch.Attainment(limit)
	}
	if limit <= 0 {
		return 1
	}
	if r.completions == 0 {
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
	return float64(met) / float64(r.completions)
}

// SchedPerOp reports the mean wall-clock cost of one scheduling
// decision, over the timed ones.
func (r *Recorder) SchedPerOp() time.Duration {
	if r.schedTimed == 0 {
		return 0
	}
	return r.schedWall / time.Duration(r.schedTimed)
}

// SchedWall reports the wall-clock time of the timed decisions.
func (r *Recorder) SchedWall() time.Duration { return r.schedWall }

// SchedOps reports the number of scheduling decisions.
func (r *Recorder) SchedOps() int64 { return r.schedOps }
