package metrics

import (
	"math/rand"
	"slices"
	"testing"
	"time"

	"repro/internal/sim"
	"repro/internal/stats"
)

// complete records a completion and its latency sample, tagged tag —
// what a request's resolver does.
func complete(r *Recorder, arrival, done sim.Time, tag uint16) {
	r.Completion(arrival, done)
	r.Sample(done.Sub(arrival).Seconds(), tag)
}

// samplesOf returns the recorder's exact samples in insertion order.
func samplesOf(r *Recorder) []float64 {
	var out []float64
	for _, b := range r.samples {
		out = append(out, b...)
	}
	return out
}

// sampleCap sums the capacity of the recorder's sample blocks.
func sampleCap(r *Recorder) int {
	n := 0
	for _, b := range r.samples {
		n += cap(b)
	}
	return n
}

func TestThroughputAndMakespan(t *testing.T) {
	r := NewRecorder()
	r.Arrival(sim.Time(time.Second))
	r.Arrival(sim.Time(2 * time.Second))
	complete(r, sim.Time(time.Second), sim.Time(3*time.Second), 0)
	complete(r, sim.Time(2*time.Second), sim.Time(5*time.Second), 0)
	if r.Arrivals() != 2 || r.Completions() != 2 {
		t.Fatalf("arrivals/completions = %d/%d", r.Arrivals(), r.Completions())
	}
	if r.Makespan() != 4*time.Second {
		t.Errorf("makespan = %v, want 4s", r.Makespan())
	}
	if got := r.Throughput(); got != 0.5 {
		t.Errorf("throughput = %v, want 0.5", got)
	}
	lats := samplesOf(r)
	if len(lats) != 2 || lats[0] != 2 || lats[1] != 3 {
		t.Errorf("latencies = %v, want [2 3]", lats)
	}
}

func TestEmptyRecorder(t *testing.T) {
	r := NewRecorder()
	if r.Throughput() != 0 || r.Makespan() != 0 || r.SchedPerOp() != 0 {
		t.Error("empty recorder should report zeros")
	}
}

func TestFirstArrivalTracksMinimum(t *testing.T) {
	r := NewRecorder()
	r.Arrival(sim.Time(5 * time.Second))
	r.Arrival(sim.Time(2 * time.Second))
	r.Completion(sim.Time(2*time.Second), sim.Time(6*time.Second))
	if r.Makespan() != 4*time.Second {
		t.Errorf("makespan = %v, want 4s (from earliest arrival)", r.Makespan())
	}
}

func TestSchedOps(t *testing.T) {
	r := NewRecorder()
	r.SchedOp(2 * time.Microsecond)
	r.SchedOp(4 * time.Microsecond)
	if r.SchedOps() != 2 || r.SchedWall() != 6*time.Microsecond {
		t.Errorf("ops/wall = %d/%v", r.SchedOps(), r.SchedWall())
	}
	if r.SchedPerOp() != 3*time.Microsecond {
		t.Errorf("per-op = %v, want 3µs", r.SchedPerOp())
	}
}

func TestStageCounter(t *testing.T) {
	r := NewRecorder()
	r.StageDone()
	r.StageDone()
	if r.Stages() != 2 {
		t.Errorf("stages = %d, want 2", r.Stages())
	}
}

func TestLatencySummaryPercentiles(t *testing.T) {
	r := NewRecorder()
	// 100 completions at 10ms, 20ms, ..., 1000ms.
	for i := 1; i <= 100; i++ {
		arr := sim.Time(0)
		r.Arrival(arr)
		complete(r, arr, arr.Add(time.Duration(i)*10*time.Millisecond), 0)
	}
	s := r.LatencySummary()
	if s.N != 100 {
		t.Fatalf("N = %d, want 100", s.N)
	}
	if s.P50 > s.P95 || s.P95 > s.P99 {
		t.Errorf("percentiles not monotone: %v %v %v", s.P50, s.P95, s.P99)
	}
	if s.P50 < 0.49 || s.P50 > 0.52 {
		t.Errorf("p50 = %v, want ~0.5", s.P50)
	}
	if s.P99 < 0.98 || s.P99 > 1.0 {
		t.Errorf("p99 = %v, want ~0.99", s.P99)
	}
}

func TestSLOAttainment(t *testing.T) {
	r := NewRecorder()
	for i := 1; i <= 10; i++ {
		arr := sim.Time(0)
		r.Arrival(arr)
		complete(r, arr, arr.Add(time.Duration(i)*100*time.Millisecond), 0)
	}
	// Latencies are 0.1s..1.0s; an SLO of 0.5s admits exactly half.
	if got := r.SLOAttainment(500 * time.Millisecond); got != 0.5 {
		t.Errorf("attainment = %v, want 0.5", got)
	}
	if got := r.SLOAttainment(time.Hour); got != 1 {
		t.Errorf("lax attainment = %v, want 1", got)
	}
	if got := r.SLOAttainment(time.Millisecond); got != 0 {
		t.Errorf("strict attainment = %v, want 0", got)
	}
	// Disabled objective: trivially attained.
	if got := r.SLOAttainment(0); got != 1 {
		t.Errorf("disabled attainment = %v, want 1", got)
	}
	// No completions under a real objective: nothing attained.
	if got := NewRecorder().SLOAttainment(time.Second); got != 0 {
		t.Errorf("empty attainment = %v, want 0", got)
	}
}

// TestResetKeepsSampleCapacity pins the warm-restart path: Reset must
// zero every statistic but keep the latency blocks' capacity so
// consecutive streams stop reallocating samples. The stream spans more
// than one block, so both the appended first block and the full-size
// later ones are kept.
func TestResetKeepsSampleCapacity(t *testing.T) {
	const n = sampleBlock + 100
	r := NewRecorder()
	for i := 0; i < n; i++ {
		at := sim.Time(i) * sim.Time(time.Millisecond)
		r.Arrival(at)
		r.StageDone()
		complete(r, at, at.Add(50*time.Millisecond), uint16(i%3))
	}
	r.SchedOp(3 * time.Microsecond)
	grown := sampleCap(r)
	if grown < n || len(r.samples) != 2 || len(r.tags) != 2 || cap(r.tags[1]) != sampleBlock {
		t.Fatalf("latency blocks = %d with cap %d (%d tag blocks), want 2 with cap >= %d", len(r.samples), grown, len(r.tags), n)
	}
	r.Reset()
	if r.Arrivals() != 0 || r.Completions() != 0 || r.Stages() != 0 ||
		r.SchedOps() != 0 || r.SchedWall() != 0 || r.Makespan() != 0 {
		t.Errorf("Reset left counters: %+v", r)
	}
	if got := len(samplesOf(r)); got != 0 || len(r.tags[0])+len(r.tags[1]) != 0 {
		t.Errorf("Reset left %d latency samples and %d tags", got, len(r.tags[0])+len(r.tags[1]))
	}
	if got := sampleCap(r); got != grown {
		t.Errorf("Reset dropped sample capacity: %d -> %d", grown, got)
	}
	// A second identical stream must not allocate new sample storage.
	if allocs := testing.AllocsPerRun(5, func() {
		for i := 0; i < n; i++ {
			at := sim.Time(i) * sim.Time(time.Millisecond)
			r.Arrival(at)
			complete(r, at, at.Add(50*time.Millisecond), uint16(i%3))
		}
		r.Reset()
	}); allocs > 0 {
		t.Errorf("warm stream recording allocated %.1f objects/op, want 0", allocs)
	}
	// And the recorder still records correctly after Reset.
	r.Arrival(0)
	complete(r, 0, sim.Time(time.Second), 0)
	if got := r.LatencySummary(); got.N != 1 || got.Mean != 1 {
		t.Errorf("post-Reset summary = %+v", got)
	}
}

// TestSampleBlocksMatchFlat: the block store's summary and attainment
// are bit-identical to stats.Summarize and stats.Attainment over the
// same samples as one flat slice, at every length around the block
// boundaries, on a fresh recorder and on one whose Reset kept more
// blocks than the stream fills.
func TestSampleBlocksMatchFlat(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	warm := NewRecorder()
	for i := 0; i < 5*sampleBlock; i++ {
		complete(warm, 0, sim.Time(time.Second), 0)
	}
	for _, pass := range []string{"fresh", "reset"} {
		for _, n := range []int{0, 1, sampleBlock - 1, sampleBlock, sampleBlock + 1, 3*sampleBlock + 7} {
			r := NewRecorder()
			if pass == "reset" {
				r = warm
				r.Reset()
			}
			flat := make([]float64, 0, n)
			for i := 0; i < n; i++ {
				// Latencies spread over three decades, so the sum's
				// rounding depends on its order.
				lat := time.Duration(rng.ExpFloat64() * float64(rng.Intn(1000)+1) * float64(time.Millisecond))
				at := sim.Time(i) * sim.Time(time.Millisecond)
				r.Arrival(at)
				complete(r, at, at.Add(lat), 0)
				flat = append(flat, at.Add(lat).Sub(at).Seconds())
			}
			if got, want := r.LatencySummary(), stats.SummarizeInPlace(slices.Clone(flat)); got != want {
				t.Errorf("%s n=%d: summary %+v, want %+v", pass, n, got, want)
			}
			for _, slo := range []time.Duration{0, time.Millisecond, 100 * time.Millisecond, time.Second} {
				if got, want := r.SLOAttainment(slo), stats.Attainment(flat, slo.Seconds()); got != want {
					t.Errorf("%s n=%d slo=%v: attainment %v, want %v", pass, n, slo, got, want)
				}
			}
		}
	}
}

// TestResetKeepsWindowCapacity pins the windowed-series analogue: a
// warm restart with windows enabled must reuse the window buffer, so
// re-recording an identical windowed stream performs zero allocations.
func TestResetKeepsWindowCapacity(t *testing.T) {
	r := NewRecorder()
	r.SetWindow(10 * time.Millisecond)
	record := func() {
		for i := 0; i < 200; i++ {
			at := sim.Time(i) * sim.Time(time.Millisecond)
			r.Arrival(at)
			r.Completion(at, at.Add(5*time.Millisecond))
		}
	}
	record()
	if len(r.Windows()) < 20 {
		t.Fatalf("windowed series has %d windows, want >= 20", len(r.Windows()))
	}
	grown := cap(r.windows)
	r.Reset()
	if len(r.Windows()) != 0 {
		t.Fatalf("Reset left %d windows", len(r.Windows()))
	}
	if cap(r.windows) != grown {
		t.Fatalf("Reset dropped window capacity: %d -> %d", grown, cap(r.windows))
	}
	if r.Window() != 10*time.Millisecond {
		t.Fatalf("Reset dropped window setting: %v", r.Window())
	}
	if allocs := testing.AllocsPerRun(5, func() {
		record()
		r.Reset()
	}); allocs > 0 {
		t.Errorf("warm windowed stream allocated %.1f objects/op, want 0", allocs)
	}
}

// TestRecorderSketchMode: with UseSketch enabled the recorder keeps no
// per-sample storage, reports summaries and attainment through the
// sketch, and records allocation-free no matter how many completions
// stream through — the O(1)-in-completions property.
func TestRecorderSketchMode(t *testing.T) {
	exact, sk := NewRecorder(), NewRecorder()
	sk.UseSketch(1)
	if sk.Sketch() == nil {
		t.Fatal("UseSketch did not install a sketch")
	}
	for i := 1; i <= 1000; i++ {
		at := sim.Time(i) * sim.Time(time.Millisecond)
		done := at.Add(time.Duration(i) * time.Millisecond)
		exact.Arrival(at)
		complete(exact, at, done, 0)
		sk.Arrival(at)
		complete(sk, at, done, 0)
	}
	if len(sk.samples) != 0 || len(sk.tags) != 0 {
		t.Fatalf("sketch mode retained %d sample blocks, want none", len(sk.samples))
	}
	es, ss := exact.LatencySummary(), sk.LatencySummary()
	if ss.N != es.N || ss.Min != es.Min || ss.Max != es.Max {
		t.Fatalf("sketch N/Min/Max = %d/%v/%v, want exact %d/%v/%v",
			ss.N, ss.Min, ss.Max, es.N, es.Min, es.Max)
	}
	alpha := sk.Sketch().RelativeAccuracy()
	for _, pair := range [][2]float64{{ss.P50, es.P50}, {ss.P95, es.P95}, {ss.P99, es.P99}} {
		if pair[0] < pair[1]*(1-2*alpha) || pair[0] > pair[1]*(1+2*alpha) {
			t.Errorf("sketch percentile %v outside bound of exact %v", pair[0], pair[1])
		}
	}
	if got, want := sk.SLOAttainment(time.Hour), 1.0; got != want {
		t.Errorf("lax attainment = %v, want %v", got, want)
	}
	// The sketch survives Reset and stays allocation-free while warm.
	sk.Reset()
	if sk.Sketch() == nil || sk.Sketch().Count() != 0 {
		t.Fatal("Reset must empty but keep the sketch")
	}
	if allocs := testing.AllocsPerRun(5, func() {
		for i := 1; i <= 1000; i++ {
			at := sim.Time(i) * sim.Time(time.Millisecond)
			sk.Arrival(at)
			complete(sk, at, at.Add(time.Duration(i)*time.Millisecond), 0)
		}
		sk.Reset()
	}); allocs > 0 {
		t.Errorf("warm sketch stream allocated %.1f objects/op, want 0", allocs)
	}
}
