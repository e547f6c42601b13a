package metrics

import (
	"math/rand"
	"slices"
	"testing"
	"time"

	"repro/internal/sim"
	"repro/internal/stats"
)

// TestCompletionKeepsNoSample: Completion alone counts a request and
// feeds the windows but stores no latency — that is Sample's, recorded
// once by whoever resolves the request.
func TestCompletionKeepsNoSample(t *testing.T) {
	for _, sketch := range []bool{false, true} {
		r := NewRecorder()
		if sketch {
			r.UseSketch(2)
		}
		r.SetWindow(time.Second)
		r.Arrival(0)
		r.Completion(0, sim.Time(time.Second))
		if r.Completions() != 1 || r.Windows()[1].Completions != 1 || r.Windows()[1].LatencySum != 1 {
			t.Errorf("sketch=%v: completion not counted: %d, %+v", sketch, r.Completions(), r.Windows())
		}
		if got := r.LatencySummary(); got.N != 0 || len(r.samples) != 0 {
			t.Errorf("sketch=%v: Completion stored a sample: %+v", sketch, got)
		}
		if sketch && r.Sketch().Count() != 0 {
			t.Errorf("Completion fed the sketch")
		}
	}
}

// groupedStream records n samples spread over three decades, tagged
// with tags drawn from tagOf, and returns them flat in recording order
// with their tags.
func groupedStream(r *Recorder, rng *rand.Rand, n int, tagOf func(i int) uint16) ([]float64, []uint16) {
	flat, tags := make([]float64, 0, n), make([]uint16, 0, n)
	for i := 0; i < n; i++ {
		// Latencies spread over three decades, so every sum's rounding
		// depends on its order.
		lat := time.Duration(rng.ExpFloat64() * float64(rng.Intn(1000)+1) * float64(time.Millisecond))
		at := sim.Time(i) * sim.Time(time.Millisecond)
		tag := tagOf(i)
		r.Arrival(at)
		complete(r, at, at.Add(lat), tag)
		flat = append(flat, at.Add(lat).Sub(at).Seconds())
		tags = append(tags, tag)
	}
	return flat, tags
}

// TestGroupLatencyMatchesFlat: per-class summaries and attainment are
// bit-identical to stats.Summarize and stats.Attainment over each
// class's samples as one flat slice in recording order, at every length
// around the block boundaries, with an empty class, a single class, two
// tags folded into one class, and streams whose first nonzero tag
// arrives mid-block (before it no tags are kept; the longest streams
// reach it, the shorter ones stay all tag 0). The whole-population
// summary, read after the fold reused the same scratch copy, stays
// bit-identical too.
func TestGroupLatencyMatchesFlat(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	slos := []time.Duration{0, time.Millisecond, 100 * time.Millisecond, time.Second}
	cases := []struct {
		name    string
		classes int
		classOf []int
		tagOf   func(i int) uint16
	}{
		// Four classes, class 2 never sampled.
		{"spread", 4, nil, func(i int) uint16 { return []uint16{0, 1, 3}[rng.Intn(3)] }},
		{"single", 1, nil, func(int) uint16 { return 0 }},
		// Tags 0 and 2 fold into class 1, tag 1 into class 0.
		{"folded", 2, []int{1, 0, 1}, func(int) uint16 { return uint16(rng.Intn(3)) }},
		// First nonzero tag mid-way through the second block.
		{"late", 3, nil, lateTags(rng, sampleBlock+sampleBlock/2)},
		// The same mid-way through the first block, with tag 0 folded
		// into class 1.
		{"late-folded", 2, []int{1, 0, 1}, lateTags(rng, sampleBlock/2)},
	}
	for _, tc := range cases {
		for _, n := range []int{0, 1, sampleBlock - 1, sampleBlock, sampleBlock + 1, 20000} {
			r := NewRecorder()
			flat, tags := groupedStream(r, rng, n, tc.tagOf)
			want := make([][]float64, tc.classes)
			for i, x := range flat {
				k := int(tags[i])
				if tc.classOf != nil {
					k = tc.classOf[k]
				}
				want[k] = append(want[k], x)
			}
			for _, slo := range slos {
				got := r.GroupLatency(tc.classes, tc.classOf, func(int) time.Duration { return slo })
				if len(got) != tc.classes {
					t.Fatalf("%s n=%d: %d classes, want %d", tc.name, n, len(got), tc.classes)
				}
				for k, g := range got {
					if w := stats.SummarizeInPlace(slices.Clone(want[k])); g.Summary != w {
						t.Errorf("%s n=%d class %d: summary %+v, want %+v", tc.name, n, k, g.Summary, w)
					}
					if w := stats.Attainment(want[k], slo.Seconds()); g.SLOAttainment != w {
						t.Errorf("%s n=%d class %d slo=%v: attainment %v, want %v", tc.name, n, k, slo, g.SLOAttainment, w)
					}
				}
			}
			if got, w := r.LatencySummary(), stats.SummarizeInPlace(slices.Clone(flat)); got != w {
				t.Errorf("%s n=%d: whole summary %+v, want %+v", tc.name, n, got, w)
			}
		}
	}
}

// lateTags tags the first from samples 0, then draws tags 0..2.
func lateTags(rng *rand.Rand, from int) func(i int) uint16 {
	return func(i int) uint16 {
		if i < from {
			return 0
		}
		return uint16(rng.Intn(3))
	}
}

// TestGroupLatencySlosPerClass: each class is scored against its own
// objective.
func TestGroupLatencySlosPerClass(t *testing.T) {
	for _, sketch := range []bool{false, true} {
		r := NewRecorder()
		if sketch {
			r.UseSketch(0)
		}
		for i, lat := range []time.Duration{100, 300, 100, 300} {
			complete(r, 0, sim.Time(lat*time.Millisecond), uint16(i%2))
		}
		got := r.GroupLatency(2, []int{1, 0}, func(k int) time.Duration {
			return []time.Duration{200 * time.Millisecond, time.Second}[k]
		})
		// Class 0 holds the 300 ms samples (tag 1) against 200 ms, class
		// 1 the 100 ms ones (tag 0) against 1 s.
		if got[0].SLOAttainment != 0 || got[1].SLOAttainment != 1 || got[0].Summary.N != 2 || got[1].Summary.N != 2 {
			t.Errorf("sketch=%v: per-class attainment %+v", sketch, got)
		}
	}
}

// TestGroupSketchesMatchDirect: in sketch mode the whole-population
// sketch and each group's equal sketches fed the same samples directly
// — one bucket key per sample feeds both — and a class folds its tags'
// sketches. That holds when tags start at once and when the first
// nonzero tag arrives late, tag 0's sketch then starting as a copy of
// the whole population's; it holds again on a warm restart.
func TestGroupSketchesMatchDirect(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	r := NewRecorder()
	r.UseSketch(2)
	for _, tagOf := range []func(int) uint16{
		func(int) uint16 { return uint16(rng.Intn(3)) },
		lateTags(rng, 5000),
		lateTags(rng, 12345),
	} {
		checkGroupSketches(t, r, rng, tagOf)
		r.Reset()
	}
}

func checkGroupSketches(t *testing.T, r *Recorder, rng *rand.Rand, tagOf func(int) uint16) {
	t.Helper()
	flat, tags := groupedStream(r, rng, 20000, tagOf)
	whole := stats.NewSketch()
	per := []*stats.Sketch{stats.NewSketch(), stats.NewSketch(), stats.NewSketch()}
	for i, x := range flat {
		whole.Add(x)
		per[tags[i]].Add(x)
	}
	if got, want := r.LatencySummary(), whole.Summary(); got != want {
		t.Errorf("whole summary %+v, want %+v", got, want)
	}
	got := r.GroupLatency(3, nil, func(int) time.Duration { return 500 * time.Millisecond })
	for k, g := range got {
		if want := per[k].Summary(); g.Summary != want {
			t.Errorf("group %d: summary %+v, want %+v", k, g.Summary, want)
		}
		if want := per[k].Attainment(0.5); g.SLOAttainment != want {
			t.Errorf("group %d: attainment %v, want %v", k, g.SLOAttainment, want)
		}
	}
	folded := r.GroupLatency(1, []int{0, 0, 0}, func(int) time.Duration { return 0 })
	if folded[0].Summary.N != len(flat) || folded[0].Summary.P99 != whole.Summary().P99 {
		t.Errorf("folded class %+v, want the whole population %+v", folded[0].Summary, whole.Summary())
	}
}

// TestTaggedSampleWarmAllocs: once a stream has grown the blocks (exact)
// or built the group sketches (sketch), a warm-restarted tagged stream
// records without allocating — also when its first nonzero tag arrives
// mid-block and the tags before it are backfilled.
func TestTaggedSampleWarmAllocs(t *testing.T) {
	for _, from := range []int{0, sampleBlock + sampleBlock/2} {
		for _, sketch := range []bool{false, true} {
			r := NewRecorder()
			if sketch {
				r.UseSketch(0)
			}
			stream := func() {
				for i := 0; i < 2*sampleBlock+5; i++ {
					at := sim.Time(i) * sim.Time(time.Millisecond)
					tag := uint16(i % 4)
					if i < from {
						tag = 0
					}
					r.Arrival(at)
					complete(r, at, at.Add(time.Duration(i%97)*time.Millisecond), tag)
				}
				r.Reset()
			}
			stream()
			if allocs := testing.AllocsPerRun(5, stream); allocs != 0 {
				t.Errorf("sketch=%v first tag at %d: warm tagged stream allocated %.1f objects/op, want 0", sketch, from, allocs)
			}
		}
	}
}

// TestUntaggedStreamKeepsNoTags: a stream whose samples are all tag 0
// makes no tag block (exact) and no group sketch (sketch), and its
// tag-0 class reads the whole population.
func TestUntaggedStreamKeepsNoTags(t *testing.T) {
	for _, sketch := range []bool{false, true} {
		r := NewRecorder()
		if sketch {
			r.UseSketch(0)
		}
		for i := 0; i < sampleBlock+7; i++ {
			complete(r, 0, sim.Time(i%50)*sim.Time(time.Millisecond), 0)
		}
		if len(r.tags) != 0 || len(r.groups) != 0 {
			t.Errorf("sketch=%v: untagged stream made %d tag blocks and %d group sketches", sketch, len(r.tags), len(r.groups))
		}
		got := r.GroupLatency(2, nil, func(int) time.Duration { return 20 * time.Millisecond })
		if whole := r.LatencySummary(); got[0].Summary != whole || got[1].Summary.N != 0 {
			t.Errorf("sketch=%v: tag-0 class %+v and class 1 %+v, want the whole %+v and nothing", sketch, got[0].Summary, got[1].Summary, whole)
		}
		if want := r.SLOAttainment(20 * time.Millisecond); got[0].SLOAttainment != want {
			t.Errorf("sketch=%v: tag-0 attainment %v, want %v", sketch, got[0].SLOAttainment, want)
		}
	}
}
