package stats

import (
	"math"
	"math/rand"
	"reflect"
	"slices"
	"testing"
)

var quantileGrid = []float64{0, 0.01, 0.05, 0.10, 0.25, 0.50, 0.75, 0.90, 0.95, 0.99, 0.999, 1}

// adversarialSamples returns named sample sets chosen to stress the
// sketch: bimodal (a large gap between modes), heavy-tail (orders of
// magnitude of spread), constant (zero spread), and uniform.
func adversarialSamples(t *testing.T) map[string][]float64 {
	t.Helper()
	rng := rand.New(rand.NewSource(7))
	sets := map[string][]float64{}

	bimodal := make([]float64, 0, 4000)
	for i := 0; i < 2000; i++ {
		bimodal = append(bimodal, 0.001+0.0001*rng.Float64())
	}
	for i := 0; i < 2000; i++ {
		bimodal = append(bimodal, 5.0+0.5*rng.Float64())
	}
	sets["bimodal"] = bimodal

	heavy := make([]float64, 0, 5000)
	for i := 0; i < 5000; i++ {
		// Pareto-like: x = 0.001 / u^1.2 spans ~5 decades.
		u := rng.Float64()
		if u < 1e-5 {
			u = 1e-5
		}
		heavy = append(heavy, 0.001/math.Pow(u, 1.2))
	}
	sets["heavy-tail"] = heavy

	constant := make([]float64, 3000)
	for i := range constant {
		constant[i] = 0.125
	}
	sets["constant"] = constant

	uniform := make([]float64, 0, 5000)
	for i := 0; i < 5000; i++ {
		uniform = append(uniform, 0.01+0.99*rng.Float64())
	}
	sets["uniform"] = uniform

	return sets
}

func sketchOf(xs []float64) *Sketch {
	s := NewSketch()
	for _, x := range xs {
		s.Add(x)
	}
	return s
}

// TestSketchAccuracyBound checks the documented bound on every
// adversarial distribution: Quantile(q) is within RelativeAccuracy of
// the true sample at the target closest rank. This is deliberately the
// rank-exact bound, not a comparison against the interpolated
// Percentile — at a bimodal gap the interpolated value falls between
// modes where no sample exists, and no histogram sketch can (or
// should) reproduce it.
func TestSketchAccuracyBound(t *testing.T) {
	for name, xs := range adversarialSamples(t) {
		s := sketchOf(xs)
		sorted := append([]float64(nil), xs...)
		slices.Sort(sorted)
		alpha := s.RelativeAccuracy()
		for _, q := range quantileGrid {
			rank := q * float64(len(sorted)-1)
			target := int(rank + 0.5)
			if target >= len(sorted) {
				target = len(sorted) - 1
			}
			truth := sorted[target]
			got := s.Quantile(q)
			lo := truth * (1 - alpha - 1e-9)
			hi := truth * (1 + alpha + 1e-9)
			if got < lo || got > hi {
				t.Errorf("%s: Quantile(%v) = %v, want within ±%v%% of rank-%d sample %v",
					name, q, got, 100*alpha, target, truth)
			}
		}
		if s.Min() != sorted[0] || s.Max() != sorted[len(sorted)-1] {
			t.Errorf("%s: min/max = %v/%v, want exact %v/%v",
				name, s.Min(), s.Max(), sorted[0], sorted[len(sorted)-1])
		}
	}
}

// TestSketchQuantileMonotonic: quantiles must be non-decreasing in q.
func TestSketchQuantileMonotonic(t *testing.T) {
	for name, xs := range adversarialSamples(t) {
		s := sketchOf(xs)
		prev := math.Inf(-1)
		for q := 0.0; q <= 1.0; q += 0.005 {
			v := s.Quantile(q)
			if v < prev {
				t.Fatalf("%s: Quantile(%v) = %v < previous %v", name, q, v, prev)
			}
			prev = v
		}
	}
}

// sketchFingerprint captures everything Merge promises to preserve
// exactly: count, min, max, and the quantile and attainment surfaces.
// Mean/Std are float sums and excluded (order-dependent in the ulps).
func sketchFingerprint(s *Sketch) []float64 {
	fp := []float64{float64(s.Count()), s.Min(), s.Max()}
	for _, q := range quantileGrid {
		fp = append(fp, s.Quantile(q))
	}
	for _, lim := range []float64{0.001, 0.01, 0.1, 0.5, 1, 10} {
		fp = append(fp, s.Attainment(lim))
	}
	return fp
}

func fingerprintsEqual(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestSketchMergeExact: sharding a sample across sketches and merging
// — in any order or grouping — must fingerprint identically to one
// sketch that saw every sample.
func TestSketchMergeExact(t *testing.T) {
	for name, xs := range adversarialSamples(t) {
		single := sketchOf(xs)
		want := sketchFingerprint(single)

		// Shard round-robin into 7 sketches.
		shards := make([]*Sketch, 7)
		for i := range shards {
			shards[i] = NewSketch()
		}
		for i, x := range xs {
			shards[i%len(shards)].Add(x)
		}

		// Order 1: left fold.
		m1 := NewSketch()
		for _, sh := range shards {
			m1.Merge(sh)
		}
		// Order 2: reverse fold.
		m2 := NewSketch()
		for i := len(shards) - 1; i >= 0; i-- {
			m2.Merge(shards[i])
		}
		// Order 3: pairwise tree ((0+1)+(2+3))+((4+5)+6), exercising
		// associativity over merged intermediates.
		pair := func(a, b *Sketch) *Sketch {
			c := a.Clone()
			c.Merge(b)
			return c
		}
		m3 := pair(pair(pair(shards[0], shards[1]), pair(shards[2], shards[3])),
			pair(pair(shards[4], shards[5]), shards[6]))

		for i, m := range []*Sketch{m1, m2, m3} {
			if got := sketchFingerprint(m); !fingerprintsEqual(got, want) {
				t.Errorf("%s: merge order %d fingerprint diverges from single sketch\n got %v\nwant %v",
					name, i+1, got, want)
			}
		}

		// Commutativity on the raw pair level: a+b == b+a.
		ab := pair(shards[0], shards[1])
		ba := pair(shards[1], shards[0])
		if !fingerprintsEqual(sketchFingerprint(ab), sketchFingerprint(ba)) {
			t.Errorf("%s: pairwise merge is not commutative", name)
		}
	}
}

// TestSketchMergeEmptyAndNil: merging nil or empty sketches must be a
// no-op and must not disturb min/max of an empty receiver.
func TestSketchMergeEmptyAndNil(t *testing.T) {
	s := NewSketch()
	s.Merge(nil)
	s.Merge(NewSketch())
	if s.Count() != 0 || s.Min() != 0 || s.Max() != 0 {
		t.Fatalf("empty merge disturbed sketch: count=%d min=%v max=%v", s.Count(), s.Min(), s.Max())
	}
	s.Add(2)
	empty := NewSketch()
	empty.Merge(s)
	if empty.Count() != 1 || empty.Min() != 2 || empty.Max() != 2 {
		t.Fatalf("merge into empty lost min/max: count=%d min=%v max=%v",
			empty.Count(), empty.Min(), empty.Max())
	}
}

// TestSketchEdgeCases covers the empty sketch, single samples, zero and
// sub-resolution values, and the exactness shortcuts of Attainment.
func TestSketchEdgeCases(t *testing.T) {
	s := NewSketch()
	if s.Quantile(0.5) != 0 || s.Count() != 0 {
		t.Fatal("empty sketch must report zero quantiles")
	}
	if got := s.Attainment(1); got != 0 {
		t.Fatalf("empty sketch under real objective: attainment %v, want 0", got)
	}
	if got := s.Attainment(0); got != 1 {
		t.Fatalf("disabled objective: attainment %v, want 1", got)
	}

	s.Add(3.5)
	for _, q := range quantileGrid {
		if got := s.Quantile(q); got != 3.5 {
			t.Fatalf("single sample: Quantile(%v) = %v, want 3.5", q, got)
		}
	}

	z := NewSketch()
	z.Add(0)
	z.Add(0)
	z.Add(1)
	if z.Min() != 0 || z.Max() != 1 {
		t.Fatalf("zero samples: min/max = %v/%v", z.Min(), z.Max())
	}
	if got := z.Quantile(0.25); got != 0 {
		t.Fatalf("zero-heavy sample: Quantile(0.25) = %v, want 0 (underflow)", got)
	}
	if got := z.Attainment(0.5); math.Abs(got-2.0/3.0) > 1e-12 {
		t.Fatalf("attainment over zeros: %v, want 2/3", got)
	}
	if got := z.Attainment(1); got != 1 {
		t.Fatalf("limit at max must be exactly attained, got %v", got)
	}
	if got := z.Attainment(1e-12); math.Abs(got-2.0/3.0) > 1e-12 {
		t.Fatalf("sub-resolution limit counts underflow: %v, want 2/3", got)
	}
}

// TestSketchSummaryMoments: N, Mean, Std, Min, Max in Summary are
// exact (same formulas as Summarize), only percentiles approximate.
func TestSketchSummaryMoments(t *testing.T) {
	for name, xs := range adversarialSamples(t) {
		s := sketchOf(xs)
		want := Summarize(xs)
		got := s.Summary()
		if got.N != want.N || got.Min != want.Min || got.Max != want.Max {
			t.Errorf("%s: N/Min/Max = %d/%v/%v, want %d/%v/%v",
				name, got.N, got.Min, got.Max, want.N, want.Min, want.Max)
		}
		if math.Abs(got.Mean-want.Mean) > 1e-9*math.Abs(want.Mean)+1e-15 {
			t.Errorf("%s: Mean %v, want %v", name, got.Mean, want.Mean)
		}
		if math.Abs(got.Std-want.Std) > 1e-6*want.Max {
			t.Errorf("%s: Std %v, want %v", name, got.Std, want.Std)
		}
	}
}

// TestSketchResetAndClone: Reset empties in place; Clone is
// independent of its source.
func TestSketchResetAndClone(t *testing.T) {
	s := sketchOf([]float64{1, 2, 3, 4, 5})
	c := s.Clone()
	s.Reset()
	if s.Count() != 0 || s.Quantile(0.5) != 0 {
		t.Fatal("Reset left data behind")
	}
	if c.Count() != 5 || c.Min() != 1 || c.Max() != 5 {
		t.Fatal("Clone shares state with its source")
	}
	s.Add(10)
	if c.Max() != 5 {
		t.Fatal("Clone buckets alias the source")
	}
}

// TestSketchAddDoesNotAllocate pins the hot path: recording an
// observation into a constructed sketch performs zero allocations.
func TestSketchAddDoesNotAllocate(t *testing.T) {
	s := NewSketch()
	x := 0.001
	allocs := testing.AllocsPerRun(1000, func() {
		s.Add(x)
		x *= 1.001
	})
	if allocs != 0 {
		t.Fatalf("Sketch.Add allocates %v per op, want 0", allocs)
	}
}

// TestObserveMatchesAdd: Observe feeds every sketch exactly what Add
// would, from one bucket key, without allocating.
func TestObserveMatchesAdd(t *testing.T) {
	a, b, ref := NewSketch(), NewSketch(), NewSketch()
	for i, x := range []float64{0, 1e-12, 1e-9, 2e-9, 0.003, 0.5, 1, 42, 1e9, 1e12} {
		Observe(x, a, b)
		ref.Add(x)
		if !reflect.DeepEqual(a, ref) || !reflect.DeepEqual(b, ref) {
			t.Fatalf("after %d observations: %v and %v, want %v", i+1, sketchFingerprint(a), sketchFingerprint(b), sketchFingerprint(ref))
		}
	}
	if allocs := testing.AllocsPerRun(100, func() { Observe(0.25, a, b) }); allocs != 0 {
		t.Errorf("Observe allocated %.1f objects, want 0", allocs)
	}
}

// TestSketchKeyMatchesLogRule: key reads logKey's bucket from tables,
// so the two must agree on every float64. The check covers each bucket
// bound and bin edge with the floats around it, seeded random values
// across and beyond the sketch's span, and the special values.
func TestSketchKeyMatchesLogRule(t *testing.T) {
	check := func(x float64) {
		if got, want := key(x), logKey(x); got != want {
			t.Fatalf("key(%v) = %d, logKey = %d", x, got, want)
		}
	}
	around := func(x float64, ulps int64) {
		b := int64(math.Float64bits(x))
		for d := -ulps; d <= ulps; d++ {
			check(math.Float64frombits(uint64(b + d)))
		}
	}
	for _, x := range bound[:sketchBuckets] {
		around(x, 2048)
	}
	for i := range binKey {
		around(math.Float64frombits((binBase+uint64(i))<<binShift), 64)
	}
	rng := rand.New(rand.NewSource(37))
	for i := 0; i < 2_000_000; i++ {
		check(sketchMin / 10 * math.Pow(10, 20*rng.Float64()))
		check(math.Float64frombits(rng.Uint64()))
	}
	for _, x := range []float64{
		0, math.Copysign(0, -1), -1, -sketchMax, sketchMin, sketchMax,
		math.Inf(1), math.Inf(-1), math.NaN(),
		math.MaxFloat64, math.SmallestNonzeroFloat64, -math.MaxFloat64,
	} {
		around(x, 4)
	}
}

// TestSketchHugeValuesFileInTopBucket: values above 1e9 clamp to the
// top bucket however large, +Inf and the largest float included (their
// quotient by 1e-9 overflows to +Inf, whose integer conversion Go leaves
// to the platform).
func TestSketchHugeValuesFileInTopBucket(t *testing.T) {
	for _, x := range []float64{sketchMax * 1.5, 1e299, 2e299, 1e300, math.MaxFloat64, math.Inf(1)} {
		if got := key(x); got != sketchBuckets-1 {
			t.Errorf("key(%v) = %d, want the top bucket %d", x, got, sketchBuckets-1)
		}
	}
	s := sketchOf([]float64{1, 1e300, 1e300})
	if p50 := s.Quantile(0.5); p50 < sketchMax {
		t.Errorf("P50 of {1, 1e300, 1e300} = %v, want the top bucket's value (at least %v)", p50, sketchMax)
	}
}
