package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func almostEqual(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestFitLineExact(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	ys := make([]float64, len(xs))
	for i, x := range xs {
		ys[i] = 3*x + 7
	}
	fit, err := FitLine(xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEqual(fit.K, 3, 1e-9) || !almostEqual(fit.B, 7, 1e-9) {
		t.Errorf("fit = K%.3f B%.3f, want K3 B7", fit.K, fit.B)
	}
	if !almostEqual(fit.Predict(10), 37, 1e-9) {
		t.Errorf("Predict(10) = %v, want 37", fit.Predict(10))
	}
}

func TestFitLineNoisy(t *testing.T) {
	xs := []float64{1, 2, 3, 4}
	ys := []float64{2.1, 3.9, 6.1, 7.9}
	fit, err := FitLine(xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEqual(fit.K, 1.96, 0.1) {
		t.Errorf("K = %v, want ~1.96", fit.K)
	}
	if !almostEqual(fit.B, 0.1, 1e-9) {
		t.Errorf("B = %v, want 0.1", fit.B)
	}
}

func TestFitLineErrors(t *testing.T) {
	if _, err := FitLine([]float64{1}, []float64{2}); err == nil {
		t.Error("no error for single point")
	}
	if _, err := FitLine([]float64{1, 2}, []float64{2}); err == nil {
		t.Error("no error for mismatched lengths")
	}
	if _, err := FitLine([]float64{2, 2}, []float64{1, 5}); err == nil {
		t.Error("no error for degenerate x")
	}
}

// Property: a fitted line on points generated from y = kx + b recovers k
// and b regardless of the (distinct) x sample.
func TestFitLineRecoversLineProperty(t *testing.T) {
	prop := func(k, b int8, seed uint8) bool {
		xs := make([]float64, 6)
		ys := make([]float64, 6)
		for i := range xs {
			xs[i] = float64(i) + float64(seed%7)
			ys[i] = float64(k)*xs[i] + float64(b)
		}
		fit, err := FitLine(xs, ys)
		if err != nil {
			return false
		}
		return almostEqual(fit.K, float64(k), 1e-6) && almostEqual(fit.B, float64(b), 1e-6)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestMeanStd(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	if m := Mean(xs); !almostEqual(m, 5, 1e-9) {
		t.Errorf("Mean = %v, want 5", m)
	}
	if s := StdDev(xs); !almostEqual(s, 2, 1e-9) {
		t.Errorf("StdDev = %v, want 2", s)
	}
	if Mean(nil) != 0 || StdDev(nil) != 0 {
		t.Error("empty-slice mean/std should be 0")
	}
}

func TestPercentile(t *testing.T) {
	xs := []float64{15, 20, 35, 40, 50}
	cases := []struct {
		p    float64
		want float64
	}{
		{0, 15}, {100, 50}, {50, 35}, {25, 20},
	}
	for _, c := range cases {
		if got := Percentile(xs, c.p); !almostEqual(got, c.want, 1e-9) {
			t.Errorf("P%v = %v, want %v", c.p, got, c.want)
		}
	}
	if Percentile(nil, 50) != 0 {
		t.Error("empty percentile should be 0")
	}
	if Percentile([]float64{3}, 99) != 3 {
		t.Error("single-element percentile should be that element")
	}
	// Out-of-range p clamps.
	if Percentile(xs, -5) != 15 || Percentile(xs, 200) != 50 {
		t.Error("percentile did not clamp out-of-range p")
	}
}

// Property: percentiles are monotone in p and bounded by min/max.
func TestPercentileMonotoneProperty(t *testing.T) {
	prop := func(raw []float64, a, b uint8) bool {
		if len(raw) == 0 {
			return true
		}
		for _, v := range raw {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return true
			}
		}
		pa, pb := float64(a%101), float64(b%101)
		if pa > pb {
			pa, pb = pb, pa
		}
		va, vb := Percentile(raw, pa), Percentile(raw, pb)
		return va <= vb && va >= Min(raw) && vb <= Max(raw)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestSummarize(t *testing.T) {
	s := Summarize([]float64{1, 2, 3, 4, 5})
	if s.N != 5 || s.Mean != 3 || s.Min != 1 || s.Max != 5 || s.P50 != 3 {
		t.Errorf("unexpected summary: %+v", s)
	}
}

func TestNormalize(t *testing.T) {
	got := Normalize([]float64{100, 200, 300})
	want := []float64{1, 2, 3}
	for i := range want {
		if !almostEqual(got[i], want[i], 1e-9) {
			t.Errorf("Normalize[%d] = %v, want %v", i, got[i], want[i])
		}
	}
	if Normalize(nil) != nil {
		t.Error("Normalize(nil) should be nil")
	}
	if Normalize([]float64{0, 1}) != nil {
		t.Error("Normalize with non-positive min should be nil")
	}
}

func TestMinMax(t *testing.T) {
	xs := []float64{3, -1, 7, 0}
	if Min(xs) != -1 || Max(xs) != 7 {
		t.Errorf("Min/Max = %v/%v", Min(xs), Max(xs))
	}
	if Min(nil) != 0 || Max(nil) != 0 {
		t.Error("empty Min/Max should be 0")
	}
}

// TestSummarizeMatchesFieldwise pins Summarize against the independent
// field-by-field computations it replaced.
func TestSummarizeMatchesFieldwise(t *testing.T) {
	xs := []float64{4.2, 0.3, 9.9, 1.1, 1.1, 7.5, 3.3, 0.3, 8.8, 5.0, 2.2}
	s := Summarize(xs)
	if s.N != len(xs) {
		t.Errorf("N = %d, want %d", s.N, len(xs))
	}
	checks := []struct {
		name      string
		got, want float64
	}{
		{"Mean", s.Mean, Mean(xs)},
		{"Std", s.Std, StdDev(xs)},
		{"Min", s.Min, Min(xs)},
		{"Max", s.Max, Max(xs)},
		{"P50", s.P50, Percentile(xs, 50)},
		{"P95", s.P95, Percentile(xs, 95)},
		{"P99", s.P99, Percentile(xs, 99)},
	}
	for _, c := range checks {
		if c.got != c.want {
			t.Errorf("%s = %v, want %v", c.name, c.got, c.want)
		}
	}
	// The input must come back unsorted — Summarize works on a copy.
	if xs[0] != 4.2 || xs[len(xs)-1] != 2.2 {
		t.Errorf("Summarize mutated its input: %v", xs)
	}
}

func TestSummarizeEmpty(t *testing.T) {
	if s := Summarize(nil); s != (Summary{}) {
		t.Errorf("Summarize(nil) = %+v, want zero Summary", s)
	}
}

// TestSummarizeSingleSortAllocation pins Summarize to one allocation:
// the single copy that feeds Min, Max, and all percentiles. The
// fieldwise version paid three sorted copies.
func TestSummarizeSingleSortAllocation(t *testing.T) {
	xs := make([]float64, 1000)
	for i := range xs {
		xs[i] = float64((i * 7919) % 1000)
	}
	if allocs := testing.AllocsPerRun(20, func() { Summarize(xs) }); allocs > 1 {
		t.Errorf("Summarize allocated %.1f objects/op, want <= 1 (one copy)", allocs)
	}
}
