package stats

import (
	"math"
	"slices"
)

// Test-only accessors: nothing outside this package's tests needs them.

// StdDev returns the population standard deviation of xs.
func StdDev(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	m := Mean(xs)
	var s float64
	for _, x := range xs {
		s += (x - m) * (x - m)
	}
	return math.Sqrt(s / float64(len(xs)))
}

// Percentile returns the p-th percentile (0 <= p <= 100) of xs using
// linear interpolation between closest ranks. It copies xs, leaving the
// input unmodified.
func Percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sorted := append([]float64(nil), xs...)
	slices.Sort(sorted)
	return percentileSorted(sorted, p)
}

// Max returns the largest element of xs, or 0 for an empty slice.
func Max(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	m := xs[0]
	for _, x := range xs[1:] {
		if x > m {
			m = x
		}
	}
	return m
}

// Summarize computes a Summary of xs over one copy of the sample: a
// single allocation, where summarizing field by field would copy and
// sort the sample three times over.
func Summarize(xs []float64) Summary {
	return SummarizeInPlace(append([]float64(nil), xs...))
}

// Normalize scales xs so the smallest positive unit becomes 1.0-based
// scores: each value divided by the minimum. Used for the paper's memory
// scores (§4.5), where footprints are normalized across experts. Returns
// nil for empty input; values must be positive.
func Normalize(xs []float64) []float64 {
	if len(xs) == 0 {
		return nil
	}
	m := Min(xs)
	if m <= 0 {
		return nil
	}
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = x / m
	}
	return out
}

// Min returns the smallest element of xs, or 0 for an empty slice.
func Min(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	m := xs[0]
	for _, x := range xs[1:] {
		if x < m {
			m = x
		}
	}
	return m
}
