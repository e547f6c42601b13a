// Package stats provides the small statistical toolkit CoServe needs:
// least-squares linear fits (the paper's Eq. 2 and the K/B execution-
// latency model of §4.2/§4.5), summaries, and percentiles.
package stats

import (
	"cmp"
	"errors"
	"math"
	"math/bits"
	"slices"
)

// ErrInsufficientData is returned when an estimator needs more points.
var ErrInsufficientData = errors.New("stats: insufficient data")

// LinearFit is a least-squares line y = K*x + B.
type LinearFit struct {
	K float64 // slope
	B float64 // intercept
}

// Predict evaluates the fitted line at x.
func (f LinearFit) Predict(x float64) float64 { return f.K*x + f.B }

// FitLine computes the least-squares line through the points (xs[i],
// ys[i]). It needs at least two points with distinct x values.
func FitLine(xs, ys []float64) (LinearFit, error) {
	if len(xs) != len(ys) {
		return LinearFit{}, errors.New("stats: mismatched slice lengths")
	}
	n := float64(len(xs))
	if len(xs) < 2 {
		return LinearFit{}, ErrInsufficientData
	}
	var sumX, sumY, sumXX, sumXY float64
	for i := range xs {
		sumX += xs[i]
		sumY += ys[i]
		sumXX += xs[i] * xs[i]
		sumXY += xs[i] * ys[i]
	}
	den := n*sumXX - sumX*sumX
	if den == 0 {
		return LinearFit{}, errors.New("stats: degenerate x values")
	}
	k := (n*sumXY - sumX*sumY) / den
	return LinearFit{K: k, B: (sumY - k*sumX) / n}, nil
}

// Mean returns the arithmetic mean of xs, or 0 for an empty slice.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// percentileSorted is Percentile over an already ascending-sorted sample,
// so one sorted copy can feed several percentile lookups. It reads only
// the floor and ceil ranks of p (the first element when there is one),
// so those positions need to hold their sorted values and no others do.
func percentileSorted(sorted []float64, p float64) float64 {
	if p < 0 {
		p = 0
	}
	if p > 100 {
		p = 100
	}
	if len(sorted) == 1 {
		return sorted[0]
	}
	rank := p / 100 * float64(len(sorted)-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	if lo == hi {
		return sorted[lo]
	}
	frac := rank - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

// Summary holds descriptive statistics of a sample.
type Summary struct {
	N             int
	Mean, Std     float64
	Min, Max      float64
	P50, P95, P99 float64
}

// SummarizeInPlace computes a Summary of xs in place, in time linear in
// len(xs). It computes the mean and standard deviation over xs in its
// given order, takes Min and Max in one scan, then selects in place
// only the order statistics the percentiles read, so the result
// is bit-identical to reading a sorted copy. xs is
// left reordered but not sorted. Values are ordered as slices.Sort
// orders them (cmp.Less: a NaN is below everything); of values that
// compare equal, such as -0 and +0, either may be reported.
func SummarizeInPlace(xs []float64) Summary {
	n := len(xs)
	if n == 0 {
		return Summary{}
	}
	m := Mean(xs)
	var std float64
	if n >= 2 {
		var ss float64
		for _, x := range xs {
			ss += (x - m) * (x - m)
		}
		std = math.Sqrt(ss / float64(n))
	}
	lo, hi := xs[0], xs[0]
	for _, x := range xs[1:] {
		if cmp.Less(x, lo) {
			lo = x
		}
		if cmp.Less(hi, x) {
			hi = x
		}
	}
	// Place the floor and ceil ranks of each percentile, in ascending
	// order, each on the part right of the rank placed before it.
	next := 0
	for _, p := range [...]float64{50, 95, 99} {
		rank := p / 100 * float64(n-1)
		for _, r := range [2]int{int(math.Floor(rank)), int(math.Ceil(rank))} {
			if r >= next {
				selectRank(xs[next:], r-next)
				next = r + 1
			}
		}
	}
	return Summary{
		N:    n,
		Mean: m,
		Std:  std,
		Min:  lo,
		Max:  hi,
		P50:  percentileSorted(xs, 50),
		P95:  percentileSorted(xs, 95),
		P99:  percentileSorted(xs, 99),
	}
}

// selectRank reorders xs so that xs[k] holds the value a sort would put
// there, with nothing after it ordering below it and nothing before it
// above. It is a quickselect on median-of-three pivots with Hoare
// partitions, which split runs of equal values evenly; past a depth of
// 2·log2(len(xs)) partitions it sorts what is left, so adversarial
// input costs O(n log n) at worst. It returns the number of partitions
// it ran, which is at most that depth.
func selectRank(xs []float64, k int) (partitions int) {
	lo, hi := 0, len(xs)-1
	for depth := 2 * bits.Len(uint(len(xs))); lo < hi; depth-- {
		if depth == 0 {
			slices.Sort(xs[lo : hi+1])
			return partitions
		}
		partitions++
		// Order xs[lo], xs[mid], xs[hi]: the pivot is their median, and
		// the outer two bound the partition scans below.
		mid := lo + (hi-lo)/2
		if cmp.Less(xs[mid], xs[lo]) {
			xs[mid], xs[lo] = xs[lo], xs[mid]
		}
		if cmp.Less(xs[hi], xs[lo]) {
			xs[hi], xs[lo] = xs[lo], xs[hi]
		}
		if cmp.Less(xs[hi], xs[mid]) {
			xs[hi], xs[mid] = xs[mid], xs[hi]
		}
		pivot := xs[mid]
		i, j := lo, hi
		for i <= j {
			for cmp.Less(xs[i], pivot) {
				i++
			}
			for cmp.Less(pivot, xs[j]) {
				j--
			}
			if i <= j {
				xs[i], xs[j] = xs[j], xs[i]
				i++
				j--
			}
		}
		// Now xs[lo..j] order at or below the pivot, xs[i..hi] at or
		// above it, and anything between them equals it.
		switch {
		case k <= j:
			hi = j
		case k >= i:
			lo = i
		default:
			return partitions
		}
	}
	return partitions
}

// Attainment reports the fraction of xs at or under limit — the SLO
// attainment rule shared by aggregate and per-tenant serving reports.
// A non-positive limit means no objective and is trivially attained
// (1); an empty sample under a real objective attains nothing (0).
func Attainment(xs []float64, limit float64) float64 {
	if limit <= 0 {
		return 1
	}
	if len(xs) == 0 {
		return 0
	}
	met := 0
	for _, x := range xs {
		if x <= limit {
			met++
		}
	}
	return float64(met) / float64(len(xs))
}
