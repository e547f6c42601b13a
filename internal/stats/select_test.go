package stats

import (
	"math"
	"math/bits"
	"math/rand"
	"slices"
	"testing"
)

// refSummarize is the sort-based summary that SummarizeInPlace's
// selection replaced: mean and standard deviation in the given order,
// then one full sort for Min, Max and every percentile.
func refSummarize(xs []float64) Summary {
	xs = slices.Clone(xs)
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
	slices.Sort(xs)
	return Summary{
		N:    n,
		Mean: m,
		Std:  std,
		Min:  xs[0],
		Max:  xs[n-1],
		P50:  percentileSorted(xs, 50),
		P95:  percentileSorted(xs, 95),
		P99:  percentileSorted(xs, 99),
	}
}

// summaryBits lists a summary's fields as bit patterns, so NaNs compare
// equal to themselves and -0 differs from +0.
func summaryBits(s Summary) [8]uint64 {
	return [8]uint64{
		uint64(s.N),
		math.Float64bits(s.Mean), math.Float64bits(s.Std),
		math.Float64bits(s.Min), math.Float64bits(s.Max),
		math.Float64bits(s.P50), math.Float64bits(s.P95), math.Float64bits(s.P99),
	}
}

func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

// TestSummarizeInPlaceMatchesSort checks SummarizeInPlace, field for
// field and bit for bit, against the sort-based reference: seeded
// samples at every size from 1 to the 200,000 samples of a node-mix
// report, in shapes that stress a quickselect (heavy ties, constant,
// sorted, reverse-sorted and organ-pipe arrays, the last of which
// defeats median-of-three pivots and exhausts the depth bound) and with
// NaN and ±Inf mixed in, which must order as slices.Sort orders them.
func TestSummarizeInPlaceMatchesSort(t *testing.T) {
	inf := math.Inf(1)
	specials := []float64{math.NaN(), inf, -inf}
	shapes := []struct {
		name string
		fill func(rng *rand.Rand, xs []float64)
	}{
		{"uniform", func(rng *rand.Rand, xs []float64) {
			for i := range xs {
				xs[i] = rng.Float64()
			}
		}},
		{"latency", func(rng *rand.Rand, xs []float64) {
			for i := range xs {
				xs[i] = rng.ExpFloat64() * 0.25
			}
		}},
		{"ties", func(rng *rand.Rand, xs []float64) {
			for i := range xs {
				xs[i] = float64(rng.Intn(4))
			}
		}},
		{"constant", func(_ *rand.Rand, xs []float64) {
			for i := range xs {
				xs[i] = 1.5
			}
		}},
		{"sorted", func(_ *rand.Rand, xs []float64) {
			for i := range xs {
				xs[i] = float64(i)
			}
		}},
		{"reverse", func(_ *rand.Rand, xs []float64) {
			for i := range xs {
				xs[i] = float64(len(xs) - i)
			}
		}},
		{"organ-pipe", func(_ *rand.Rand, xs []float64) {
			for i := range xs {
				xs[i] = float64(min(i, len(xs)-1-i))
			}
		}},
		{"with-specials", func(rng *rand.Rand, xs []float64) {
			for i := range xs {
				if rng.Intn(8) == 0 {
					xs[i] = specials[rng.Intn(len(specials))]
				} else {
					xs[i] = rng.NormFloat64()
				}
			}
		}},
		{"only-specials", func(rng *rand.Rand, xs []float64) {
			for i := range xs {
				xs[i] = specials[rng.Intn(len(specials))]
			}
		}},
		{"all-nan", func(_ *rand.Rand, xs []float64) {
			for i := range xs {
				xs[i] = math.NaN()
			}
		}},
	}
	for _, n := range []int{1, 2, 3, 17, 1000, 200_000} {
		for _, sh := range shapes {
			seeds := 1
			if n <= 1000 {
				seeds = 20
			}
			for seed := range seeds {
				rng := rand.New(rand.NewSource(int64(seed*1_000_003 + n)))
				xs := make([]float64, n)
				sh.fill(rng, xs)
				want := refSummarize(xs)
				work := slices.Clone(xs)
				got := SummarizeInPlace(work)
				if summaryBits(got) != summaryBits(want) {
					t.Fatalf("n=%d %s seed %d: SummarizeInPlace = %+v, sort reference %+v (bits %x vs %x)", n, sh.name, seed, got, want, summaryBits(got), summaryBits(want))
				}
				// The reordering keeps the multiset.
				slices.Sort(work)
				sorted := slices.Clone(xs)
				slices.Sort(sorted)
				if !slices.EqualFunc(work, sorted, sameBits) {
					t.Fatalf("n=%d %s seed %d: SummarizeInPlace changed the sample's values", n, sh.name, seed)
				}
			}
		}
	}
}

// TestSelectRankDepthBound pins selectRank's worst case: no input runs
// more than 2·log2(n) partitions, each at most n long, before the sort
// fallback takes over, so a selection costs O(n log n) however the
// pivots fall. Organ-pipe arrays defeat median-of-three pivots at every
// size here: they must reach the bound (the fallback runs) and still
// place the rank right.
func TestSelectRankDepthBound(t *testing.T) {
	fills := []struct {
		name string
		fill func(xs []float64, rng *rand.Rand)
	}{
		{"organ-pipe", func(xs []float64, _ *rand.Rand) {
			for i := range xs {
				xs[i] = float64(min(i, len(xs)-1-i))
			}
		}},
		{"sorted", func(xs []float64, _ *rand.Rand) {
			for i := range xs {
				xs[i] = float64(i)
			}
		}},
		{"uniform", func(xs []float64, rng *rand.Rand) {
			for i := range xs {
				xs[i] = rng.Float64()
			}
		}},
	}
	rng := rand.New(rand.NewSource(28))
	for _, n := range []int{100, 1000, 200_000} {
		bound := 2 * bits.Len(uint(n))
		xs := make([]float64, n)
		for _, f := range fills {
			fallbacks := 0
			for _, k := range []int{n / 2, n * 95 / 100, n * 99 / 100, rng.Intn(n)} {
				f.fill(xs, rng)
				want := slices.Clone(xs)
				slices.Sort(want)
				p := selectRank(xs, k)
				if p > bound {
					t.Fatalf("n=%d %s k=%d: %d partitions, past the depth bound %d", n, f.name, k, p, bound)
				}
				if p == bound {
					fallbacks++
				}
				if !sameBits(xs[k], want[k]) {
					t.Fatalf("n=%d %s k=%d: placed %v, sort puts %v there", n, f.name, k, xs[k], want[k])
				}
				for i, x := range xs {
					if i < k && x > xs[k] || i > k && x < xs[k] {
						t.Fatalf("n=%d %s k=%d: xs[%d] = %v on the wrong side of %v", n, f.name, k, i, x, xs[k])
					}
				}
			}
			if f.name == "organ-pipe" && fallbacks == 0 {
				t.Errorf("n=%d: no organ-pipe selection reached the depth bound; the test pins nothing", n)
			}
		}
	}
}
