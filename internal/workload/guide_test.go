package workload

import (
	"math"
	"math/rand"
	"testing"
)

// binarySampleType is SampleType as a binary search over the prefix
// sums: the first type whose cumulative probability exceeds u, or the
// last type.
func binarySampleType(cum []float64, u float64) int {
	lo, hi := 0, len(cum)-1
	for lo < hi {
		mid := (lo + hi) / 2
		if cum[mid] <= u {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// TestSampleTypeGuideMatchesBinarySearch: the guide table must return
// exactly the binary search's type for every u in [0,1) — so streams,
// and every golden, stay byte-identical. It checks every prefix-sum
// boundary and its float neighbours, every guide bucket's edges, 0, the
// largest float below 1, and seeded draws — a million each on boards A,
// B and their merge, fewer on its per-tenant views and a NewBoard
// board.
func TestSampleTypeGuideMatchesBinarySearch(t *testing.T) {
	a := buildA(t)
	b, err := BoardB().Build()
	if err != nil {
		t.Fatal(err)
	}
	merged, views, err := MergeBoards("a+b", []float64{1, 1}, a, b)
	if err != nil {
		t.Fatal(err)
	}
	// A NewBoard board over a skewed distribution: a few heavy classes,
	// many light ones.
	probs := make([]float64, 40)
	for i := range probs {
		probs[i] = 1 / float64(i+1)
	}
	var total float64
	for _, p := range probs {
		total += p
	}
	for i := range probs {
		probs[i] /= total
	}
	wrapped, err := NewBoard(a.Model, probs)
	if err != nil {
		t.Fatal(err)
	}
	boards := append([]*Board{a, b, merged, wrapped}, views...)
	below1 := math.Nextafter(1, 0)
	for i, bd := range boards {
		cum := bd.cumProbs
		check := func(u float64) {
			t.Helper()
			if u < 0 || u >= 1 {
				return
			}
			if got, want := bd.SampleType(u), binarySampleType(cum, u); got != want {
				t.Fatalf("board %s: SampleType(%v) = %d, binary search %d", bd.Spec.Name, u, got, want)
			}
		}
		check(0)
		check(below1)
		for _, c := range cum {
			check(c)
			check(math.Nextafter(c, 0))
			check(math.Nextafter(c, 2))
		}
		m := float64(len(cum))
		for j := 0; j <= len(cum); j++ {
			edge := float64(j) / m
			check(edge)
			check(math.Nextafter(edge, 0))
			check(math.Nextafter(edge, 2))
		}
		draws := 1_000_000 // boards A, B and A+B
		if i > 2 {
			draws = 100_000
		}
		rng := rand.New(rand.NewSource(1))
		for ; draws > 0; draws-- {
			check(rng.Float64())
		}
	}
}
