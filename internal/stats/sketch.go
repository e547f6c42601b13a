package stats

import "math"

// Sketch parameters. The bucket layout is a fixed-base logarithmic
// histogram (DDSketch-style): bucket k covers the value interval
// (sketchMin·γ^(k-1), sketchMin·γ^k] with γ = (1+α)/(1-α), which
// guarantees every stored value is within relative error α of its
// bucket's representative value. With α = 1% the full span
// [1e-9, 1e9] — sub-nanosecond to ~31 years when values are seconds —
// fits in ~2100 fixed buckets (~17 KB), so a Sketch's memory is O(1)
// in the number of observations.
const (
	sketchAlpha = 0.01
	sketchMin   = 1e-9
	sketchMax   = 1e9
)

var (
	sketchGamma       = (1 + sketchAlpha) / (1 - sketchAlpha)
	sketchInvLogGamma = 1 / math.Log(sketchGamma)
	sketchBuckets     = int(math.Ceil(math.Log(sketchMax/sketchMin)*sketchInvLogGamma)) + 1
)

// Sketch is a fixed-size, deterministic, mergeable quantile sketch over
// non-negative samples (latencies in seconds, throughputs, byte counts).
// It records exact count, sum, min, and max, and approximates quantiles
// from a logarithmic bucket histogram with relative accuracy
// RelativeAccuracy (α): the value returned for a quantile is within
// α of some true sample at that rank — rank-exact, value-approximate.
//
// Bucket counts are integers, so Merge is lossless: merging per-shard
// sketches in any order yields bucket-for-bucket the same histogram as
// one sketch fed every sample, and therefore identical quantiles. (Mean
// and Std are float sums and may differ across merge orders in the last
// few ulps, like any float accumulation.)
//
// Values at or below 1e-9 (including zero) are counted in a dedicated
// underflow bucket and reported as the exact minimum; values above 1e9
// clamp to the top bucket but Max stays exact. The zero value is not
// usable; construct with NewSketch.
type Sketch struct {
	count      int64
	sum, sumSq float64
	min, max   float64
	underflow  int64
	buckets    []int64
}

// NewSketch returns an empty sketch. The bucket array is allocated
// eagerly so Add and Merge never allocate.
func NewSketch() *Sketch {
	return &Sketch{buckets: make([]int64, sketchBuckets)}
}

// RelativeAccuracy returns the sketch's quantile accuracy bound α:
// Quantile(q) is within a factor (1±α) of a true sample value at the
// target rank.
func (s *Sketch) RelativeAccuracy() float64 { return sketchAlpha }

// logKey is the bucket rule: the least k with x <= sketchMin·γ^k, or -1
// for the underflow bucket (x at or below 1e-9, zero and NaN included),
// clamped to the top bucket. Values above 1e9 go to the top bucket
// before the division, which overflows for x near the largest float.
// key reads the same rule from tables built from it at init.
func logKey(x float64) int {
	if !(x > sketchMin) {
		return -1
	}
	if x > sketchMax {
		return sketchBuckets - 1
	}
	k := int(math.Ceil(math.Log(x/sketchMin) * sketchInvLogGamma))
	return min(max(k, 0), sketchBuckets-1)
}

// The tables key files a sample by. The top 18 bits of a positive
// float64 (exponent and six leading mantissa bits) name one of 64 bins
// per binade; binBase is sketchMin's bin. A bin spans at most 1/64 of
// its start, less than a bucket's factor γ ≈ 1.02, so past the first
// value key sees in it the bin holds at most one more bucket bound:
// binKey[i] is logKey at that first value, and one compare against
// bound decides the rest.
const binShift = 52 - 6

var (
	binBase = math.Float64bits(sketchMin) >> binShift
	// bound[k] is the least x that logKey files in bucket k or above;
	// bound[sketchBuckets] is +Inf.
	bound  = make([]float64, sketchBuckets+1)
	binKey = make([]int16, math.Float64bits(sketchMax)>>binShift-binBase+1)
)

func init() {
	bound[0] = math.Nextafter(sketchMin, math.Inf(1))
	bound[sketchBuckets] = math.Inf(1)
	est := bound[0]
	for k := 1; k < sketchBuckets; k++ {
		bound[k] = leastAtOrAbove(k, est)
		est = bound[k] * sketchGamma
	}
	k := 0
	for i := range binKey {
		lo := max(math.Float64frombits((binBase+uint64(i))<<binShift), bound[0])
		for bound[k+1] <= lo {
			k++
		}
		binKey[i] = int16(k)
	}
}

// leastAtOrAbove returns the least x with logKey(x) >= k, searching the
// float64 bit patterns (ordered like the positive values they encode)
// outward from the estimate est, then bisecting. The search relies on
// logKey being monotone, which TestSketchKeyMatchesLogRule checks.
func leastAtOrAbove(k int, est float64) float64 {
	at := func(b uint64) bool { return logKey(math.Float64frombits(b)) >= k }
	b := math.Float64bits(est)
	lo, hi := b, b // at(hi) and !at(lo) once the walk ends
	if at(b) {
		for step := uint64(8); at(lo); step *= 2 {
			hi, lo = lo, b-step
		}
	} else {
		for step := uint64(8); !at(hi); step *= 2 {
			lo, hi = hi, b+step
		}
	}
	for hi-lo > 1 {
		if mid := lo + (hi-lo)/2; at(mid) {
			hi = mid
		} else {
			lo = mid
		}
	}
	return math.Float64frombits(hi)
}

// key returns the bucket every Sketch files x under, or -1 for the
// underflow bucket: logKey's answer, read from its tables.
func key(x float64) int {
	if !(x > sketchMin) {
		return -1
	}
	if x > sketchMax {
		return sketchBuckets - 1
	}
	k := int(binKey[math.Float64bits(x)>>binShift-binBase])
	if x >= bound[k+1] {
		k++
	}
	return k
}

// Add records one observation.
func (s *Sketch) Add(x float64) { s.add(x, key(x)) }

// Observe records one observation in each of the sketches, computing
// its bucket once however many sketches it feeds.
func Observe(x float64, sketches ...*Sketch) {
	k := key(x)
	for _, s := range sketches {
		s.add(x, k)
	}
}

// add records one observation x whose key is k.
func (s *Sketch) add(x float64, k int) {
	s.count++
	s.sum += x
	s.sumSq += x * x
	if s.count == 1 || x < s.min {
		s.min = x
	}
	if s.count == 1 || x > s.max {
		s.max = x
	}
	if k < 0 {
		s.underflow++
		return
	}
	s.buckets[k]++
}

// Merge folds o into s. Bucket counts, count, min, and max merge
// exactly; the result's quantiles are identical to a sketch that saw
// both sample sets directly, regardless of merge order or grouping.
// o is left unmodified. Merging a nil or empty sketch is a no-op.
func (s *Sketch) Merge(o *Sketch) {
	if o == nil || o.count == 0 {
		return
	}
	if s.count == 0 || o.min < s.min {
		s.min = o.min
	}
	if s.count == 0 || o.max > s.max {
		s.max = o.max
	}
	s.count += o.count
	s.sum += o.sum
	s.sumSq += o.sumSq
	s.underflow += o.underflow
	for k, n := range o.buckets {
		s.buckets[k] += n
	}
}

// Reset empties the sketch in place, keeping its bucket allocation.
func (s *Sketch) Reset() {
	s.count = 0
	s.sum, s.sumSq = 0, 0
	s.min, s.max = 0, 0
	s.underflow = 0
	clear(s.buckets)
}

// Clone returns an independent copy of the sketch.
func (s *Sketch) Clone() *Sketch {
	c := *s
	c.buckets = append([]int64(nil), s.buckets...)
	return &c
}

// Count reports the number of observations.
func (s *Sketch) Count() int64 { return s.count }

// Min reports the exact smallest observation (0 when empty).
func (s *Sketch) Min() float64 {
	if s.count == 0 {
		return 0
	}
	return s.min
}

// Max reports the exact largest observation (0 when empty).
func (s *Sketch) Max() float64 {
	if s.count == 0 {
		return 0
	}
	return s.max
}

// Quantile returns an approximation of the q-th quantile (q in [0,1]).
// The target rank is exact — q·(count−1), the same closest-rank
// convention as Percentile — and the returned value is the bucket
// representative of the sample at that rank, within RelativeAccuracy of
// the true sample value. Quantile(0) and Quantile(1) return the exact
// min and max. An empty sketch returns 0.
func (s *Sketch) Quantile(q float64) float64 {
	if s.count == 0 {
		return 0
	}
	if q <= 0 {
		return s.min
	}
	if q >= 1 {
		return s.max
	}
	rank := q * float64(s.count-1)
	target := int64(rank + 0.5)
	cum := s.underflow
	if target < cum {
		return s.min
	}
	for k, n := range s.buckets {
		if n == 0 {
			continue
		}
		cum += n
		if target < cum {
			v := sketchMin * math.Pow(sketchGamma, float64(k)) * 2 / (1 + sketchGamma)
			if v < s.min {
				v = s.min
			}
			if v > s.max {
				v = s.max
			}
			return v
		}
	}
	return s.max
}

// Summary reports the sketch's descriptive statistics in the same shape
// as SummarizeInPlace: N, Mean, Std (population), Min, and Max are exact;
// P50/P95/P99 come from Quantile and carry its accuracy bound.
func (s *Sketch) Summary() Summary {
	if s.count == 0 {
		return Summary{}
	}
	n := float64(s.count)
	mean := s.sum / n
	variance := s.sumSq/n - mean*mean
	if variance < 0 {
		variance = 0
	}
	return Summary{
		N:    int(s.count),
		Mean: mean,
		Std:  math.Sqrt(variance),
		Min:  s.min,
		Max:  s.max,
		P50:  s.Quantile(0.50),
		P95:  s.Quantile(0.95),
		P99:  s.Quantile(0.99),
	}
}

// Attainment reports the approximate fraction of observations at or
// under limit, with the same conventions as the exact Attainment: a
// non-positive limit is trivially attained (1) and an empty sketch
// under a real objective attains nothing (0). Limits at or beyond the
// exact max (or under the exact min) are answered exactly; in between,
// the threshold resolves at bucket granularity, so the reported
// fraction counts every sample whose bucket representative is within
// RelativeAccuracy of the limit as attained.
func (s *Sketch) Attainment(limit float64) float64 {
	if limit <= 0 {
		return 1
	}
	if s.count == 0 {
		return 0
	}
	if limit >= s.max {
		return 1
	}
	if limit < s.min {
		return 0
	}
	met := s.underflow
	if limit > sketchMin {
		top := key(limit)
		for k := 0; k <= top; k++ {
			met += s.buckets[k]
		}
	}
	if met > s.count {
		met = s.count
	}
	return float64(met) / float64(s.count)
}
