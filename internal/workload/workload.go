// Package workload generates the paper's evaluation workload (§5.1):
// circuit-board quality inspection with one dedicated classification
// expert per component type and shared object-detection experts.
//
// Circuit Board A has 352 component types; Board B has 342. Component
// quantities follow a skewed (Zipf-like) distribution — a board carries
// far more of its common passives than of its specialty parts — which is
// what gives expert usage its non-uniform CDF (Figure 11). Component
// images arrive at a fixed 4 ms period, and a task is a fixed count of
// continuously arriving requests (Tasks A1/A2/B1/B2).
//
// Beyond the paper's closed loop, the package defines the Source
// abstraction (source.go): arrival processes that yield timed requests —
// fixed-period task streams, open-loop Poisson, bursty on/off traffic,
// and multi-tenant mixes over merged boards — which the serving layer
// (core.System.Serve) consumes uniformly.
package workload

import (
	"fmt"
	"math"
	"math/rand"
	"time"

	"repro/internal/coe"
	"repro/internal/model"
)

// DefaultArrivalPeriod is the paper's image arrival period ("a component
// image is input every 4 ms").
const DefaultArrivalPeriod = 4 * time.Millisecond

// BoardSpec parameterizes a synthetic circuit board.
type BoardSpec struct {
	Name string
	// Types is the number of component types (each gets a dedicated
	// ResNet101 classification expert).
	Types int
	// Detectors is the number of shared object-detection experts.
	Detectors int
	// DetectorShare is the fraction of component types whose pipeline
	// includes a detection stage after a passing classification.
	DetectorShare float64
	// PassProb is the probability a classification passes (routes on to
	// the detector).
	PassProb float64
	// HeadTypes is the number of "head" component types that carry
	// nearly all of the board's quantity mass: the common passives
	// (resistors, capacitors) every production run inspects. The
	// remaining tail types are specialty parts with near-zero share.
	HeadTypes int
	// HeadSkew is the Zipf exponent of the quantity distribution over
	// the head types.
	HeadSkew float64
	// TailWeight scales the tail types' share relative to a head type
	// of the same rank (a small value, so each tail type contributes a
	// handful of images at most).
	TailWeight float64
	// Seed drives the deterministic assignment of detectors to types.
	Seed int64
}

// BoardA returns the spec of the paper's Circuit Board A (352 types).
func BoardA() BoardSpec {
	return BoardSpec{
		Name:          "board-a",
		Types:         352,
		Detectors:     30,
		DetectorShare: 0.6,
		PassProb:      0.95,
		HeadTypes:     150,
		HeadSkew:      1.0,
		TailWeight:    0.01,
		Seed:          1001,
	}
}

// BoardB returns the spec of the paper's Circuit Board B (342 types).
func BoardB() BoardSpec {
	return BoardSpec{
		Name:          "board-b",
		Types:         342,
		Detectors:     28,
		DetectorShare: 0.6,
		PassProb:      0.95,
		HeadTypes:     160,
		HeadSkew:      1.05,
		TailWeight:    0.01,
		Seed:          2002,
	}
}

// Board is a generated circuit board: its CoE model, routing rules, and
// component-type request distribution.
type Board struct {
	Spec  BoardSpec
	Model *coe.Model
	// TypeProbs[c] is the probability a random component image belongs
	// to type c (quantity share of the board).
	TypeProbs []float64
	// cumProbs is the prefix-sum of TypeProbs for sampling.
	cumProbs []float64
	// guide indexes cumProbs for SampleType (Chen and Asau's guide
	// table): guide[j] is the first type whose cumProbs lands in bucket
	// j or above, a bucket being int(x*len(cumProbs)).
	guide []int32
}

// newGuide builds the guide table of the prefix sums cum. Its last entry
// serves u*len(cum) rounding up to len(cum).
func newGuide(cum []float64) []int32 {
	m := float64(len(cum))
	guide := make([]int32, len(cum)+1)
	i := 0
	for j := range guide {
		for i < len(cum)-1 && int(cum[i]*m) < j {
			i++
		}
		guide[j] = int32(i)
	}
	return guide
}

// Build generates the board deterministically from its spec.
func (s BoardSpec) Build() (*Board, error) {
	if s.Types < 1 {
		return nil, fmt.Errorf("workload: board %q needs at least one type", s.Name)
	}
	if s.Detectors < 0 || (s.DetectorShare > 0 && s.Detectors == 0) {
		return nil, fmt.Errorf("workload: board %q has detector share but no detectors", s.Name)
	}
	if s.HeadTypes < 1 || s.HeadTypes > s.Types {
		return nil, fmt.Errorf("workload: board %q head types %d outside [1,%d]", s.Name, s.HeadTypes, s.Types)
	}
	if s.TailWeight < 0 || s.TailWeight > 1 {
		return nil, fmt.Errorf("workload: board %q tail weight %f outside [0,1]", s.Name, s.TailWeight)
	}
	rng := rand.New(rand.NewSource(s.Seed))
	b := coe.NewBuilder(s.Name)

	// One dedicated classification expert per component type.
	classifiers := make([]coe.ExpertID, s.Types)
	for c := 0; c < s.Types; c++ {
		classifiers[c] = b.AddExpert(fmt.Sprintf("%s/cls-%03d", s.Name, c), model.ResNet101, coe.Preliminary)
	}
	// Shared detection experts: two thirds YOLOv5m, one third YOLOv5l
	// (§5.1: "The object detection experts utilize two architectures").
	detectors := make([]coe.ExpertID, s.Detectors)
	for d := 0; d < s.Detectors; d++ {
		arch := model.YOLOv5m
		if d%3 == 2 {
			arch = model.YOLOv5l
		}
		detectors[d] = b.AddExpert(fmt.Sprintf("%s/det-%02d", s.Name, d), arch, coe.Subsequent)
	}

	// Quantity distribution: Zipf over a deterministic permutation of
	// types (so type ID does not encode popularity), with the mass
	// concentrated on the head types; tail types keep a tiny share.
	perm := rng.Perm(s.Types)
	probs := make([]float64, s.Types)
	var total float64
	for rank, c := range perm {
		w := 1 / math.Pow(float64(rank+1), s.HeadSkew)
		if rank >= s.HeadTypes {
			w *= s.TailWeight
		}
		probs[c] = w
		total += w
	}
	for c := range probs {
		probs[c] /= total
	}

	// Routing rules: a share of types verify alignment with a shared
	// detector after a passing classification ("Multiple classification
	// experts may share the same object detection expert", §2.1).
	for c := 0; c < s.Types; c++ {
		rule := coe.Rule{Classifier: classifiers[c]}
		if s.Detectors > 0 && rng.Float64() < s.DetectorShare {
			rule.Detector = detectors[rng.Intn(s.Detectors)]
			rule.PassProb = s.PassProb
			b.Link(classifiers[c], rule.Detector)
		}
		b.AddRule(c, rule)
	}

	m, err := b.Build()
	if err != nil {
		return nil, err
	}
	classProbs := make(map[int]float64, s.Types)
	for c, p := range probs {
		classProbs[c] = p
	}
	if err := coe.ComputeUsage(m, classProbs); err != nil {
		return nil, err
	}

	return newBoard(s, m, probs), nil
}

// NewBoard wraps an arbitrary CoE model and class distribution as a
// Board, for custom workloads that do not come from a BoardSpec. The
// model must have a routing rule for every class index in typeProbs,
// whose values must be positive and sum to ~1.
func NewBoard(m *coe.Model, typeProbs []float64) (*Board, error) {
	if m == nil || len(typeProbs) == 0 {
		return nil, fmt.Errorf("workload: NewBoard needs a model and a class distribution")
	}
	var total float64
	for c, p := range typeProbs {
		if p <= 0 {
			return nil, fmt.Errorf("workload: class %d has non-positive probability", c)
		}
		if _, ok := m.Router().Rule(c); !ok {
			return nil, fmt.Errorf("workload: class %d has no routing rule", c)
		}
		total += p
	}
	if math.Abs(total-1) > 1e-6 {
		return nil, fmt.Errorf("workload: class probabilities sum to %f, want 1", total)
	}
	return newBoard(BoardSpec{Name: m.Name(), Types: len(typeProbs)}, m, append([]float64(nil), typeProbs...)), nil
}

// newBoard assembles a Board over model m with class distribution probs,
// which it keeps, building the prefix sums and their guide table. Float
// drift is absorbed into the last positive class, so a draw of u→1 can
// never land on a zero-probability tail class (a MergeBoards tenant view
// has zeros outside its class range). SampleType and newGuide never read
// the last prefix sum, so on a distribution without a zero tail no draw
// changes.
func newBoard(spec BoardSpec, m *coe.Model, probs []float64) *Board {
	cum := make([]float64, len(probs))
	var run float64
	last := -1
	for i, p := range probs {
		run += p
		cum[i] = run
		if p > 0 {
			last = i
		}
	}
	for j := last; j >= 0 && j < len(cum); j++ {
		cum[j] = 1
	}
	return &Board{Spec: spec, Model: m, TypeProbs: probs, cumProbs: cum, guide: newGuide(cum)}
}

// SampleType draws a component type from the board's quantity
// distribution using u ∈ [0,1): the first type whose cumulative
// probability exceeds u, or the last type. The guide table starts the
// search at or before that type, and the scan forward ends on it.
func (b *Board) SampleType(u float64) int {
	i := int(b.guide[int(u*float64(len(b.cumProbs)))])
	for i < len(b.cumProbs)-1 && b.cumProbs[i] <= u {
		i++
	}
	return i
}

// Task is a fixed-length closed-loop request stream against one board:
// the paper's arrival shape, and a thin wrapper over the Source
// abstraction (see Task.Stream).
type Task struct {
	Name          string
	Board         *Board
	N             int
	ArrivalPeriod time.Duration
	Seed          int64
}

// TaskA1, TaskA2, TaskB1, TaskB2 construct the paper's four evaluation
// tasks (§5.1) against pre-built boards.
func TaskA1(b *Board) Task {
	return Task{Name: "A1", Board: b, N: 2500, ArrivalPeriod: DefaultArrivalPeriod, Seed: 11}
}
func TaskA2(b *Board) Task {
	return Task{Name: "A2", Board: b, N: 3500, ArrivalPeriod: DefaultArrivalPeriod, Seed: 12}
}
func TaskB1(b *Board) Task {
	return Task{Name: "B1", Board: b, N: 2500, ArrivalPeriod: DefaultArrivalPeriod, Seed: 21}
}
func TaskB2(b *Board) Task {
	return Task{Name: "B2", Board: b, N: 3500, ArrivalPeriod: DefaultArrivalPeriod, Seed: 22}
}

// Generate materializes the task's request stream: N requests, types
// drawn from the board's quantity distribution, chains decided by the
// routing rules with seeded pass outcomes. It drains Task.Stream, so the
// same task always generates the same stream.
func (t Task) Generate() ([]*coe.Request, error) {
	src, err := t.Stream()
	if err != nil {
		return nil, err
	}
	reqs := make([]*coe.Request, 0, t.N)
	for tr, ok := src.Next(); ok; tr, ok = src.Next() {
		reqs = append(reqs, tr.Req)
	}
	return reqs, nil
}
