package coe

import (
	"fmt"
	"maps"
	"slices"
)

// Rule is a user-defined routing rule for one input class (§4.5,
// "Routing rules, provided by the user, are part of the CoE model").
// Every request of the class first runs the Classifier; if the
// classification passes (probability PassProb) and the class has a
// Detector, the detector runs as the subsequent stage (§2.1's circuit
// board pipeline).
type Rule struct {
	Classifier ExpertID
	Detector   ExpertID // NoExpert when the class has no detection stage
	PassProb   float64
}

// RuleRouter routes requests by predefined per-class rules. Because the
// rules are explicit, expert usage probabilities can be computed exactly
// rather than estimated from history — the property that separates CoE
// from MoE expert management (§2.1, §3.2).
type RuleRouter struct {
	rules map[int]Rule
}

// Rule returns the routing rule for an input class.
func (r *RuleRouter) Rule(class int) (Rule, bool) {
	rule, ok := r.rules[class]
	return rule, ok
}

// Classes returns all classes with rules, in ascending order.
func (r *RuleRouter) Classes() []int {
	return slices.Sorted(maps.Keys(r.rules))
}

// AppendRoute appends the expert chain for one request of the given
// class to dst and returns the extended slice. The pass outcome of the
// classification stage is decided by the sample u ∈ [0,1), which the
// caller draws from its seeded stream so that workloads are
// reproducible: the detector, when the class has one, runs only when u
// < PassProb. With a dst that retains capacity (an arena-recycled
// request's chain), routing is allocation-free.
func (r *RuleRouter) AppendRoute(dst []ExpertID, class int, u float64) ([]ExpertID, error) {
	rule, ok := r.rules[class]
	if !ok {
		return dst, fmt.Errorf("coe: no routing rule for class %d", class)
	}
	dst = append(dst, rule.Classifier)
	if rule.Detector != NoExpert && u < rule.PassProb {
		dst = append(dst, rule.Detector)
	}
	return dst, nil
}

// ComputeUsage sets every expert's UsageProb from the class distribution
// classProbs (which must sum to ~1) and the model's routing rules:
// a classifier's probability is the total probability of its classes; a
// detector's is the pass-weighted probability of the classes it serves
// (§4.5, "if the routing rules are predefined, expert usage
// probabilities can be calculated directly").
func ComputeUsage(m *Model, classProbs map[int]float64) error {
	for _, e := range m.experts {
		e.UsageProb = 0
	}
	// Accumulate in sorted class order: float addition is not
	// associative, and map order would make probabilities (and thus
	// eviction tie-breaks) vary across runs.
	classes := make([]int, 0, len(classProbs))
	//detlint:allow key collection only; sorted immediately below before any fold
	for class := range classProbs {
		classes = append(classes, class)
	}
	slices.Sort(classes)
	for _, class := range classes {
		p := classProbs[class]
		if p < 0 {
			return fmt.Errorf("coe: class %d has negative probability", class)
		}
		rule, ok := m.router.rules[class]
		if !ok {
			return fmt.Errorf("coe: class %d has no routing rule", class)
		}
		m.experts[rule.Classifier].UsageProb += p
		if rule.Detector != NoExpert {
			m.experts[rule.Detector].UsageProb += p * rule.PassProb
		}
	}
	return nil
}

// EstimateUsage sets usage probabilities by replaying a sample of
// request chains — the paper's fallback when routing is too ambiguous to
// compute probabilities directly (for example, a trained router). Each
// chain contributes one use to every expert it contains; probabilities
// are normalized by the number of chains.
func EstimateUsage(m *Model, chains [][]ExpertID) {
	for _, e := range m.experts {
		e.UsageProb = 0
	}
	if len(chains) == 0 {
		return
	}
	for _, chain := range chains {
		for _, id := range chain {
			m.experts[id].UsageProb += 1
		}
	}
	n := float64(len(chains))
	for _, e := range m.experts {
		e.UsageProb /= n
	}
}
