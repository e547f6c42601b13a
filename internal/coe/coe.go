// Package coe models Collaboration-of-Experts (CoE) models: independent
// expert models joined by a routing module and an explicit dependency
// graph (§2.1, Figure 2).
//
// Unlike MoE, a CoE's routing is known ahead of time — user-defined rules
// or an independently trained router — which lets a serving system
// pre-assess each expert's usage probability and the preliminary →
// subsequent dependencies between experts. Those two properties are
// exactly what CoServe's scheduler and expert manager consume.
package coe

import (
	"cmp"
	"fmt"
	"math"
	"slices"

	"repro/internal/model"
)

// ExpertID identifies an expert within one CoE model. IDs are dense
// indices assigned by the builder.
type ExpertID int32

// NoExpert is the absent-expert sentinel (for example, a component type
// with no detection stage).
const NoExpert ExpertID = -1

// Role classifies an expert's position in inference pipelines.
type Role int

const (
	// Preliminary experts take raw inputs (Figure 2's first stage).
	Preliminary Role = iota
	// Subsequent experts consume the output of preliminary experts.
	Subsequent
)

func (r Role) String() string {
	switch r {
	case Preliminary:
		return "preliminary"
	case Subsequent:
		return "subsequent"
	default:
		return fmt.Sprintf("Role(%d)", int(r))
	}
}

// Expert is one expert model of a CoE.
type Expert struct {
	ID   ExpertID
	Name string
	Arch model.Architecture
	Role Role
	// DependsOn lists the preliminary experts whose output this
	// (subsequent) expert consumes. Empty for preliminary experts.
	DependsOn []ExpertID
	// Dependents lists subsequent experts fed by this expert.
	Dependents []ExpertID
	// UsageProb is the pre-assessed probability that a random request
	// uses this expert (§4.5); the expert manager's stage-2 eviction key.
	UsageProb float64
}

// WeightBytes reports the expert's loaded size.
func (e *Expert) WeightBytes() int64 { return e.Arch.WeightBytes() }

// Model is an immutable CoE model: the expert pool plus routing rules.
type Model struct {
	name    string
	experts []*Expert
	router  *RuleRouter
	// archs lists the distinct expert architectures by name; archOf maps
	// each ExpertID to its architecture's index in archs.
	archs  []model.Architecture
	archOf []uint8
}

// Name reports the model name.
func (m *Model) Name() string { return m.name }

// NumExperts reports the expert count.
func (m *Model) NumExperts() int { return len(m.experts) }

// Expert returns the expert with the given ID.
func (m *Model) Expert(id ExpertID) *Expert {
	if id < 0 || int(id) >= len(m.experts) {
		panic(fmt.Sprintf("coe: expert %d out of range [0,%d)", id, len(m.experts)))
	}
	return m.experts[id]
}

// Experts returns all experts in ID order. Callers must not mutate the
// returned slice.
func (m *Model) Experts() []*Expert { return m.experts }

// Archs returns the model's distinct expert architectures sorted by
// name, and each expert's index into them by ExpertID, so per-node
// tables can be kept per architecture. Callers must not mutate either
// slice.
func (m *Model) Archs() ([]model.Architecture, []uint8) { return m.archs, m.archOf }

// Router returns the model's routing module.
func (m *Model) Router() *RuleRouter { return m.router }

// TotalWeightBytes reports the summed size of all experts.
func (m *Model) TotalWeightBytes() int64 {
	var sum int64
	for _, e := range m.experts {
		sum += e.WeightBytes()
	}
	return sum
}

// ExpertsByUsage returns the experts sorted by descending usage
// probability (ties broken by ascending ID), the order used for expert
// initialization (§4.1) and the usage CDF (§4.4). IDs are unique, so
// the order is total and an unstable sort gives it.
func (m *Model) ExpertsByUsage() []*Expert {
	out := append([]*Expert(nil), m.experts...)
	slices.SortFunc(out, func(a, b *Expert) int {
		return cmp.Or(
			cmp.Compare(b.UsageProb, a.UsageProb),
			cmp.Compare(a.ID, b.ID),
		)
	})
	return out
}

// UsageCDF returns the cumulative distribution of expert usage over the
// experts sorted by descending usage probability — the curve of
// Figure 11. Point i is the fraction of expert invocations covered by
// the i+1 most-used experts; the final point is 1 (or the slice is nil
// when all probabilities are zero).
func (m *Model) UsageCDF() []float64 {
	sorted := m.ExpertsByUsage()
	var total float64
	for _, e := range sorted {
		total += e.UsageProb
	}
	if total <= 0 {
		return nil
	}
	cdf := make([]float64, len(sorted))
	var cum float64
	for i, e := range sorted {
		cum += e.UsageProb
		cdf[i] = cum / total
	}
	return cdf
}

// Builder assembles a Model. Add experts, link dependencies, attach
// routing rules, then call Build.
type Builder struct {
	name    string
	experts []*Expert
	rules   map[int]Rule
	err     error
}

// NewBuilder returns an empty builder for a model with the given name.
func NewBuilder(name string) *Builder {
	return &Builder{name: name, rules: make(map[int]Rule)}
}

// AddExpert appends an expert and returns its ID.
func (b *Builder) AddExpert(name string, arch model.Architecture, role Role) ExpertID {
	id := ExpertID(len(b.experts))
	b.experts = append(b.experts, &Expert{
		ID:   id,
		Name: name,
		Arch: arch,
		Role: role,
	})
	return id
}

// Link records that subsequent expert sub consumes the output of
// preliminary expert pre.
func (b *Builder) Link(pre, sub ExpertID) {
	if b.err != nil {
		return
	}
	if err := b.checkID(pre); err != nil {
		b.err = err
		return
	}
	if err := b.checkID(sub); err != nil {
		b.err = err
		return
	}
	pe, se := b.experts[pre], b.experts[sub]
	if pe.Role != Preliminary {
		b.err = fmt.Errorf("coe: link source %s is not preliminary", pe.Name)
		return
	}
	if se.Role != Subsequent {
		b.err = fmt.Errorf("coe: link target %s is not subsequent", se.Name)
		return
	}
	for _, d := range se.DependsOn {
		if d == pre {
			return // already linked
		}
	}
	se.DependsOn = append(se.DependsOn, pre)
	pe.Dependents = append(pe.Dependents, sub)
}

// AddRule attaches the routing rule for an input class. A rule whose
// PassProb is zero can never route to its detector, so it is normalized
// to a classifier-only rule; this makes Rule{Classifier: id} safe to
// write without mentioning NoExpert.
func (b *Builder) AddRule(class int, rule Rule) {
	if b.err != nil {
		return
	}
	if _, dup := b.rules[class]; dup {
		b.err = fmt.Errorf("coe: duplicate rule for class %d", class)
		return
	}
	if rule.PassProb <= 0 {
		rule.Detector = NoExpert
		rule.PassProb = 0
	}
	b.rules[class] = rule
}

func (b *Builder) checkID(id ExpertID) error {
	if id < 0 || int(id) >= len(b.experts) {
		return fmt.Errorf("coe: expert id %d out of range", id)
	}
	return nil
}

// Build validates the model and returns it.
func (b *Builder) Build() (*Model, error) {
	if b.err != nil {
		return nil, b.err
	}
	if len(b.experts) == 0 {
		return nil, fmt.Errorf("coe: model %q has no experts", b.name)
	}
	//detlint:allow validation only: every rule is checked and any error aborts the build; which of several errors surfaces first is not output
	for class, rule := range b.rules {
		if err := b.checkID(rule.Classifier); err != nil {
			return nil, fmt.Errorf("coe: rule for class %d: %w", class, err)
		}
		if b.experts[rule.Classifier].Role != Preliminary {
			return nil, fmt.Errorf("coe: rule for class %d routes to non-preliminary classifier", class)
		}
		if rule.Detector != NoExpert {
			if err := b.checkID(rule.Detector); err != nil {
				return nil, fmt.Errorf("coe: rule for class %d: %w", class, err)
			}
			if b.experts[rule.Detector].Role != Subsequent {
				return nil, fmt.Errorf("coe: rule for class %d routes to non-subsequent detector", class)
			}
			if rule.PassProb < 0 || rule.PassProb > 1 {
				return nil, fmt.Errorf("coe: rule for class %d has pass probability %f outside [0,1]", class, rule.PassProb)
			}
		}
	}
	m := &Model{name: b.name, experts: b.experts, router: &RuleRouter{rules: b.rules}, archOf: make([]uint8, len(b.experts))}
	var names []string
	for _, e := range b.experts {
		if !slices.Contains(names, e.Arch.Name) {
			names, m.archs = append(names, e.Arch.Name), append(m.archs, e.Arch)
		}
	}
	if len(m.archs) > math.MaxUint8+1 {
		return nil, fmt.Errorf("coe: model %q has %d architectures, at most %d supported", b.name, len(m.archs), math.MaxUint8+1)
	}
	slices.Sort(names)
	slices.SortFunc(m.archs, func(a, b model.Architecture) int { return cmp.Compare(a.Name, b.Name) })
	for _, e := range b.experts {
		m.archOf[e.ID] = uint8(slices.Index(names, e.Arch.Name))
	}
	return m, nil
}
