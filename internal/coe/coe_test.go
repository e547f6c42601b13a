package coe

import (
	"fmt"
	"math"
	"sort"
	"testing"
	"testing/quick"
	"unsafe"

	"repro/internal/model"
)

// buildTestModel creates a small CoE: 3 classifiers, 1 shared detector.
func buildTestModel(t *testing.T) (*Model, []ExpertID, ExpertID) {
	t.Helper()
	b := NewBuilder("test")
	var cls []ExpertID
	for i := 0; i < 3; i++ {
		cls = append(cls, b.AddExpert("cls", model.ResNet101, Preliminary))
	}
	det := b.AddExpert("det", model.YOLOv5m, Subsequent)
	b.Link(cls[0], det)
	b.Link(cls[1], det)
	b.AddRule(0, Rule{Classifier: cls[0], Detector: det, PassProb: 0.9})
	b.AddRule(1, Rule{Classifier: cls[1], Detector: det, PassProb: 0.5})
	b.AddRule(2, Rule{Classifier: cls[2], Detector: NoExpert})
	m, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return m, cls, det
}

// TestRequestSize pins a request at 96 bytes on 64-bit platforms: the
// tenant slot shares the stage cursor's word instead of adding one.
func TestRequestSize(t *testing.T) {
	if unsafe.Sizeof(uintptr(0)) != 8 {
		t.Skip("request layout is pinned on 64-bit platforms")
	}
	if got := unsafe.Sizeof(Request{}); got != 96 {
		t.Errorf("Request is %d bytes, want 96", got)
	}
}

func TestBuilderLinksDependencies(t *testing.T) {
	m, cls, det := buildTestModel(t)
	d := m.Expert(det)
	if len(d.DependsOn) != 2 {
		t.Fatalf("detector depends on %d experts, want 2", len(d.DependsOn))
	}
	if len(m.Expert(cls[0]).Dependents) != 1 || m.Expert(cls[0]).Dependents[0] != det {
		t.Error("classifier 0 should list detector as dependent")
	}
	if len(m.Expert(cls[2]).Dependents) != 0 {
		t.Error("classifier 2 should have no dependents")
	}
}

func TestBuilderDuplicateLinkIgnored(t *testing.T) {
	b := NewBuilder("dup")
	c := b.AddExpert("c", model.ResNet101, Preliminary)
	d := b.AddExpert("d", model.YOLOv5m, Subsequent)
	b.Link(c, d)
	b.Link(c, d)
	b.AddRule(0, Rule{Classifier: c, Detector: d, PassProb: 1})
	m, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Expert(d).DependsOn) != 1 {
		t.Error("duplicate link created duplicate dependency")
	}
}

func TestBuilderRejectsBadLinks(t *testing.T) {
	b := NewBuilder("bad")
	c := b.AddExpert("c", model.ResNet101, Preliminary)
	d := b.AddExpert("d", model.YOLOv5m, Subsequent)
	b.Link(d, c) // reversed roles
	b.AddRule(0, Rule{Classifier: c})
	if _, err := b.Build(); err == nil {
		t.Error("reversed link not rejected")
	}
}

func TestBuilderRejectsBadRules(t *testing.T) {
	cases := map[string]func(*Builder, ExpertID, ExpertID){
		"classifier out of range": func(b *Builder, c, d ExpertID) {
			b.AddRule(0, Rule{Classifier: 99})
		},
		"non-preliminary classifier": func(b *Builder, c, d ExpertID) {
			b.AddRule(0, Rule{Classifier: d})
		},
		"non-subsequent detector": func(b *Builder, c, d ExpertID) {
			b.AddRule(0, Rule{Classifier: c, Detector: c, PassProb: 0.5})
		},
		"pass prob out of range": func(b *Builder, c, d ExpertID) {
			b.AddRule(0, Rule{Classifier: c, Detector: d, PassProb: 1.5})
		},
	}
	for name, corrupt := range cases {
		b := NewBuilder("bad")
		c := b.AddExpert("c", model.ResNet101, Preliminary)
		d := b.AddExpert("d", model.YOLOv5m, Subsequent)
		corrupt(b, c, d)
		if _, err := b.Build(); err == nil {
			t.Errorf("%s: not rejected", name)
		}
	}
}

func TestBuilderRejectsEmptyModelAndDuplicateRule(t *testing.T) {
	if _, err := NewBuilder("empty").Build(); err == nil {
		t.Error("empty model not rejected")
	}
	b := NewBuilder("dup")
	c := b.AddExpert("c", model.ResNet101, Preliminary)
	b.AddRule(0, Rule{Classifier: c})
	b.AddRule(0, Rule{Classifier: c})
	if _, err := b.Build(); err == nil {
		t.Error("duplicate rule not rejected")
	}
}

func TestRouteChains(t *testing.T) {
	m, cls, det := buildTestModel(t)
	r := m.Router()
	// u below pass prob -> classification passed -> detector stage.
	chain, err := r.AppendRoute(nil, 0, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if len(chain) != 2 || chain[0] != cls[0] || chain[1] != det {
		t.Errorf("chain = %v, want [%d %d]", chain, cls[0], det)
	}
	// u above pass prob -> failed -> classifier only.
	chain, err = r.AppendRoute(nil, 0, 0.95)
	if err != nil {
		t.Fatal(err)
	}
	if len(chain) != 1 {
		t.Errorf("failed classification chain = %v, want 1 stage", chain)
	}
	// class without detector.
	chain, err = r.AppendRoute(nil, 2, 0.0)
	if err != nil {
		t.Fatal(err)
	}
	if len(chain) != 1 || chain[0] != cls[2] {
		t.Errorf("detector-less chain = %v", chain)
	}
	if _, err := r.AppendRoute(nil, 42, 0.5); err == nil {
		t.Error("unknown class not rejected")
	}
}

func TestComputeUsage(t *testing.T) {
	m, cls, det := buildTestModel(t)
	probs := map[int]float64{0: 0.5, 1: 0.3, 2: 0.2}
	if err := ComputeUsage(m, probs); err != nil {
		t.Fatal(err)
	}
	if got := m.Expert(cls[0]).UsageProb; math.Abs(got-0.5) > 1e-12 {
		t.Errorf("cls0 usage = %v, want 0.5", got)
	}
	// Detector: 0.5*0.9 + 0.3*0.5 = 0.6.
	if got := m.Expert(det).UsageProb; math.Abs(got-0.6) > 1e-12 {
		t.Errorf("det usage = %v, want 0.6", got)
	}
	if err := ComputeUsage(m, map[int]float64{9: 1}); err == nil {
		t.Error("unroutable class not rejected")
	}
	if err := ComputeUsage(m, map[int]float64{0: -1}); err == nil {
		t.Error("negative probability not rejected")
	}
}

func TestEstimateUsage(t *testing.T) {
	m, cls, det := buildTestModel(t)
	chains := [][]ExpertID{
		{cls[0], det},
		{cls[0]},
		{cls[1], det},
		{cls[2]},
	}
	EstimateUsage(m, chains)
	if got := m.Expert(cls[0]).UsageProb; math.Abs(got-0.5) > 1e-12 {
		t.Errorf("cls0 estimated usage = %v, want 0.5", got)
	}
	if got := m.Expert(det).UsageProb; math.Abs(got-0.5) > 1e-12 {
		t.Errorf("det estimated usage = %v, want 0.5", got)
	}
	EstimateUsage(m, nil) // must not panic
}

func TestExpertsByUsageOrdering(t *testing.T) {
	m, _, _ := buildTestModel(t)
	if err := ComputeUsage(m, map[int]float64{0: 0.5, 1: 0.3, 2: 0.2}); err != nil {
		t.Fatal(err)
	}
	sorted := m.ExpertsByUsage()
	for i := 1; i < len(sorted); i++ {
		if sorted[i].UsageProb > sorted[i-1].UsageProb {
			t.Fatalf("not sorted by descending usage: %v then %v",
				sorted[i-1].UsageProb, sorted[i].UsageProb)
		}
	}
}

// TestExpertsByUsageTieOrder pins the order among equal usage
// probabilities: ascending ID within each level. The model is large
// enough that the sort does not fall back to insertion sort, and its
// levels interleave, so an order that leaned on stability would show.
func TestExpertsByUsageTieOrder(t *testing.T) {
	levels := []float64{0.25, 0, 0.5, 0.25}
	b := NewBuilder("ties")
	for i := 0; i < 40; i++ {
		b.AddExpert(fmt.Sprint("e", i), model.ResNet101, Preliminary)
	}
	m, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 40; i++ {
		m.Expert(ExpertID(39 - i)).UsageProb = levels[(i*7)%len(levels)]
	}
	var want []ExpertID
	for _, level := range []float64{0.5, 0.25, 0} {
		for id := ExpertID(0); id < 40; id++ {
			if m.Expert(id).UsageProb == level {
				want = append(want, id)
			}
		}
	}
	got := m.ExpertsByUsage()
	for i, e := range got {
		if e.ID != want[i] {
			t.Fatalf("position %d holds expert %d (usage %v), want %d", i, e.ID, e.UsageProb, want[i])
		}
	}
}

func TestUsageCDFShape(t *testing.T) {
	m, _, _ := buildTestModel(t)
	if err := ComputeUsage(m, map[int]float64{0: 0.5, 1: 0.3, 2: 0.2}); err != nil {
		t.Fatal(err)
	}
	cdf := m.UsageCDF()
	if len(cdf) != m.NumExperts() {
		t.Fatalf("CDF length = %d, want %d", len(cdf), m.NumExperts())
	}
	if !sort.Float64sAreSorted(cdf) {
		t.Error("CDF not monotone")
	}
	if math.Abs(cdf[len(cdf)-1]-1) > 1e-12 {
		t.Errorf("CDF final value = %v, want 1", cdf[len(cdf)-1])
	}
}

// Property: for any probability assignment, the usage CDF is monotone,
// bounded by [0,1], and ends at 1.
func TestUsageCDFProperty(t *testing.T) {
	prop := func(raw []uint8) bool {
		if len(raw) == 0 {
			return true
		}
		if len(raw) > 64 {
			raw = raw[:64]
		}
		b := NewBuilder("prop")
		var any bool
		for i, v := range raw {
			id := b.AddExpert("e", model.ResNet101, Preliminary)
			b.AddRule(i, Rule{Classifier: id})
			if v > 0 {
				any = true
			}
		}
		m, err := b.Build()
		if err != nil {
			return false
		}
		for i, v := range raw {
			m.Expert(ExpertID(i)).UsageProb = float64(v)
		}
		cdf := m.UsageCDF()
		if !any {
			return cdf == nil
		}
		prev := 0.0
		for _, c := range cdf {
			if c < prev-1e-12 || c < 0 || c > 1+1e-12 {
				return false
			}
			prev = c
		}
		return math.Abs(cdf[len(cdf)-1]-1) < 1e-9
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestRequestLifecycle(t *testing.T) {
	r := NewRequest(7, 3, []ExpertID{2, 5})
	if r.Expert() != 2 || r.Stage() != 0 || r.Stages() != 2 || r.Final() {
		t.Errorf("initial state wrong: %v", r)
	}
	if !r.Advance() {
		t.Fatal("Advance to stage 2 failed")
	}
	if r.Expert() != 5 || !r.Final() {
		t.Errorf("stage 2 state wrong: %v", r)
	}
	if r.Advance() {
		t.Error("Advance past final stage should report false")
	}
	if r.String() == "" {
		t.Error("empty String()")
	}
}

func TestRequestEmptyChainPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("no panic for empty chain")
		}
	}()
	NewRequest(1, 0, nil)
}

func TestModelAccessors(t *testing.T) {
	m, _, _ := buildTestModel(t)
	if m.Name() != "test" || m.NumExperts() != 4 {
		t.Error("accessors wrong")
	}
	want := 3*model.ResNet101.WeightBytes() + model.YOLOv5m.WeightBytes()
	if m.TotalWeightBytes() != want {
		t.Errorf("TotalWeightBytes = %d, want %d", m.TotalWeightBytes(), want)
	}
	classes := m.Router().Classes()
	if len(classes) != 3 || classes[0] != 0 || classes[2] != 2 {
		t.Errorf("Classes = %v", classes)
	}
	if Preliminary.String() != "preliminary" || Subsequent.String() != "subsequent" {
		t.Error("role strings wrong")
	}
}

func TestExpertOutOfRangePanics(t *testing.T) {
	m, _, _ := buildTestModel(t)
	defer func() {
		if recover() == nil {
			t.Error("no panic for out-of-range expert")
		}
	}()
	m.Expert(99)
}

// TestArchsIndexExpertsByName: Archs lists each architecture once,
// sorted by name, and maps every expert to its own architecture; a
// model past 256 architectures is refused, since the index is a byte.
func TestArchsIndexExpertsByName(t *testing.T) {
	b := NewBuilder("archs")
	arches := []model.Architecture{model.YOLOv5m, model.ResNet101, model.YOLOv5m, model.ResNet101, model.YOLOv5l}
	for i, a := range arches {
		b.AddRule(i, Rule{Classifier: b.AddExpert("e", a, Preliminary)})
	}
	m, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	archs, archOf := m.Archs()
	if len(archs) != 3 || !sort.SliceIsSorted(archs, func(i, j int) bool { return archs[i].Name < archs[j].Name }) {
		t.Fatalf("archs = %v, want the 3 distinct architectures sorted by name", archs)
	}
	for _, e := range m.Experts() {
		if got := archs[archOf[e.ID]]; got != e.Arch {
			t.Errorf("expert %d (%s) indexes architecture %s", e.ID, e.Arch.Name, got.Name)
		}
	}

	b = NewBuilder("too-many")
	for i := 0; i <= math.MaxUint8+1; i++ {
		a := model.ResNet101
		a.Name = fmt.Sprintf("arch%03d", i)
		b.AddRule(i, Rule{Classifier: b.AddExpert("e", a, Preliminary)})
	}
	if _, err := b.Build(); err == nil {
		t.Error("a model with 257 architectures built")
	}
}
