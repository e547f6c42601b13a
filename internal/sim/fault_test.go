package sim

import (
	"math"
	"reflect"
	"strings"
	"testing"
	"time"
)

func TestFaultPlanValidateSortsAndChecksTransitions(t *testing.T) {
	// Out-of-declaration-order events sort by offset; the sorted plan is
	// a legal lifecycle for both nodes.
	p := &FaultPlan{Events: []FaultEvent{
		{At: 3 * time.Second, Node: 0, Kind: FaultRecover},
		{At: 1 * time.Second, Node: 0, Kind: FaultCrash},
		{At: 2 * time.Second, Node: 1, Kind: FaultDrain},
		{At: 4 * time.Second, Node: 1, Kind: FaultRecover},
	}}
	if err := p.Validate(2); err != nil {
		t.Fatalf("valid plan rejected: %v", err)
	}
	for i := 1; i < len(p.Events); i++ {
		if p.Events[i].At < p.Events[i-1].At {
			t.Fatalf("plan not sorted after Validate: %v", p.Events)
		}
	}

	bad := []struct {
		name string
		plan FaultPlan
		want string
	}{
		{"node out of range", FaultPlan{Events: []FaultEvent{{At: 1, Node: 2, Kind: FaultCrash}}}, "outside fleet"},
		{"negative offset", FaultPlan{Events: []FaultEvent{{At: -1, Node: 0, Kind: FaultCrash}}}, "negative offset"},
		{"double crash", FaultPlan{Events: []FaultEvent{
			{At: 1, Node: 0, Kind: FaultCrash}, {At: 2, Node: 0, Kind: FaultCrash}}}, "already down"},
		{"drain while down", FaultPlan{Events: []FaultEvent{
			{At: 1, Node: 0, Kind: FaultCrash}, {At: 2, Node: 0, Kind: FaultDrain}}}, "not up"},
		{"recover while up", FaultPlan{Events: []FaultEvent{{At: 1, Node: 0, Kind: FaultRecover}}}, "already up"},
		{"unknown kind", FaultPlan{Events: []FaultEvent{{At: 1, Node: 0, Kind: FaultKind(9)}}}, "unknown kind"},
	}
	for _, tc := range bad {
		err := tc.plan.Validate(2)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want mention of %q", tc.name, err, tc.want)
		}
	}

	var nilPlan *FaultPlan
	if !nilPlan.Empty() || nilPlan.Validate(4) != nil {
		t.Error("nil plan must be empty and valid")
	}
}

// TestFaultPlanEqualTimestampStableOrder pins the tie-break contract:
// events at the same offset fire in the order they appear in Events
// before the sort. The schedule below interleaves three nodes at one
// instant with unequal events around them; after Validate (which
// sorts), the equal-instant block must hold its declaration order
// exactly — a regression to an unstable sort would shuffle it.
func TestFaultPlanEqualTimestampStableOrder(t *testing.T) {
	const tie = 2 * time.Second
	p := &FaultPlan{Events: []FaultEvent{
		{At: 5 * time.Second, Node: 0, Kind: FaultRecover},
		{At: tie, Node: 2, Kind: FaultCrash},
		{At: tie, Node: 0, Kind: FaultCrash},
		{At: tie, Node: 1, Kind: FaultDrain},
		{At: 1 * time.Second, Node: 3, Kind: FaultSlow, Factor: 4},
		{At: tie, Node: 3, Kind: FaultRecover},
	}}
	if err := p.Validate(4); err != nil {
		t.Fatal(err)
	}
	wantNodes := []int{3, 2, 0, 1, 3, 0} // slow@1s, then the tie block in declaration order, then recover@5s
	for i, ev := range p.Events {
		if ev.Node != wantNodes[i] {
			t.Fatalf("event %d is node %d, want %d (order after sort: %v)", i, ev.Node, wantNodes[i], p.Events)
		}
	}
	// Validate re-sorts; a second pass must be a fixed point, not a
	// reshuffle.
	before := append([]FaultEvent(nil), p.Events...)
	if err := p.Validate(4); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(before, p.Events) {
		t.Fatalf("second Validate reordered the plan: %v -> %v", before, p.Events)
	}
}

// TestFaultPlanMixedScriptedGeneratedStableOrder covers the third plan
// shape the sortEvents contract names: a generated schedule appended
// onto a scripted one. A scripted event placed at exactly a generated
// event's offset must still fire before it (the scripted block precedes
// the generated block in Events), and the merged plan must validate.
func TestFaultPlanMixedScriptedGeneratedStableOrder(t *testing.T) {
	gen, err := GenerateFaultPlan(4, 2*time.Second, 500*time.Millisecond, 10*time.Second, 42)
	if err != nil {
		t.Fatal(err)
	}
	if gen.Empty() {
		t.Fatal("generator produced no events")
	}
	tie := gen.Events[len(gen.Events)/2].At
	// Scripted events on nodes outside the generated fleet, one of them
	// colliding exactly with a generated offset.
	scripted := []FaultEvent{
		{At: tie, Node: 4, Kind: FaultDrain},
		{At: tie, Node: 5, Kind: FaultSlow, Factor: 8},
	}
	mixed := &FaultPlan{Events: append(append([]FaultEvent(nil), scripted...), gen.Events...)}
	if err := mixed.Validate(6); err != nil {
		t.Fatalf("mixed plan invalid: %v", err)
	}
	var atTie []FaultEvent
	for _, ev := range mixed.Events {
		if ev.At == tie {
			atTie = append(atTie, ev)
		}
	}
	if len(atTie) < 3 {
		t.Fatalf("expected scripted pair plus >= 1 generated event at %v, got %v", tie, atTie)
	}
	if atTie[0].Node != 4 || atTie[1].Node != 5 {
		t.Fatalf("scripted events did not keep their slot ahead of the generated ones: %v", atTie)
	}
	for _, ev := range atTie[2:] {
		if ev.Node >= 4 {
			t.Fatalf("scripted event sorted after generated at %v: %v", tie, atTie)
		}
	}
}

// TestFaultPlanValidateGrayKinds checks the gray-fault arcs of the
// lifecycle machine: parameter validation, recover legality on a
// degraded-but-Up node, and rejection of gray events on Down nodes.
func TestFaultPlanValidateGrayKinds(t *testing.T) {
	good := []struct {
		name string
		plan FaultPlan
	}{
		{"slow then recover on up node", FaultPlan{Events: []FaultEvent{
			{At: 1, Node: 0, Kind: FaultSlow, Factor: 4},
			{At: 2, Node: 0, Kind: FaultRecover}}}},
		{"jitter replaced by slow then recovered", FaultPlan{Events: []FaultEvent{
			{At: 1, Node: 0, Kind: FaultJitter, Factor: 8},
			{At: 2, Node: 0, Kind: FaultSlow, Factor: 2},
			{At: 3, Node: 0, Kind: FaultRecover}}}},
		{"stall is self-clearing, no recover needed", FaultPlan{Events: []FaultEvent{
			{At: 1, Node: 0, Kind: FaultStall, For: time.Second},
			{At: 5, Node: 0, Kind: FaultStall, For: time.Second}}}},
		{"gray on draining node", FaultPlan{Events: []FaultEvent{
			{At: 1, Node: 0, Kind: FaultDrain},
			{At: 2, Node: 0, Kind: FaultSlow, Factor: 3},
			{At: 3, Node: 0, Kind: FaultRecover}}}},
		{"parameters at their ceilings", FaultPlan{Events: []FaultEvent{
			{At: 1, Node: 0, Kind: FaultSlow, Factor: maxGrayFactor},
			{At: 1, Node: 0, Kind: FaultJitter, Factor: maxGrayFactor},
			{At: 2, Node: 0, Kind: FaultStall, For: maxStall}}}},
	}
	for _, tc := range good {
		if err := tc.plan.Validate(1); err != nil {
			t.Errorf("%s: rejected: %v", tc.name, err)
		}
	}

	bad := []struct {
		name string
		plan FaultPlan
		want string
	}{
		{"slow factor 1", FaultPlan{Events: []FaultEvent{
			{At: 1, Node: 0, Kind: FaultSlow, Factor: 1}}}, "Factor > 1"},
		{"jitter factor 0", FaultPlan{Events: []FaultEvent{
			{At: 1, Node: 0, Kind: FaultJitter}}}, "Factor > 1"},
		{"stall without window", FaultPlan{Events: []FaultEvent{
			{At: 1, Node: 0, Kind: FaultStall}}}, "For > 0"},
		// Unbounded parameters would overflow a degraded batch's service
		// time or the stall's end instant on the virtual clock.
		{"slow factor NaN", FaultPlan{Events: []FaultEvent{
			{At: 1, Node: 0, Kind: FaultSlow, Factor: math.NaN()}}}, "at most"},
		{"slow factor +Inf", FaultPlan{Events: []FaultEvent{
			{At: 1, Node: 0, Kind: FaultSlow, Factor: math.Inf(1)}}}, "at most"},
		{"slow factor 1e12", FaultPlan{Events: []FaultEvent{
			{At: 1, Node: 0, Kind: FaultSlow, Factor: 1e12}}}, "at most"},
		{"jitter factor 1e30", FaultPlan{Events: []FaultEvent{
			{At: 1, Node: 0, Kind: FaultJitter, Factor: 1e30}}}, "at most"},
		{"jitter just above the ceiling", FaultPlan{Events: []FaultEvent{
			{At: 1, Node: 0, Kind: FaultJitter, Factor: maxGrayFactor * 1.001}}}, "at most"},
		{"stall past the ceiling", FaultPlan{Events: []FaultEvent{
			{At: 1, Node: 0, Kind: FaultStall, For: 2562047 * time.Hour}}}, "at most"},
		{"slow on crashed node", FaultPlan{Events: []FaultEvent{
			{At: 1, Node: 0, Kind: FaultCrash},
			{At: 2, Node: 0, Kind: FaultSlow, Factor: 4}}}, "down"},
		{"stall on crashed node", FaultPlan{Events: []FaultEvent{
			{At: 1, Node: 0, Kind: FaultCrash},
			{At: 2, Node: 0, Kind: FaultStall, For: time.Second}}}, "down"},
		// A crash wipes degradation with the rest of the node's state, so
		// a post-restart recover has nothing to clear.
		{"recover after crash cleared degradation", FaultPlan{Events: []FaultEvent{
			{At: 1, Node: 0, Kind: FaultSlow, Factor: 4},
			{At: 2, Node: 0, Kind: FaultCrash},
			{At: 3, Node: 0, Kind: FaultRecover},
			{At: 4, Node: 0, Kind: FaultRecover}}}, "already up"},
	}
	for _, tc := range bad {
		err := tc.plan.Validate(1)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want mention of %q", tc.name, err, tc.want)
		}
	}
}

func TestGenerateFaultPlanDeterministicAndRecoversEveryCrash(t *testing.T) {
	gen := func() *FaultPlan {
		p, err := GenerateFaultPlan(4, 2*time.Second, 500*time.Millisecond, 10*time.Second, 42)
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	a, b := gen(), gen()
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same arguments generated different plans")
	}
	if a.Empty() {
		t.Fatal("10s horizon at 2s MTBF over 4 nodes generated no faults")
	}
	if err := a.Validate(4); err != nil {
		t.Fatalf("generated plan invalid: %v", err)
	}
	// Every crash has its matching recover — no node is left down
	// forever, so no generated schedule strands voided work.
	crashes := make(map[int]int)
	for _, ev := range a.Events {
		switch ev.Kind {
		case FaultCrash:
			crashes[ev.Node]++
		case FaultRecover:
			crashes[ev.Node]--
		default:
			t.Fatalf("generated plan contains %v", ev.Kind)
		}
	}
	for node, n := range crashes {
		if n != 0 {
			t.Errorf("node %d: %d crash(es) without a recover", node, n)
		}
	}

	if _, err := GenerateFaultPlan(0, time.Second, time.Second, time.Second, 1); err == nil {
		t.Error("zero nodes accepted")
	}
	if _, err := GenerateFaultPlan(1, 0, time.Second, time.Second, 1); err == nil {
		t.Error("zero mtbf accepted")
	}
}

func TestFaultPlanRunFiresAtOffsetsInPlanOrder(t *testing.T) {
	p := &FaultPlan{Events: []FaultEvent{
		{At: 10 * time.Millisecond, Node: 0, Kind: FaultCrash},
		{At: 30 * time.Millisecond, Node: 1, Kind: FaultDrain},
		{At: 30 * time.Millisecond, Node: 0, Kind: FaultRecover}, // same instant, declaration order
	}}
	if err := p.Validate(2); err != nil {
		t.Fatal(err)
	}
	env := NewEnv()
	type firing struct {
		at time.Duration
		ev FaultEvent
	}
	var got []firing
	p.Run(env, func(ev FaultEvent) {
		got = append(got, firing{env.Now().Duration(), ev})
	})
	env.Run()
	want := []firing{
		{10 * time.Millisecond, p.Events[0]},
		{30 * time.Millisecond, p.Events[1]},
		{30 * time.Millisecond, p.Events[2]},
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("firings = %v, want %v", got, want)
	}

	// An empty plan's Run schedules nothing and never touches the clock.
	env2 := NewEnv()
	(&FaultPlan{}).Run(env2, func(FaultEvent) { t.Error("empty plan fired") })
	if end := env2.Run(); end != 0 {
		t.Errorf("empty plan advanced the clock to %v", end)
	}
}
