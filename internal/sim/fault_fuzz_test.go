package sim

import (
	"math"
	"strconv"
	"strings"
	"testing"
)

// formatFaultPlan writes a plan in ParseFaultPlan's text form: the
// inverse the fuzz target checks the parser against.
func formatFaultPlan(p *FaultPlan) string {
	if p.Empty() {
		return ""
	}
	toks := make([]string, len(p.Events))
	for i, ev := range p.Events {
		tok := ev.Kind.String() + "@" + ev.At.String() + ":" + strconv.Itoa(ev.Node)
		switch ev.Kind {
		case FaultSlow, FaultJitter:
			tok += "x" + strconv.FormatFloat(ev.Factor, 'g', -1, 64)
		case FaultStall:
			tok += "x" + ev.For.String()
		}
		toks[i] = tok
	}
	return strings.Join(toks, ",")
}

// samePlan compares two plans event by event, factors bitwise, so a NaN
// factor equals itself.
func samePlan(a, b *FaultPlan) bool {
	if a.Empty() || b.Empty() {
		return a.Empty() == b.Empty()
	}
	if len(a.Events) != len(b.Events) {
		return false
	}
	for i := range a.Events {
		x, y := a.Events[i], b.Events[i]
		if x.At != y.At || x.Node != y.Node || x.Kind != y.Kind || x.For != y.For ||
			math.Float64bits(x.Factor) != math.Float64bits(y.Factor) {
			return false
		}
	}
	return true
}

// FuzzParseFaultPlan: any text parses to a plan or an error, never a
// panic; a plan that parses validates against fleets of 1 to 8 nodes
// without a panic, and its text form parses back to the same events.
func FuzzParseFaultPlan(f *testing.F) {
	for _, seed := range []string{
		// The CLI goldens' and README's schedules.
		"crash@2s:1,recover@3.5s:1,drain@6s:2",
		"crash@2s:1,recover@3.5s:1,drain@6s:2,recover@8s:2",
		"slow@1s:1x150,recover@25s:1",
		"crash@2s:1,recover@4s:1",
		"jitter@1s:2x400",
		"stall@1s:1x12s",
		"slow@2s:1x4", "jitter@2s:1x8", "stall@2s:1x1.5s",
		// Inputs the CLI rejects.
		"slow@1s:1xInf", "slow@1s:1xNaN", "slow@1s:1x1e12", "jitter@1s:1x1e30",
		"slow@1s:1x1000000,jitter@1s:1x1000000", "stall@1s:1x2562047h",
		"crash@1s:1junk,recover@2s:1", "slow@1s:1x4junk",
		// Edge shapes.
		"", ",", " crash@1s: 1 , recover@2s:1 ", "crash@-1s:-1", "drain@1s:1x2", "slow@1s:1", "stall@1s:1",
		"warp@1s:1", "crash1s:1", "crash@1s", "slow@1s:1x0x1p3",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, spec string) {
		plan, err := ParseFaultPlan(spec)
		if err != nil {
			if plan != nil {
				t.Fatalf("%q: error %v with a plan", spec, err)
			}
			return
		}
		if spec != "" && plan.Empty() {
			t.Fatalf("%q: parsed to an empty plan", spec)
		}
		text := formatFaultPlan(plan)
		again, err := ParseFaultPlan(text)
		if err != nil {
			t.Fatalf("%q: formatted as %q, which does not parse: %v", spec, text, err)
		}
		if !samePlan(plan, again) {
			t.Fatalf("%q: round trip through %q gave %+v, want %+v", spec, text, again, plan)
		}
		for n := 1; n <= 8; n++ {
			_ = plan.Validate(n) // sorts in place; equal offsets keep their order
		}
	})
}
