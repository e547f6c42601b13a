package sim

import (
	"cmp"
	"fmt"
	"math/rand"
	"slices"
	"strconv"
	"strings"
	"time"
)

// FaultKind is one node-lifecycle transition a fault plan can inject.
type FaultKind int

const (
	// FaultCrash kills a node abruptly: queued and in-flight work on it
	// is voided and must be redelivered by whoever dispatched it.
	FaultCrash FaultKind = iota
	// FaultDrain takes a node out of routing gracefully: it accepts no
	// new work but finishes what it already holds.
	FaultDrain
	// FaultRecover returns a crashed node to service, cancels a drain, or
	// clears a gray degradation (slow/jitter) from an otherwise-up node.
	FaultRecover

	// The kinds below are gray (performance) faults: the node stays Up
	// and keeps its state, but its executors run against scaled timings.
	// A gray fault is cleared by FaultRecover, replaced by a later gray
	// event on the same node, or wiped by a crash (restart resets it).

	// FaultSlow multiplies the node's per-batch service time by Factor
	// (> 1) until recovered — the classic fail-slow straggler.
	FaultSlow
	// FaultJitter inflates each batch's service time by a seeded random
	// factor uniform in [1, Factor] — noisy degradation rather than a
	// constant slowdown. The per-node RNG is seeded from the event, so
	// runs stay byte-identical.
	FaultJitter
	// FaultStall freezes the node for the window For: batches starting
	// inside the window do not finish before it ends. The node loses no
	// state and resumes by itself — no recover event is needed.
	FaultStall
)

func (k FaultKind) String() string {
	switch k {
	case FaultCrash:
		return "crash"
	case FaultDrain:
		return "drain"
	case FaultRecover:
		return "recover"
	case FaultSlow:
		return "slow"
	case FaultJitter:
		return "jitter"
	case FaultStall:
		return "stall"
	}
	return fmt.Sprintf("FaultKind(%d)", int(k))
}

// FaultEvent is one scheduled lifecycle transition: at offset At from the
// stream start, node Node undergoes Kind. Factor parameterizes the gray
// kinds FaultSlow and FaultJitter (service-time multiplier, > 1); For is
// FaultStall's freeze window. Both are zero for the fail-stop kinds.
type FaultEvent struct {
	At     time.Duration
	Node   int
	Kind   FaultKind
	Factor float64
	For    time.Duration
}

// FaultPlan is a deterministic schedule of node lifecycle transitions.
// The env owner (the cluster layer) fires the events from callbacks on
// the shared env, so a given plan produces byte-identical runs. A nil or
// empty plan means no faults — the zero-fault configuration.
type FaultPlan struct {
	Events []FaultEvent
}

// Empty reports whether the plan injects nothing.
func (p *FaultPlan) Empty() bool { return p == nil || len(p.Events) == 0 }

// sortEvents orders the plan by time, breaking ties by declaration order
// (stable), so equal-instant events fire deterministically.
//
// The tie-break is load-bearing and part of the plan contract: two events
// at the same offset fire in the order they appear in Events *before the
// sort* — declaration order for scripted plans, per-node generation order
// for GenerateFaultPlan, and scripted-then-generated when a caller
// appends a generated schedule onto a scripted one. The stable sort
// (slices.SortStableFunc, never slices.SortFunc) is what preserves it;
// fault_test.go pins the guarantee for all three plan shapes.
func (p *FaultPlan) sortEvents() {
	slices.SortStableFunc(p.Events, func(a, b FaultEvent) int {
		return cmp.Compare(a.At, b.At)
	})
}

// maxGrayFactor and maxStall are the ceilings Validate puts on gray-fault
// parameters, so a degraded batch's service time stays far inside the
// virtual clock's range: slow and jitter compose multiplicatively, so
// together they scale a batch by at most maxGrayFactor², and a stall adds
// at most maxStall. The largest values in use are 400× and 12 s.
const (
	maxGrayFactor = 1e3
	maxStall      = 24 * time.Hour
)

// Validate sorts the plan by event time (stable, so equal-instant events
// keep declaration order) and checks it against a fleet of nodes: every
// event must name a node in [0, nodes), carry a non-negative offset, and
// follow the per-node lifecycle state machine — starting Up, a node may
// crash (Up or Draining → Down), drain (Up → Draining), or recover
// (Down or Draining → Up, or clearing a gray degradation from an Up
// node). Gray kinds apply to any node that is not Down: slow and jitter
// need a Factor in (1, maxGrayFactor] and mark the node degraded until a
// recover, a replacement gray event, or a crash; stall needs For in
// (0, maxStall] and is self-clearing.
func (p *FaultPlan) Validate(nodes int) error {
	if p.Empty() {
		return nil
	}
	p.sortEvents()
	const (
		up = iota
		draining
		down
	)
	state := make([]int, nodes)
	degraded := make([]bool, nodes)
	for i, ev := range p.Events {
		if ev.Node < 0 || ev.Node >= nodes {
			return fmt.Errorf("sim: fault plan event %d names node %d outside fleet of %d", i, ev.Node, nodes)
		}
		if ev.At < 0 {
			return fmt.Errorf("sim: fault plan event %d (%s node %d) at negative offset %v", i, ev.Kind, ev.Node, ev.At)
		}
		s := state[ev.Node]
		switch ev.Kind {
		case FaultCrash:
			if s == down {
				return fmt.Errorf("sim: fault plan event %d crashes node %d which is already down", i, ev.Node)
			}
			state[ev.Node] = down
			degraded[ev.Node] = false
		case FaultDrain:
			if s != up {
				return fmt.Errorf("sim: fault plan event %d drains node %d which is not up", i, ev.Node)
			}
			state[ev.Node] = draining
		case FaultRecover:
			if s == up && !degraded[ev.Node] {
				return fmt.Errorf("sim: fault plan event %d recovers node %d which is already up", i, ev.Node)
			}
			state[ev.Node] = up
			degraded[ev.Node] = false
		case FaultSlow, FaultJitter:
			if s == down {
				return fmt.Errorf("sim: fault plan event %d applies %s to node %d which is down", i, ev.Kind, ev.Node)
			}
			if !(ev.Factor > 1 && ev.Factor <= maxGrayFactor) { // also rejects NaN
				return fmt.Errorf("sim: fault plan event %d (%s node %d) needs Factor > 1 and at most %g, got %g",
					i, ev.Kind, ev.Node, maxGrayFactor, ev.Factor)
			}
			degraded[ev.Node] = true
		case FaultStall:
			if s == down {
				return fmt.Errorf("sim: fault plan event %d stalls node %d which is down", i, ev.Node)
			}
			if ev.For <= 0 || ev.For > maxStall {
				return fmt.Errorf("sim: fault plan event %d (stall node %d) needs For > 0 and at most %v, got %v", i, ev.Node, maxStall, ev.For)
			}
		default:
			return fmt.Errorf("sim: fault plan event %d has unknown kind %d", i, int(ev.Kind))
		}
	}
	return nil
}

// ParseFaultPlan reads a plan's text form: comma-separated
// kind@offset:node events, e.g. "crash@2s:1,recover@3.5s:1,drain@6s:2",
// with each kind spelled as FaultKind.String gives it. The gray kinds
// take a parameter after the node, separated by 'x': "slow@2s:1x4"
// multiplies node 1's service time by 4 from 2s on, "jitter@2s:1x8"
// inflates each batch by a seeded factor in [1, 8], and "stall@2s:1x1.5s"
// freezes the node for 1.5s. Node numbers and factors are strict: the
// whole field must be the number, spaces around it aside. An empty spec
// is the empty (nil) plan; a non-empty one must hold an event. Parsing
// checks the text only; Validate checks the plan against a fleet.
func ParseFaultPlan(spec string) (*FaultPlan, error) {
	if spec == "" {
		return nil, nil
	}
	plan := &FaultPlan{}
	for _, tok := range strings.Split(spec, ",") {
		tok = strings.TrimSpace(tok)
		if tok == "" {
			continue
		}
		ev, err := parseFaultEvent(tok)
		if err != nil {
			return nil, fmt.Errorf("sim: bad fault event %q: %w", tok, err)
		}
		plan.Events = append(plan.Events, ev)
	}
	if plan.Empty() {
		return nil, fmt.Errorf("sim: fault plan %q contains no events", spec)
	}
	return plan, nil
}

// parseFaultEvent reads one kind@offset:node[xPARAM] event.
func parseFaultEvent(tok string) (FaultEvent, error) {
	var ev FaultEvent
	kindStr, rest, ok := strings.Cut(tok, "@")
	if !ok {
		return ev, fmt.Errorf("want kind@offset:node")
	}
	ev.Kind = -1
	for k := FaultCrash; k <= FaultStall; k++ {
		if k.String() == kindStr {
			ev.Kind = k
		}
	}
	if ev.Kind < 0 {
		return ev, fmt.Errorf("unknown kind %q (want crash, drain, recover, slow, jitter, stall)", kindStr)
	}
	offStr, nodeStr, ok := strings.Cut(rest, ":")
	if !ok {
		return ev, fmt.Errorf("want kind@offset:node")
	}
	var err error
	if ev.At, err = time.ParseDuration(offStr); err != nil {
		return ev, err
	}
	// Gray kinds carry a parameter after the node: nodexPARAM, where
	// PARAM is a multiplier (slow, jitter) or a duration (stall).
	nodeStr, param, hasParam := strings.Cut(nodeStr, "x")
	switch {
	case ev.Kind == FaultSlow || ev.Kind == FaultJitter:
		if !hasParam {
			return ev, fmt.Errorf("%s needs a factor, e.g. %s@2s:1x4", ev.Kind, ev.Kind)
		}
		if ev.Factor, err = strconv.ParseFloat(strings.TrimSpace(param), 64); err != nil {
			return ev, fmt.Errorf("factor %q is not a number", param)
		}
	case ev.Kind == FaultStall:
		if !hasParam {
			return ev, fmt.Errorf("stall needs a duration, e.g. stall@2s:1x1.5s")
		}
		if ev.For, err = time.ParseDuration(param); err != nil {
			return ev, err
		}
	case hasParam:
		return ev, fmt.Errorf("%s takes no parameter", ev.Kind)
	}
	if ev.Node, err = strconv.Atoi(strings.TrimSpace(nodeStr)); err != nil {
		return ev, fmt.Errorf("node %q is not an integer", nodeStr)
	}
	return ev, nil
}

// GenerateFaultPlan builds an MTBF-style schedule: each node alternates
// exponentially distributed up intervals (mean mtbf) and down intervals
// (mean mttr), crashing and recovering, until its next crash would fall
// past the horizon. A crash inside the horizon always gets its matching
// recover event — possibly past the horizon — so generated plans never
// strand voided work with the whole fleet down forever. The schedule is
// a pure function of its arguments (seeded math/rand), so a given
// configuration yields a byte-identical run.
func GenerateFaultPlan(nodes int, mtbf, mttr, horizon time.Duration, seed int64) (*FaultPlan, error) {
	if nodes <= 0 {
		return nil, fmt.Errorf("sim: GenerateFaultPlan needs at least one node, got %d", nodes)
	}
	if mtbf <= 0 || mttr <= 0 || horizon <= 0 {
		return nil, fmt.Errorf("sim: GenerateFaultPlan needs positive mtbf, mttr, and horizon (got %v, %v, %v)", mtbf, mttr, horizon)
	}
	rng := rand.New(rand.NewSource(seed))
	p := &FaultPlan{}
	for node := 0; node < nodes; node++ {
		t := time.Duration(0)
		for {
			t += time.Duration(rng.ExpFloat64() * float64(mtbf))
			if t >= horizon {
				break
			}
			p.Events = append(p.Events, FaultEvent{At: t, Node: node, Kind: FaultCrash})
			t += time.Duration(rng.ExpFloat64() * float64(mttr))
			p.Events = append(p.Events, FaultEvent{At: t, Node: node, Kind: FaultRecover})
			if t >= horizon {
				break
			}
		}
	}
	p.sortEvents()
	return p, nil
}

// Run walks the plan from the current virtual time, handing each event
// to fire at its offset from the time of the call. The walk starts in a
// callback scheduled at the current instant, after the events already
// due now, and re-arms itself at each next offset; equal-offset events
// fire back to back at the same instant, in plan order.
func (p *FaultPlan) Run(env *Env, fire func(FaultEvent)) {
	if p.Empty() {
		return
	}
	start, i := env.Now(), 0
	var step func()
	step = func() {
		for ; i < len(p.Events); i++ {
			ev := p.Events[i]
			if wait := start.Add(ev.At).Sub(env.Now()); wait > 0 {
				env.After(wait, step)
				return
			}
			fire(ev)
		}
	}
	env.After(0, step)
}
