package workload

import (
	"fmt"
	"math"
	"math/rand"
	"time"

	"repro/internal/coe"
	"repro/internal/sim"
)

// TimedRequest is one request paired with its arrival offset from the
// start of its stream. Offsets are non-decreasing within a source.
type TimedRequest struct {
	Req *coe.Request
	// At is the arrival time relative to the first instant of the stream.
	At time.Duration
}

// Source yields a finite stream of timed requests: the arrival-process
// abstraction the serving layer consumes. A Source is single-use — Next
// walks the stream once — and deterministic: the same construction
// parameters always yield the same stream.
type Source interface {
	// Name identifies the stream in reports and traces.
	Name() string
	// Next returns the next request, or ok=false when the stream is
	// exhausted.
	Next() (tr TimedRequest, ok bool)
}

// sampler draws request chains from a board's distribution. Requests
// are leased from the arena's free list and routed in place, so a stream
// whose requests the serving layer recycles allocates none once the pool
// is warm.
type sampler struct {
	board *Board
	rng   *rand.Rand
	next  int64
	arena *coe.Arena
}

// newSampler seeds a sampler over board that leases from arena, or from
// a private arena when arena is nil.
func newSampler(board *Board, seed int64, arena *coe.Arena) sampler {
	if arena == nil {
		arena = coe.NewArena()
	}
	return sampler{board: board, rng: rand.New(rand.NewSource(seed)), arena: arena}
}

// draw produces the next request: one uniform draw for the class, then
// one for the routing pass outcome.
func (s *sampler) draw() *coe.Request {
	class := s.board.SampleType(s.rng.Float64())
	u := s.rng.Float64()
	r := s.arena.Lease()
	chain, err := s.board.Model.Router().AppendRoute(r.Chain, class, u)
	if err != nil {
		// Every Board constructor checks that each class has a rule.
		panic("workload: stream routing failed: " + err.Error())
	}
	r.Chain, r.ID, r.Class = chain, s.next, class
	s.next++
	return r
}

// sampled is the one arrival generator: Poisson, Steady, Bursty and Task
// streams all draw their requests from a sampler and time them by one of
// two rules. With a positive rate, each arrival sits one exponential gap
// after its predecessor (the first after the stream's start), the gap
// drawn after the request's own draws. Otherwise arrivals come every
// period during ON windows of length on, separated by idle OFF windows
// of length off; a Task is one window that never closes.
type sampled struct {
	name    string
	sampler sampler
	// n bounds the stream length; 0 means unbounded.
	n, emitted      int
	rate            float64
	period, on, off time.Duration
	// at is the last arrival under exponential gaps and the next one
	// under windows; onEnd ends the current ON window.
	at, onEnd time.Duration
}

func (s *sampled) Name() string { return s.name }

// Model reports the CoE model the stream's chains route over; the
// serving layer checks it against the System's model.
func (s *sampled) Model() *coe.Model { return s.sampler.board.Model }

// Unbounded marks a stream with no length bound: it must be wrapped in a
// Horizon before serving or draining.
func (s *sampled) Unbounded() bool { return s.n == 0 }

func (s *sampled) Next() (TimedRequest, bool) {
	if s.n > 0 && s.emitted >= s.n {
		return TimedRequest{}, false
	}
	s.emitted++
	tr := TimedRequest{Req: s.sampler.draw()}
	if s.rate > 0 {
		gap := s.sampler.rng.ExpFloat64() / s.rate
		s.at += time.Duration(gap * float64(time.Second))
		tr.At = s.at
		return tr, true
	}
	if s.at >= s.onEnd {
		// The window closed before this arrival: idle through OFF and
		// restart arrivals at the top of the next ON window.
		s.at = s.onEnd + s.off
		s.onEnd = s.at + s.on
	}
	tr.At = s.at
	s.at += s.period
	return tr, true
}

// Stream returns the task as a closed-loop fixed-period source: the
// paper's arrival process (§5.1, one image every ArrivalPeriod), with
// arrival offsets i*ArrivalPeriod. Requests are drawn lazily from a
// private arena, so a serving layer that recycles them reuses a handful
// of request objects for the whole task.
func (t Task) Stream() (Source, error) {
	if t.Board == nil {
		return nil, fmt.Errorf("workload: task %q needs a board", t.Name)
	}
	if t.N < 1 {
		return nil, fmt.Errorf("workload: task %q has no requests", t.Name)
	}
	if t.ArrivalPeriod < 0 {
		return nil, fmt.Errorf("workload: task %q has negative arrival period", t.Name)
	}
	return &sampled{
		name: t.Name, sampler: newSampler(t.Board, t.Seed, nil), n: t.N,
		period: t.ArrivalPeriod, onEnd: math.MaxInt64,
	}, nil
}

// Poisson is an open-loop arrival process: N requests against a board
// with exponentially distributed interarrival gaps at the target Rate
// (requests per second). The same spec always yields the same stream.
type Poisson struct {
	Name string
	// Board supplies the class distribution and routing rules.
	Board *Board
	// Rate is the offered load in requests per second.
	Rate float64
	// N is the stream length.
	N int
	// Seed drives both the arrival gaps and the request contents.
	Seed int64
	// Arena is the free list the stream leases its requests from and
	// the serving layer recycles them into, so request allocation is
	// O(in-flight) rather than O(stream length). Nil gives the source a
	// private arena; set it to share one pool across streams (or with a
	// cluster's redelivered copies). The stream contents are identical
	// either way.
	Arena *coe.Arena
}

// NewSource validates the spec and returns the stream.
func (p Poisson) NewSource() (Source, error) {
	if p.Board == nil {
		return nil, fmt.Errorf("workload: poisson %q needs a board", p.Name)
	}
	if p.Rate <= 0 {
		return nil, fmt.Errorf("workload: poisson %q rate %f must be positive", p.Name, p.Rate)
	}
	if p.N < 1 {
		return nil, fmt.Errorf("workload: poisson %q has no requests", p.Name)
	}
	return &sampled{name: p.Name, sampler: newSampler(p.Board, p.Seed, p.Arena), n: p.N, rate: p.Rate}, nil
}

// Bursty is an on/off arrival process: fixed-period arrivals at Period
// during ON windows of duration On, separated by idle OFF windows of
// duration Off. It models the shift-change and batch-release traffic a
// production line sees between steady closed-loop phases.
type Bursty struct {
	Name  string
	Board *Board
	// Period is the interarrival gap inside an ON window.
	Period time.Duration
	// On and Off are the window durations.
	On, Off time.Duration
	// N is the stream length.
	N int
	// Seed drives the request contents.
	Seed int64
	// Arena is the request free list (see Poisson.Arena); nil gives the
	// source a private one.
	Arena *coe.Arena
}

// NewSource validates the spec and returns the stream.
func (b Bursty) NewSource() (Source, error) {
	if b.Board == nil {
		return nil, fmt.Errorf("workload: bursty %q needs a board", b.Name)
	}
	if b.Period <= 0 || b.On <= 0 || b.Off < 0 {
		return nil, fmt.Errorf("workload: bursty %q needs positive period and on-window", b.Name)
	}
	if b.N < 1 {
		return nil, fmt.Errorf("workload: bursty %q has no requests", b.Name)
	}
	return &sampled{
		name: b.Name, sampler: newSampler(b.Board, b.Seed, b.Arena), n: b.N,
		period: b.Period, on: b.On, off: b.Off, onEnd: b.On,
	}, nil
}

// Steady is an infinite open-loop Poisson arrival process: the
// steady-state counterpart of Poisson, for serving runs that measure
// windowed long-run behavior instead of a fixed request count. A Steady
// stream never closes on its own — it must be bounded by a Horizon
// before the serving layer will accept it, and Drain refuses it.
type Steady struct {
	Name string
	// Board supplies the class distribution and routing rules.
	Board *Board
	// Rate is the offered load in requests per second.
	Rate float64
	// Seed drives both the arrival gaps and the request contents.
	Seed int64
	// Arena is the request free list that keeps an unbounded stream's
	// allocation footprint O(in-flight) (see Poisson.Arena); nil gives
	// the source a private one.
	Arena *coe.Arena
}

// NewSource validates the spec and returns the (unbounded) stream.
func (s Steady) NewSource() (Source, error) {
	if s.Board == nil {
		return nil, fmt.Errorf("workload: steady %q needs a board", s.Name)
	}
	if s.Rate <= 0 {
		return nil, fmt.Errorf("workload: steady %q rate %f must be positive", s.Name, s.Rate)
	}
	return &sampled{name: s.Name, sampler: newSampler(s.Board, s.Seed, s.Arena), rate: s.Rate}, nil
}

// Horizon bounds a source at a virtual-time horizon: the wrapped stream
// ends with the last request arriving at or before d. It is how an
// infinite steady-state source (Steady) terminates — the serving layer
// then drains the admitted backlog and reports as usual. Wrapping a
// finite source simply truncates it.
func Horizon(src Source, d time.Duration) Source {
	if d < 0 {
		panic("workload: negative horizon")
	}
	return &horizonSource{src: src, limit: d}
}

type horizonSource struct {
	src    Source
	limit  time.Duration
	closed bool
}

func (h *horizonSource) Name() string { return h.src.Name() }

// Model forwards the wrapped source's model, if it exposes one.
func (h *horizonSource) Model() *coe.Model { return modelOf(h.src) }

func (h *horizonSource) Next() (TimedRequest, bool) {
	if h.closed {
		return TimedRequest{}, false
	}
	tr, ok := h.src.Next()
	if !ok || tr.At > h.limit {
		h.closed = true
		return TimedRequest{}, false
	}
	return tr, true
}

// Play feeds src to deliver on env. In a callback scheduled at the
// current instant, after the events already due now, it starts handing
// each request to deliver at its due time — its At offset from that
// instant — in stream order, re-arming itself at the next request's due
// time, and it calls closed once the source is exhausted. Requests due
// at one instant are delivered back to back.
func Play(env *sim.Env, src Source, deliver func(now sim.Time, tr TimedRequest), closed func(now sim.Time)) {
	start := env.Now()
	var due TimedRequest
	waiting := false
	var step func()
	step = func() {
		now := env.Now()
		if waiting {
			deliver(now, due)
			due, waiting = TimedRequest{}, false
		}
		for {
			tr, ok := src.Next()
			if !ok {
				closed(now)
				return
			}
			if wait := start.Add(tr.At).Sub(now); wait > 0 {
				due, waiting = tr, true
				env.After(wait, step)
				return
			}
			deliver(now, tr)
		}
	}
	env.After(0, step)
}

// IsUnbounded reports whether the source yields an infinite stream (it
// implements `Unbounded() bool` and reports true). Unbounded sources
// must be wrapped in a Horizon before they are served or drained.
func IsUnbounded(src Source) bool {
	u, ok := src.(interface{ Unbounded() bool })
	return ok && u.Unbounded()
}

// modelOf reports the CoE model src's chains route over, or nil when the
// source does not say.
func modelOf(src Source) *coe.Model {
	if m, ok := src.(interface{ Model() *coe.Model }); ok {
		return m.Model()
	}
	return nil
}

// CheckStream rejects a source the serving layers cannot serve over
// model m: an unbounded one, which would keep the arrival loop alive
// forever, and one whose chains come from another model.
func CheckStream(src Source, m *coe.Model) error {
	if IsUnbounded(src) {
		return fmt.Errorf("stream %q is unbounded; wrap it in workload.Horizon to give it a terminating horizon",
			src.Name())
	}
	if sm := modelOf(src); sm != nil && sm != m {
		return fmt.Errorf("stream %q draws from model %q, not the served model %q",
			src.Name(), sm.Name(), m.Name())
	}
	return nil
}

// Mix interleaves several tenants' streams into one multi-tenant stream
// ordered by arrival time, with ties broken by tenant order. Request IDs
// are renumbered to be unique across the mix; each request's Tenant
// names its tenant (a request that already names one, from a nested
// mix or a replayed trace, keeps it). All tenant sources must draw
// their chains from the same CoE model — the model the serving System
// is built over.
type Mix struct {
	Name    string
	Tenants []Source
}

type mixSource struct {
	name  string
	model *coe.Model
	// heads[i] holds tenant i's next pending request; ok[i] marks it
	// valid.
	tenants []Source
	heads   []TimedRequest
	ok      []bool
	next    int64
}

// NewSource validates the mix and returns the merged stream.
func (m Mix) NewSource() (Source, error) {
	if len(m.Tenants) == 0 {
		return nil, fmt.Errorf("workload: mix %q has no tenants", m.Name)
	}
	// Tenant names key the per-tenant report slices; duplicates would
	// silently merge two streams into one row. Tenants must also draw
	// their chains from one CoE model — expert IDs are only meaningful
	// within the model the serving System hosts (merge boards with
	// MergeBoards first).
	names := make(map[string]struct{}, len(m.Tenants))
	var model *coe.Model
	for _, t := range m.Tenants {
		if _, dup := names[t.Name()]; dup {
			return nil, fmt.Errorf("workload: mix %q has two tenants named %q", m.Name, t.Name())
		}
		names[t.Name()] = struct{}{}
		switch tm := modelOf(t); {
		case model == nil:
			model = tm
		case tm != nil && tm != model:
			return nil, fmt.Errorf("workload: mix %q tenants draw from different models (%q vs %q); merge boards first",
				m.Name, model.Name(), tm.Name())
		}
	}
	s := &mixSource{
		name:    m.Name,
		model:   model,
		tenants: m.Tenants,
		heads:   make([]TimedRequest, len(m.Tenants)),
		ok:      make([]bool, len(m.Tenants)),
	}
	for i, t := range m.Tenants {
		s.heads[i], s.ok[i] = t.Next()
	}
	return s, nil
}

func (s *mixSource) Name() string { return s.name }

// Model reports the tenants' shared CoE model (nil when no tenant
// exposes one).
func (s *mixSource) Model() *coe.Model { return s.model }

// Unbounded reports whether any tenant's stream is infinite: a mix
// containing one unbounded tenant never closes, so it needs a Horizon
// just like the tenant itself would.
func (s *mixSource) Unbounded() bool {
	for _, t := range s.tenants {
		if IsUnbounded(t) {
			return true
		}
	}
	return false
}

func (s *mixSource) Next() (TimedRequest, bool) {
	best := -1
	for i := range s.tenants {
		if !s.ok[i] {
			continue
		}
		if best < 0 || s.heads[i].At < s.heads[best].At {
			best = i
		}
	}
	if best < 0 {
		return TimedRequest{}, false
	}
	tr := s.heads[best]
	s.heads[best], s.ok[best] = s.tenants[best].Next()
	if tr.Req.Tenant == "" {
		tr.Req.Tenant = s.tenants[best].Name()
	}
	tr.Req.ID = s.next
	s.next++
	return tr, true
}

// DrainCap is Drain's defensive bound: a source still yielding past
// this many requests is treated as unbounded.
const DrainCap = 1 << 22

// MergeBoards fuses several boards into one CoE model so a single
// serving System can host a multi-tenant mix of their streams. Every
// board's experts and routing rules are re-added with the class space
// offset per board; shares[i] weights board i's contribution to the
// merged quantity distribution (shares need not be normalized).
//
// It returns the merged board plus one view per input board: a Board
// whose Model is the merged model but whose distribution covers only
// that tenant's classes, for building the tenant's arrival process.
func MergeBoards(name string, shares []float64, boards ...*Board) (*Board, []*Board, error) {
	if len(boards) < 1 {
		return nil, nil, fmt.Errorf("workload: merge %q needs at least one board", name)
	}
	if len(shares) != len(boards) {
		return nil, nil, fmt.Errorf("workload: merge %q has %d shares for %d boards", name, len(shares), len(boards))
	}
	var shareTotal float64
	for i, sh := range shares {
		if sh <= 0 {
			return nil, nil, fmt.Errorf("workload: merge %q share %d is non-positive", name, i)
		}
		shareTotal += sh
	}

	b := coe.NewBuilder(name)
	classOff := 0
	var mergedProbs []float64
	bases := make([]int, len(boards))
	for bi, board := range boards {
		// Re-add the board's experts, tracking old→new expert IDs.
		idMap := make(map[coe.ExpertID]coe.ExpertID)
		for _, e := range board.Model.Experts() {
			idMap[e.ID] = b.AddExpert(e.Name, e.Arch, e.Role)
		}
		// Re-add the routing rules with offset classes; Link restores the
		// classifier→detector dependency edges.
		// Classes() already returns ascending order.
		router := board.Model.Router()
		classes := router.Classes()
		for _, class := range classes {
			rule, _ := router.Rule(class)
			nr := coe.Rule{Classifier: idMap[rule.Classifier], PassProb: rule.PassProb}
			if rule.Detector != coe.NoExpert {
				nr.Detector = idMap[rule.Detector]
				b.Link(nr.Classifier, nr.Detector)
			}
			b.AddRule(classOff+class, nr)
		}
		bases[bi] = classOff
		w := shares[bi] / shareTotal
		for _, p := range board.TypeProbs {
			mergedProbs = append(mergedProbs, p*w)
		}
		classOff += len(board.TypeProbs)
	}

	m, err := b.Build()
	if err != nil {
		return nil, nil, err
	}
	classProbs := make(map[int]float64, len(mergedProbs))
	for c, p := range mergedProbs {
		classProbs[c] = p
	}
	if err := coe.ComputeUsage(m, classProbs); err != nil {
		return nil, nil, err
	}
	merged := newBoard(BoardSpec{Name: name, Types: len(mergedProbs)}, m, mergedProbs)

	// Per-tenant views: the merged model with the tenant's original
	// distribution mapped into its class range (zero elsewhere — the
	// zero-width entries are never sampled).
	tenantViews := make([]*Board, len(boards))
	for bi, board := range boards {
		probs := make([]float64, len(mergedProbs))
		copy(probs[bases[bi]:], board.TypeProbs)
		tenantViews[bi] = newBoard(BoardSpec{Name: board.Spec.Name, Types: len(probs)}, m, probs)
	}
	return merged, tenantViews, nil
}
