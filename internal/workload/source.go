package workload

import (
	"fmt"
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

// sampler draws request chains from a board's distribution. All arrival
// processes share it so that class sampling and routing consume the rng
// identically regardless of arrival shape. Requests are leased from the
// arena's free list and routed in place, so a stream whose requests the
// serving layer recycles allocates none once the pool is warm.
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

// draw produces the next request: one uniform draw for the class, one
// for the routing pass outcome — the same consumption order as
// Task.Generate.
func (s *sampler) draw() (*coe.Request, error) {
	class := s.board.SampleType(s.rng.Float64())
	u := s.rng.Float64()
	r := s.arena.Lease()
	chain, err := s.board.Model.Router().AppendRoute(r.Chain, class, u)
	if err != nil {
		coe.Recycle(r)
		return nil, err
	}
	r.Chain, r.ID, r.Class = chain, s.next, class
	s.next++
	return r, nil
}

// sliceSource replays a pre-materialized stream.
type sliceSource struct {
	name  string
	model *coe.Model
	items []TimedRequest
	pos   int
}

func (s *sliceSource) Name() string { return s.name }

// Model reports the CoE model the stream's chains route over; the
// serving layer checks it against the System's model.
func (s *sliceSource) Model() *coe.Model { return s.model }

func (s *sliceSource) Next() (TimedRequest, bool) {
	if s.pos >= len(s.items) {
		return TimedRequest{}, false
	}
	tr := s.items[s.pos]
	s.pos++
	return tr, true
}

// Stream materializes the task as a closed-loop fixed-period source: the
// paper's arrival process (§5.1, one image every ArrivalPeriod). The
// request sequence is exactly Task.Generate — same seeds, same IDs, same
// chains — with arrival offsets i*ArrivalPeriod, so serving a task
// through Stream is bit-for-bit the stream RunTask always fed.
func (t Task) Stream() (Source, error) {
	reqs, err := t.Generate()
	if err != nil {
		return nil, err
	}
	if t.ArrivalPeriod < 0 {
		return nil, fmt.Errorf("workload: task %q has negative arrival period", t.Name)
	}
	items := make([]TimedRequest, len(reqs))
	for i, r := range reqs {
		items[i] = TimedRequest{Req: r, At: time.Duration(i) * t.ArrivalPeriod}
	}
	return &sliceSource{name: t.Name, model: t.Board.Model, items: items}, nil
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

type poissonSource struct {
	spec    Poisson
	sampler sampler
	emitted int
	at      time.Duration
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
	return &poissonSource{
		spec:    p,
		sampler: newSampler(p.Board, p.Seed, p.Arena),
	}, nil
}

func (s *poissonSource) Name() string { return s.spec.Name }

// Model reports the CoE model the stream's chains route over.
func (s *poissonSource) Model() *coe.Model { return s.spec.Board.Model }

func (s *poissonSource) Next() (TimedRequest, bool) {
	if s.emitted >= s.spec.N {
		return TimedRequest{}, false
	}
	r, err := s.sampler.draw()
	if err != nil {
		// Routing over a validated board cannot fail; a custom board
		// with missing rules is a construction bug.
		panic("workload: poisson stream routing failed: " + err.Error())
	}
	// Gap first, then the request: every arrival (including the first)
	// sits one exponential gap after its predecessor.
	gap := s.sampler.rng.ExpFloat64() / s.spec.Rate
	s.at += time.Duration(gap * float64(time.Second))
	s.emitted++
	return TimedRequest{Req: r, At: s.at}, true
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

type burstySource struct {
	spec    Bursty
	sampler sampler
	emitted int
	at      time.Duration // next arrival instant
	onEnd   time.Duration // end of the current ON window
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
	return &burstySource{
		spec:    b,
		sampler: newSampler(b.Board, b.Seed, b.Arena),
		onEnd:   b.On,
	}, nil
}

func (s *burstySource) Name() string { return s.spec.Name }

// Model reports the CoE model the stream's chains route over.
func (s *burstySource) Model() *coe.Model { return s.spec.Board.Model }

func (s *burstySource) Next() (TimedRequest, bool) {
	if s.emitted >= s.spec.N {
		return TimedRequest{}, false
	}
	r, err := s.sampler.draw()
	if err != nil {
		panic("workload: bursty stream routing failed: " + err.Error())
	}
	if s.at >= s.onEnd {
		// The window closed before this arrival: idle through OFF and
		// restart arrivals at the top of the next ON window.
		s.at = s.onEnd + s.spec.Off
		s.onEnd = s.at + s.spec.On
	}
	tr := TimedRequest{Req: r, At: s.at}
	s.at += s.spec.Period
	s.emitted++
	return tr, true
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

type steadySource struct {
	spec    Steady
	sampler sampler
	at      time.Duration
}

// NewSource validates the spec and returns the (unbounded) stream.
func (s Steady) NewSource() (Source, error) {
	if s.Board == nil {
		return nil, fmt.Errorf("workload: steady %q needs a board", s.Name)
	}
	if s.Rate <= 0 {
		return nil, fmt.Errorf("workload: steady %q rate %f must be positive", s.Name, s.Rate)
	}
	return &steadySource{
		spec:    s,
		sampler: newSampler(s.Board, s.Seed, s.Arena),
	}, nil
}

func (s *steadySource) Name() string { return s.spec.Name }

// Model reports the CoE model the stream's chains route over.
func (s *steadySource) Model() *coe.Model { return s.spec.Board.Model }

// Unbounded marks the stream as infinite: it must be wrapped in a
// Horizon before serving or draining.
func (s *steadySource) Unbounded() bool { return true }

func (s *steadySource) Next() (TimedRequest, bool) {
	r, err := s.sampler.draw()
	if err != nil {
		panic("workload: steady stream routing failed: " + err.Error())
	}
	gap := s.sampler.rng.ExpFloat64() / s.spec.Rate
	s.at += time.Duration(gap * float64(time.Second))
	return TimedRequest{Req: r, At: s.at}, true
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
func (h *horizonSource) Model() *coe.Model {
	if m, ok := h.src.(interface{ Model() *coe.Model }); ok {
		return m.Model()
	}
	return nil
}

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

// CheckStream rejects a source the serving layers cannot serve over
// model m: an unbounded one, which would keep the arrival loop alive
// forever, and one whose chains come from another model.
func CheckStream(src Source, m *coe.Model) error {
	if IsUnbounded(src) {
		return fmt.Errorf("stream %q is unbounded; wrap it in workload.Horizon to give it a terminating horizon",
			src.Name())
	}
	if sm, ok := src.(interface{ Model() *coe.Model }); ok && sm.Model() != nil && sm.Model() != m {
		return fmt.Errorf("stream %q draws from model %q, not the served model %q",
			src.Name(), sm.Model().Name(), m.Name())
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
		if tm, ok := t.(interface{ Model() *coe.Model }); ok {
			switch {
			case model == nil:
				model = tm.Model()
			case model != tm.Model():
				return nil, fmt.Errorf("workload: mix %q tenants draw from different models (%q vs %q); merge boards first",
					m.Name, model.Name(), tm.Model().Name())
			}
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
	merged := newBoardUnchecked(name, m, mergedProbs)

	// Per-tenant views: the merged model with the tenant's original
	// distribution mapped into its class range (zero elsewhere — the
	// zero-width entries are never sampled).
	tenantViews := make([]*Board, len(boards))
	for bi, board := range boards {
		probs := make([]float64, len(mergedProbs))
		copy(probs[bases[bi]:], board.TypeProbs)
		tenantViews[bi] = newBoardUnchecked(board.Spec.Name, m, probs)
	}
	return merged, tenantViews, nil
}

// newBoardUnchecked builds a Board directly from a model and a (possibly
// sparse) class distribution, bypassing NewBoard's positivity check —
// tenant views legitimately carry zero probability outside their class
// range.
func newBoardUnchecked(name string, m *coe.Model, probs []float64) *Board {
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
	// Absorb floating-point drift into the last positive class so a draw
	// of u→1 can never land on a zero-probability tail entry.
	for j := last; j >= 0 && j < len(cum); j++ {
		cum[j] = 1
	}
	return &Board{
		Spec:      BoardSpec{Name: name, Types: len(probs)},
		Model:     m,
		TypeProbs: probs,
		cumProbs:  cum,
		guide:     newGuide(cum),
	}
}
