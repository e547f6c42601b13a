package workload

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"time"

	"repro/internal/coe"
)

// The reference generators below are the arrival processes as they
// stood when each had its own implementation: a Generate loop, a Poisson
// source, a Steady source and a Bursty source, each with its own rng
// and routing. The shared sampled source must reproduce them exactly.

// refArrival is one arrival of a reference stream.
type refArrival struct {
	ID    int64
	Class int
	Chain []coe.ExpertID
	At    time.Duration
}

// refDraw is the reference request draw: a uniform for the class, then
// one for the routing pass outcome.
func refDraw(t *testing.T, b *Board, rng *rand.Rand) (int, []coe.ExpertID) {
	t.Helper()
	class := b.SampleType(rng.Float64())
	chain, err := b.Model.Router().AppendRoute(nil, class, rng.Float64())
	if err != nil {
		t.Fatal(err)
	}
	return class, chain
}

// refGenerate is the Generate loop, stamped with the offsets i*period
// that Task.Stream gave its requests.
func refGenerate(t *testing.T, task Task) []refArrival {
	rng := rand.New(rand.NewSource(task.Seed))
	out := make([]refArrival, 0, task.N)
	for i := 0; i < task.N; i++ {
		class, chain := refDraw(t, task.Board, rng)
		out = append(out, refArrival{ID: int64(i), Class: class, Chain: chain, At: time.Duration(i) * task.ArrivalPeriod})
	}
	return out
}

// refPoisson is the Poisson source: each request drawn, then the gap
// that places it after its predecessor.
func refPoisson(t *testing.T, p Poisson) []refArrival {
	rng := rand.New(rand.NewSource(p.Seed))
	var at time.Duration
	out := make([]refArrival, 0, p.N)
	for i := 0; i < p.N; i++ {
		class, chain := refDraw(t, p.Board, rng)
		gap := rng.ExpFloat64() / p.Rate
		at += time.Duration(gap * float64(time.Second))
		out = append(out, refArrival{ID: int64(i), Class: class, Chain: chain, At: at})
	}
	return out
}

// refSteady is the first n arrivals of the Steady source, which had no
// length bound.
func refSteady(t *testing.T, s Steady, n int) []refArrival {
	rng := rand.New(rand.NewSource(s.Seed))
	var at time.Duration
	out := make([]refArrival, 0, n)
	for i := int64(0); len(out) < n; i++ {
		class, chain := refDraw(t, s.Board, rng)
		gap := rng.ExpFloat64() / s.Rate
		at += time.Duration(gap * float64(time.Second))
		out = append(out, refArrival{ID: i, Class: class, Chain: chain, At: at})
	}
	return out
}

// refBursty is the Bursty source: fixed-period arrivals until one would
// land at or past the end of its ON window, which moves it to the top of
// the next window, one OFF window later.
func refBursty(t *testing.T, b Bursty) []refArrival {
	rng := rand.New(rand.NewSource(b.Seed))
	at, onEnd := time.Duration(0), b.On
	out := make([]refArrival, 0, b.N)
	for i := 0; i < b.N; i++ {
		class, chain := refDraw(t, b.Board, rng)
		if at >= onEnd {
			at = onEnd + b.Off
			onEnd = at + b.On
		}
		out = append(out, refArrival{ID: int64(i), Class: class, Chain: chain, At: at})
		at += b.Period
	}
	return out
}

// assertMatchesReference compares the IDs, classes, chains and offsets
// of src's arrivals with want: all of them, or as many as want holds
// when src is unbounded.
func assertMatchesReference(t *testing.T, label string, src Source, want []refArrival) {
	t.Helper()
	var got []TimedRequest
	if IsUnbounded(src) {
		for len(got) < len(want) {
			tr, ok := src.Next()
			if !ok {
				t.Fatalf("%s: unbounded stream closed after %d arrivals", label, len(got))
			}
			got = append(got, tr)
		}
	} else {
		got = Drain(src)
	}
	if len(got) != len(want) {
		t.Fatalf("%s: %d arrivals, reference %d", label, len(got), len(want))
	}
	for i, w := range want {
		r := got[i].Req
		if r.ID != w.ID || r.Class != w.Class || got[i].At != w.At || !slices.Equal(r.Chain, w.Chain) {
			t.Fatalf("%s: arrival %d is (id %d, class %d, chain %v, at %v), reference (id %d, class %d, chain %v, at %v)",
				label, i, r.ID, r.Class, r.Chain, got[i].At, w.ID, w.Class, w.Chain, w.At)
		}
	}
}

// TestGeneratedStreamsMatchReference: every sampled arrival process
// yields exactly its reference stream, over several seeds, on board A
// and on a tenant view of the merged A+B board (whose distribution is
// zero outside its class range). The Bursty cases cover an ON window
// that is a whole number of periods (an arrival due exactly at the
// window's end moves to the next window), one that is not, and an OFF
// window of 0; the Task cases cover the paper's period and a period of
// 0 (every arrival at the start).
func TestGeneratedStreamsMatchReference(t *testing.T) {
	a := buildA(t)
	b, err := BoardB().Build()
	if err != nil {
		t.Fatal(err)
	}
	_, views, err := MergeBoards("a+b", []float64{2, 1}, a, b)
	if err != nil {
		t.Fatal(err)
	}
	for _, board := range []*Board{a, views[1]} {
		for _, seed := range []int64{1, 7, 42} {
			label := func(kind string) string { return fmt.Sprintf("%s %s seed %d", board.Spec.Name, kind, seed) }

			p := Poisson{Name: "p", Board: board, Rate: 250, N: 600, Seed: seed}
			src, err := p.NewSource()
			if err != nil {
				t.Fatal(err)
			}
			assertMatchesReference(t, label("poisson"), src, refPoisson(t, p))

			s := Steady{Name: "s", Board: board, Rate: 40, Seed: seed}
			if src, err = s.NewSource(); err != nil {
				t.Fatal(err)
			}
			assertMatchesReference(t, label("steady"), src, refSteady(t, s, 600))

			for _, bursty := range []Bursty{
				{Period: time.Millisecond, On: 10 * time.Millisecond, Off: 90 * time.Millisecond},
				{Period: 3 * time.Millisecond, On: 10 * time.Millisecond, Off: 25 * time.Millisecond},
				{Period: 2 * time.Millisecond, On: 7 * time.Millisecond},
			} {
				bursty.Name, bursty.Board, bursty.N, bursty.Seed = "b", board, 300, seed
				if src, err = bursty.NewSource(); err != nil {
					t.Fatal(err)
				}
				assertMatchesReference(t, label(fmt.Sprintf("bursty %v/%v/%v", bursty.Period, bursty.On, bursty.Off)), src, refBursty(t, bursty))
			}

			for _, period := range []time.Duration{DefaultArrivalPeriod, 0} {
				task := Task{Name: "t", Board: board, N: 400, ArrivalPeriod: period, Seed: seed}
				if src, err = task.Stream(); err != nil {
					t.Fatal(err)
				}
				assertMatchesReference(t, label(fmt.Sprintf("task period %v", period)), src, refGenerate(t, task))
			}
		}
	}
}
