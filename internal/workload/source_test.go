package workload

import (
	"math"
	"slices"
	"testing"
	"time"
)

// drainTwice builds the source twice from the same constructor and
// returns both materialized streams.
func drainTwice(t *testing.T, build func() (Source, error)) (a, b []TimedRequest) {
	t.Helper()
	s1, err := build()
	if err != nil {
		t.Fatal(err)
	}
	s2, err := build()
	if err != nil {
		t.Fatal(err)
	}
	return Drain(s1), Drain(s2)
}

// assertSameStream checks two streams are identical in IDs, classes,
// chains, and arrival offsets.
func assertSameStream(t *testing.T, a, b []TimedRequest) {
	t.Helper()
	if len(a) != len(b) {
		t.Fatalf("stream lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		ra, rb := a[i].Req, b[i].Req
		if a[i].At != b[i].At || ra.ID != rb.ID || ra.Class != rb.Class || len(ra.Chain) != len(rb.Chain) {
			t.Fatalf("request %d differs: %v@%v vs %v@%v", i, ra, a[i].At, rb, b[i].At)
		}
		for j := range ra.Chain {
			if ra.Chain[j] != rb.Chain[j] {
				t.Fatalf("request %d chain differs at stage %d", i, j)
			}
		}
	}
}

// TestTaskStreamMatchesGenerate: a task's stream yields the reference
// Generate loop's requests with offsets i*period — the paper-shape
// preservation contract — and Generate yields the same requests.
func TestTaskStreamMatchesGenerate(t *testing.T) {
	board := buildA(t)
	task := TaskA1(board)
	task.N = 500
	want := refGenerate(t, task)
	src, err := task.Stream()
	if err != nil {
		t.Fatal(err)
	}
	if src.Name() != task.Name {
		t.Errorf("source name %q, want %q", src.Name(), task.Name)
	}
	assertMatchesReference(t, "stream", src, want)
	reqs, err := task.Generate()
	if err != nil {
		t.Fatal(err)
	}
	if len(reqs) != len(want) {
		t.Fatalf("Generate made %d requests, reference %d", len(reqs), len(want))
	}
	for i, r := range reqs {
		if w := want[i]; r.ID != w.ID || r.Class != w.Class || !slices.Equal(r.Chain, w.Chain) {
			t.Fatalf("request %d is (id %d, class %d, chain %v), reference (id %d, class %d, chain %v)",
				i, r.ID, r.Class, r.Chain, w.ID, w.Class, w.Chain)
		}
	}
}

func TestPoissonSameSeedDeterministic(t *testing.T) {
	board := buildA(t)
	a, b := drainTwice(t, func() (Source, error) {
		return Poisson{Name: "p", Board: board, Rate: 250, N: 800, Seed: 42}.NewSource()
	})
	assertSameStream(t, a, b)
	// A different seed must produce a different stream.
	other, err := Poisson{Name: "p", Board: board, Rate: 250, N: 800, Seed: 43}.NewSource()
	if err != nil {
		t.Fatal(err)
	}
	diff := false
	for i, tr := range Drain(other) {
		if tr.At != a[i].At || tr.Req.Class != a[i].Req.Class {
			diff = true
			break
		}
	}
	if !diff {
		t.Error("different seeds produced identical streams")
	}
}

// TestPoissonEmpiricalRate: the realized arrival rate over a long
// stream must sit within a few percent of the target.
func TestPoissonEmpiricalRate(t *testing.T) {
	board := buildA(t)
	const rate, n = 500.0, 20000
	src, err := Poisson{Name: "p", Board: board, Rate: rate, N: n, Seed: 7}.NewSource()
	if err != nil {
		t.Fatal(err)
	}
	stream := Drain(src)
	if len(stream) != n {
		t.Fatalf("stream length %d, want %d", len(stream), n)
	}
	span := stream[len(stream)-1].At.Seconds()
	got := float64(n) / span
	if math.Abs(got-rate)/rate > 0.05 {
		t.Errorf("empirical rate %.1f req/s, want %.1f ±5%%", got, rate)
	}
	// Offsets must be non-decreasing.
	for i := 1; i < len(stream); i++ {
		if stream[i].At < stream[i-1].At {
			t.Fatalf("arrival %d goes backwards", i)
		}
	}
}

func TestBurstyWindowsAndDeterminism(t *testing.T) {
	board := buildA(t)
	spec := Bursty{
		Name: "b", Board: board,
		Period: time.Millisecond, On: 10 * time.Millisecond, Off: 90 * time.Millisecond,
		N: 300, Seed: 9,
	}
	a, b := drainTwice(t, func() (Source, error) { return spec.NewSource() })
	assertSameStream(t, a, b)
	// Every arrival must fall inside an ON window of the 100 ms cycle.
	cycle := spec.On + spec.Off
	for i, tr := range a {
		phase := tr.At % cycle
		if phase >= spec.On {
			t.Fatalf("arrival %d at %v (phase %v) falls in the OFF window", i, tr.At, phase)
		}
		if i > 0 && tr.At < a[i-1].At {
			t.Fatalf("arrival %d goes backwards", i)
		}
	}
	// The stream must actually span several bursts.
	if bursts := a[len(a)-1].At / cycle; bursts < 10 {
		t.Errorf("stream spans %d cycles, want several", bursts)
	}
}

// TestMixPreservesPerTenantCounts: merging tenant streams keeps every
// tenant's request count, tags each request, renumbers IDs uniquely,
// and emits arrivals in time order.
func TestMixPreservesPerTenantCounts(t *testing.T) {
	board := buildA(t)
	build := func() (Source, error) {
		t1, err := Poisson{Name: "fast", Board: board, Rate: 400, N: 300, Seed: 1}.NewSource()
		if err != nil {
			return nil, err
		}
		t2, err := Poisson{Name: "slow", Board: board, Rate: 100, N: 120, Seed: 2}.NewSource()
		if err != nil {
			return nil, err
		}
		t3, err := Bursty{Name: "bursts", Board: board, Period: time.Millisecond,
			On: 5 * time.Millisecond, Off: 20 * time.Millisecond, N: 80, Seed: 3}.NewSource()
		if err != nil {
			return nil, err
		}
		return Mix{Name: "m", Tenants: []Source{t1, t2, t3}}.NewSource()
	}
	a, b := drainTwice(t, build)
	assertSameStream(t, a, b)
	if len(a) != 300+120+80 {
		t.Fatalf("mixed stream has %d requests, want %d", len(a), 300+120+80)
	}
	counts := map[string]int{}
	seen := map[int64]bool{}
	for i, tr := range a {
		counts[tr.Req.Tenant]++
		if seen[tr.Req.ID] {
			t.Fatalf("duplicate request ID %d", tr.Req.ID)
		}
		seen[tr.Req.ID] = true
		if i > 0 && tr.At < a[i-1].At {
			t.Fatalf("mixed arrival %d goes backwards", i)
		}
	}
	want := map[string]int{"fast": 300, "slow": 120, "bursts": 80}
	for tenant, n := range want {
		if counts[tenant] != n {
			t.Errorf("tenant %s: %d requests, want %d", tenant, counts[tenant], n)
		}
	}
}

func TestMergeBoardsStructure(t *testing.T) {
	a := buildA(t)
	b, err := BoardB().Build()
	if err != nil {
		t.Fatal(err)
	}
	merged, views, err := MergeBoards("a+b", []float64{3, 1}, a, b)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := merged.Model.NumExperts(), a.Model.NumExperts()+b.Model.NumExperts(); got != want {
		t.Errorf("merged experts = %d, want %d", got, want)
	}
	if got, want := len(merged.TypeProbs), len(a.TypeProbs)+len(b.TypeProbs); got != want {
		t.Errorf("merged classes = %d, want %d", got, want)
	}
	var sum float64
	for _, p := range merged.TypeProbs {
		sum += p
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Errorf("merged distribution sums to %v", sum)
	}
	// Board A carries 3/4 of the merged mass.
	var aShare float64
	for _, p := range merged.TypeProbs[:len(a.TypeProbs)] {
		aShare += p
	}
	if math.Abs(aShare-0.75) > 1e-9 {
		t.Errorf("board A share = %v, want 0.75", aShare)
	}
	if len(views) != 2 {
		t.Fatalf("views = %d, want 2", len(views))
	}
	// Each view samples only inside its class range, over the merged
	// model.
	for u := 0.0; u < 1.0; u += 0.001 {
		if c := views[0].SampleType(u); c >= len(a.TypeProbs) {
			t.Fatalf("view A sampled class %d outside its range", c)
		}
		if c := views[1].SampleType(u); c < len(a.TypeProbs) {
			t.Fatalf("view B sampled class %d outside its range", c)
		}
	}
	if views[0].Model != merged.Model || views[1].Model != merged.Model {
		t.Error("views do not share the merged model")
	}
}

func TestSourceSpecValidation(t *testing.T) {
	board := buildA(t)
	bad := []func() (Source, error){
		func() (Source, error) { return Poisson{Name: "p", Rate: 10, N: 5}.NewSource() },
		func() (Source, error) { return Poisson{Name: "p", Board: board, Rate: 0, N: 5}.NewSource() },
		func() (Source, error) { return Poisson{Name: "p", Board: board, Rate: 10, N: 0}.NewSource() },
		func() (Source, error) {
			return Bursty{Name: "b", Board: board, Period: 0, On: time.Second, N: 5}.NewSource()
		},
		func() (Source, error) {
			return Bursty{Name: "b", Board: board, Period: time.Millisecond, On: 0, N: 5}.NewSource()
		},
		func() (Source, error) { return Mix{Name: "m"}.NewSource() },
		// Tenants over different CoE models cannot be mixed; their
		// expert IDs only mean something within one model.
		func() (Source, error) {
			other, err := BoardB().Build()
			if err != nil {
				return nil, err
			}
			t1, err := Poisson{Name: "a", Board: board, Rate: 10, N: 5, Seed: 1}.NewSource()
			if err != nil {
				return nil, err
			}
			t2, err := Poisson{Name: "b", Board: other, Rate: 10, N: 5, Seed: 2}.NewSource()
			if err != nil {
				return nil, err
			}
			return Mix{Name: "m", Tenants: []Source{t1, t2}}.NewSource()
		},
		// Duplicate tenant names would merge two streams into one
		// per-tenant report row.
		func() (Source, error) {
			t1, err := Poisson{Name: "same", Board: board, Rate: 10, N: 5, Seed: 1}.NewSource()
			if err != nil {
				return nil, err
			}
			t2, err := Poisson{Name: "same", Board: board, Rate: 10, N: 5, Seed: 2}.NewSource()
			if err != nil {
				return nil, err
			}
			return Mix{Name: "m", Tenants: []Source{t1, t2}}.NewSource()
		},
	}
	for i, build := range bad {
		if _, err := build(); err == nil {
			t.Errorf("bad spec %d accepted", i)
		}
	}
}
