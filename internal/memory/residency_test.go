package memory

import (
	"math/rand"
	"testing"
)

// TestResidencyMatchesSets: a table of 130 pools (three words a row)
// answers Has, and its rows read at each slot's word and mask, exactly
// as a plain set of (expert, pool) pairs says, after every Set, whatever
// the other pools in the row hold; ids beyond the table are held
// nowhere, and a slot past the row panics.
func TestResidencyMatchesSets(t *testing.T) {
	const pools, experts = 130, 20
	r := NewResidency(pools, experts)
	if r.Experts() != experts || len(r.Row(0)) != 3 {
		t.Fatalf("%d rows of %d words; want %d of 3", r.Experts(), len(r.Row(0)), experts)
	}
	want := map[[2]int]bool{}
	rng := rand.New(rand.NewSource(7))
	for step := 0; step < 4000; step++ {
		id, p, on := rng.Intn(experts), rng.Intn(pools), rng.Intn(3) > 0
		r.Set(id, r.Slot(p), on)
		want[[2]int{id, p}] = on
		id, p = rng.Intn(experts), rng.Intn(pools)
		s := r.Slot(p)
		in := r.Row(id)[s.Word]&s.Mask != 0
		if got := r.Has(id, s); got != want[[2]int{id, p}] || in != got {
			t.Fatalf("step %d: expert %d pool %d: Has %v, row bit %v; want %v", step, id, p, got, in, want[[2]int{id, p}])
		}
	}
	for _, id := range []int{-1, experts, experts + 5} {
		if r.Has(id, r.Slot(0)) {
			t.Errorf("expert %d beyond the table reads as held", id)
		}
	}
	defer func() {
		if recover() == nil {
			t.Error("a slot past the row's words was handed out")
		}
	}()
	r.Slot(3 * 64)
}
