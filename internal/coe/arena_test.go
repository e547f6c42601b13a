package coe

import (
	"slices"
	"testing"

	"repro/internal/model"
)

func TestArenaLeaseRecycleReuse(t *testing.T) {
	a := NewArena()
	r := a.Lease()
	if r == nil || a.Leases() != 1 || a.Reuses() != 0 {
		t.Fatalf("first lease: %v leases=%d reuses=%d", r, a.Leases(), a.Reuses())
	}
	r.ID, r.Class = 42, 7
	r.Chain = append(r.Chain, 1, 2)
	r.stage = 1
	r.Arrival, r.Done = 10, 20
	Recycle(r)
	if a.Free() != 1 {
		t.Fatalf("free list = %d, want 1", a.Free())
	}
	r2 := a.Lease()
	if r2 != r {
		t.Fatal("lease after recycle must reuse the object")
	}
	if a.Reuses() != 1 {
		t.Fatalf("reuses = %d, want 1", a.Reuses())
	}
	if r2.ID != 0 || r2.Class != 0 || r2.stage != 0 || r2.Arrival != 0 || r2.Done != 0 {
		t.Fatalf("reused request not zeroed: %+v", r2)
	}
	if len(r2.Chain) != 0 || cap(r2.Chain) < 2 {
		t.Fatalf("chain len/cap = %d/%d, want 0/>=2 (capacity retained)", len(r2.Chain), cap(r2.Chain))
	}
}

// TestLeaseClearsTenant: a recycled request leased again names no
// tenant, so an untagged stream sharing an arena with a mix never
// inherits a previous request's tenant.
func TestLeaseClearsTenant(t *testing.T) {
	a := NewArena()
	r := a.Lease()
	r.Tenant = "board-a"
	Recycle(r)
	r2 := a.Lease()
	if r2 != r {
		t.Fatal("lease after recycle must reuse the object")
	}
	if r2.Tenant != "" {
		t.Errorf("reused request keeps tenant %q, want none", r2.Tenant)
	}
}

func TestRecycleSafeOnForeignAndDouble(t *testing.T) {
	Recycle(nil) // must not panic
	plain := NewRequest(1, 0, []ExpertID{3})
	Recycle(plain) // non-arena request: no-op
	a := NewArena()
	r := a.Lease()
	Recycle(r)
	Recycle(r) // double recycle: idempotent
	if a.Free() != 1 {
		t.Fatalf("double recycle grew free list to %d", a.Free())
	}
	// The recycled request must not re-enter a different arena either.
	b := NewArena()
	_ = b
	Recycle(r)
	if a.Free() != 1 || b.Free() != 0 {
		t.Fatalf("recycle after clear: a=%d b=%d", a.Free(), b.Free())
	}
}

// TestAppendRouteMatchesRoute: the router appends exactly each rule's
// route — the classifier, then the detector when the class has one and
// u < PassProb — for both outcomes of every class, whether it appends
// to a fresh chain or into a recycled one's capacity, and leaves what
// dst already held in place.
func TestAppendRouteMatchesRoute(t *testing.T) {
	b := NewBuilder("m")
	cls := b.AddExpert("cls", model.ResNet101, Preliminary)
	det := b.AddExpert("det", model.YOLOv5m, Subsequent)
	b.Link(cls, det)
	b.AddRule(0, Rule{Classifier: cls, Detector: det, PassProb: 0.5})
	b.AddRule(1, Rule{Classifier: cls})
	m, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	router := m.Router()
	buf := make([]ExpertID, 0, 3)
	for class := 0; class <= 1; class++ {
		for _, u := range []float64{0, 0.25, 0.5, 0.75, 0.99} {
			want := []ExpertID{cls}
			if class == 0 && u < 0.5 {
				want = append(want, det)
			}
			fresh, err := router.AppendRoute(nil, class, u)
			if err != nil {
				t.Fatal(err)
			}
			recycled, err := router.AppendRoute(append(buf[:0], det), class, u)
			if err != nil {
				t.Fatal(err)
			}
			if !slices.Equal(fresh, want) || !slices.Equal(recycled, append([]ExpertID{det}, want...)) {
				t.Fatalf("class %d u=%v: chains %v and %v, want %v", class, u, fresh, recycled, want)
			}
		}
	}
	if _, err := router.AppendRoute(buf[:0], 99, 0); err == nil {
		t.Fatal("AppendRoute must error on unknown class")
	}
}

// TestArenaWarmLeaseDoesNotAllocate pins the hot path: once the free
// list is primed, a lease/route/recycle cycle is allocation-free.
func TestArenaWarmLeaseDoesNotAllocate(t *testing.T) {
	b := NewBuilder("m")
	cls := b.AddExpert("cls", model.ResNet101, Preliminary)
	det := b.AddExpert("det", model.YOLOv5m, Subsequent)
	b.Link(cls, det)
	b.AddRule(0, Rule{Classifier: cls, Detector: det, PassProb: 1})
	m, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	router := m.Router()
	a := NewArena()
	prime := a.Lease()
	prime.Chain, _ = router.AppendRoute(prime.Chain[:0], 0, 0)
	Recycle(prime)
	if allocs := testing.AllocsPerRun(1000, func() {
		r := a.Lease()
		r.Chain, _ = router.AppendRoute(r.Chain[:0], 0, 0)
		Recycle(r)
	}); allocs > 0 {
		t.Errorf("warm lease cycle allocated %.1f objects/op, want 0", allocs)
	}
}
