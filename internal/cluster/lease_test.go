package cluster

import (
	"reflect"
	"testing"

	"repro/internal/coe"
	"repro/internal/sim"
)

// TestSettledLeaseReadsFresh: settle resets a lease field by field, so a
// recycled lease must read exactly like one fresh from its block except
// for what is meant to carry over — its chain's capacity and its hedge
// callback. Every field is made non-zero first (a field added to lease
// without a value here fails the test), so a field settle forgets to
// reset shows.
func TestSettledLeaseReadsFresh(t *testing.T) {
	c := &Cluster{}
	l := c.newLease()
	fresh := *l
	env := sim.NewEnv()
	due := func() {}
	l.id, l.class, l.tenant = 7, 3, "tenant-a"
	l.chain = append(l.chain, 1, 2, 3, 4, 5, 6) // outgrows buf
	l.buf = [len(l.buf)]coe.ExpertID{9, 9, 9, 9}
	l.done = true
	l.hasArrival, l.timerSet = true, true
	l.arrival, l.voidedAt, l.redeliveries = 11, 12, 2
	l.timer = env.AfterFunc(1, due)
	l.due, l.retries = due, 3
	l.nextFree = &lease{}
	v := reflect.ValueOf(l).Elem()
	for i := 0; i < v.NumField(); i++ {
		name := v.Type().Field(i).Name
		if name == "primary" || name == "hedge" {
			continue // a lease is settled only once neither points at a hold
		}
		if v.Field(i).IsZero() {
			t.Fatalf("field %s is zero before settle: give it a value here", name)
		}
	}
	l.nextFree = nil
	chainCap := cap(l.chain)

	c.settle(l)
	if got := c.newLease(); got != l {
		t.Fatal("settle did not put the lease on the free list")
	}
	if cap(l.chain) != chainCap || len(l.chain) != 0 {
		t.Errorf("chain len %d cap %d after recycling, want 0 and %d", len(l.chain), cap(l.chain), chainCap)
	}
	if l.due == nil {
		t.Error("hedge callback dropped by settle")
	}
	got := *l
	got.chain, got.due = nil, nil
	fresh.chain = nil
	if !reflect.DeepEqual(got, fresh) {
		t.Errorf("recycled lease\n%+v\nwant fresh\n%+v", got, fresh)
	}
}
