package control

import (
	"strings"
	"testing"
	"time"

	"repro/internal/coe"
	"repro/internal/sim"
)

func sec(n int) sim.Time { return sim.Time(n) * sim.Time(time.Second) }

// tenantReq is a request whose Tenant names the given tenant.
func tenantReq(tenant string) *coe.Request {
	r := coe.NewRequest(0, 0, []coe.ExpertID{0})
	r.Tenant = tenant
	return r
}

// TestTenantQuotaIndependentBuckets: one tenant exhausting its quota
// must not consume another tenant's tokens.
func TestTenantQuotaIndependentBuckets(t *testing.T) {
	q, err := NewTenantQuota(nil, 1, 2)
	if err != nil {
		t.Fatal(err)
	}
	q.Reset(0)
	v := fakeView{}
	// Tenant a burns its burst of 2 at t=0; the third is rejected.
	for i := 0; i < 2; i++ {
		if !q.Admit(0, v, tenantReq("a")) {
			t.Fatalf("tenant a admission %d rejected within burst", i)
		}
	}
	if q.Admit(0, v, tenantReq("a")) {
		t.Error("tenant a admitted past its burst")
	}
	// Tenant b still has a full bucket at the same instant.
	for i := 0; i < 2; i++ {
		if !q.Admit(0, v, tenantReq("b")) {
			t.Fatalf("tenant b admission %d rejected — bucket not independent", i)
		}
	}
	if q.Admit(0, v, tenantReq("b")) {
		t.Error("tenant b admitted past its burst")
	}
	// One virtual second refills one token for each tenant.
	if !q.Admit(sec(1), v, tenantReq("a")) || !q.Admit(sec(1), v, tenantReq("b")) {
		t.Error("refilled token not granted")
	}
	if q.Admit(sec(1), v, tenantReq("a")) {
		t.Error("tenant a got more than the refilled token")
	}
}

// TestTenantQuotaWrapsInner: the inner policy applies to quota-passed
// requests, and — the isolation guarantee — a tenant's over-quota flood
// never reaches or mutates shared inner state.
func TestTenantQuotaWrapsInner(t *testing.T) {
	inner, err := NewBoundedQueue(4)
	if err != nil {
		t.Fatal(err)
	}
	q, err := NewTenantQuota(inner, 5, 1)
	if err != nil {
		t.Fatal(err)
	}
	q.Reset(0)
	if q.Admit(0, fakeView{queued: 10}, tenantReq("a")) {
		t.Error("admitted through a full inner bounded queue")
	}
	if !strings.Contains(q.Name(), "bounded-4") {
		t.Errorf("Name %q does not surface the inner policy", q.Name())
	}

	// Isolation against a *stateful* inner policy: tenant a's flood must
	// be absorbed by a's bucket before it can drain the shared inner
	// token bucket, leaving tenant b's within-quota admission intact.
	shared, err := NewTokenBucket(100, 2)
	if err != nil {
		t.Fatal(err)
	}
	q2, err := NewTenantQuota(shared, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	q2.Reset(0)
	admitted := 0
	for i := 0; i < 100; i++ { // tenant a floods at one instant
		if q2.Admit(0, fakeView{}, tenantReq("a")) {
			admitted++
		}
	}
	if admitted != 1 {
		t.Errorf("flooding tenant admitted %d, want its quota of 1", admitted)
	}
	if !q2.Admit(0, fakeView{}, tenantReq("b")) {
		t.Error("tenant a's rejected flood drained the shared inner policy's state")
	}
}

// TestTenantQuotaUntaggedSharedBucket: untagged requests (empty
// Tenant) share one bucket.
func TestTenantQuotaUntaggedSharedBucket(t *testing.T) {
	q, err := NewTenantQuota(nil, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	q.Reset(0)
	if !q.Admit(0, fakeView{}, testReq) {
		t.Fatal("first untagged request rejected")
	}
	if q.Admit(0, fakeView{}, testReq) {
		t.Error("untagged requests did not share a bucket")
	}
}

// TestTenantQuotaReset: Reset refills every tenant's bucket for the
// next stream.
func TestTenantQuotaReset(t *testing.T) {
	q, err := NewTenantQuota(nil, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	q.Reset(0)
	v := fakeView{}
	q.Admit(0, v, tenantReq("a"))
	q.Admit(0, v, tenantReq("b"))
	if q.Admit(0, v, tenantReq("a")) {
		t.Fatal("bucket not empty before reset")
	}
	q.Reset(sec(10))
	if !q.Admit(sec(10), v, tenantReq("a")) || !q.Admit(sec(10), v, tenantReq("b")) {
		t.Error("Reset did not refill tenant buckets")
	}
}

// TestTenantQuotaValidation mirrors the token bucket's constructor
// checks, and PolicyByName builds it.
func TestTenantQuotaValidation(t *testing.T) {
	if _, err := NewTenantQuota(nil, 0, 5); err == nil {
		t.Error("accepted zero rate")
	}
	if _, err := NewTenantQuota(nil, 1, 0.5); err == nil {
		t.Error("accepted burst below one")
	}
	p, err := PolicyByName("tenant-quota", PolicyOptions{TenantRate: 3, TenantBurst: 2})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := p.(*TenantQuota); !ok {
		t.Errorf("PolicyByName built %T", p)
	}
}

// TestReachabilityGuardVetoesScaleDown: with the guard on, a downward
// step that leaves the surviving pools unable to hold the working set
// is refused; an affordable one proceeds.
func TestReachabilityGuardVetoesScaleDown(t *testing.T) {
	h, err := NewReachableHysteresisScaler(0.3, 0.85)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasSuffix(h.Name(), "+reach") {
		t.Errorf("Name %q does not mark the guard", h.Name())
	}
	// Idle fleet (busy below Low, no backlog) wants to shed one GPU and
	// one CPU executor. Working set of 50 experts; each GPU pool holds
	// 20, each CPU pool 10. The unguarded step to 2G+0C would leave 40
	// slots < 50; the guard keeps the GPU (3G+0C = 60 slots still holds
	// the set, so the CPU may go).
	u := Utilization{GPUBusy: 0.1, CPUBusy: 0.1, WorkingSet: 50, GPUPoolSlots: 20, CPUPoolSlots: 10}
	g, c := h.Scale(0, u, 3, 1)
	if g != 3 || c != 0 {
		t.Errorf("guarded scale-down to %dG+%dC, want 3G+0C", g, c)
	}
	if u.HoldableExperts(g, c) < u.WorkingSet {
		t.Errorf("guard let capacity fall below the working set: %d < %d", u.HoldableExperts(g, c), u.WorkingSet)
	}
	// When even the surviving GPU pools alone cannot absorb the CPU
	// side's share, both steps are refused.
	tight := Utilization{GPUBusy: 0.1, CPUBusy: 0.1, WorkingSet: 65, GPUPoolSlots: 20, CPUPoolSlots: 10}
	g, c = h.Scale(0, tight, 3, 1)
	if g != 3 || c != 1 {
		t.Errorf("tight working set scaled to %dG+%dC, want hold at 3G+1C", g, c)
	}
	// A narrow working set lets the same step through.
	u.WorkingSet = 30
	g, c = h.Scale(0, u, 3, 1)
	if g != 2 || c != 0 {
		t.Errorf("affordable scale-down gave %dG+%dC, want 2G+0C", g, c)
	}
	// The unguarded scaler sheds regardless.
	plain, err := NewHysteresisScaler(0.3, 0.85)
	if err != nil {
		t.Fatal(err)
	}
	u.WorkingSet = 50
	g, c = plain.Scale(0, u, 3, 1)
	if g != 2 || c != 0 {
		t.Errorf("unguarded scale-down gave %dG+%dC, want 2G+0C", g, c)
	}
	// No working-set signal → the guard stands down.
	u.WorkingSet = 0
	g, c = h.Scale(0, u, 3, 1)
	if g != 2 || c != 0 {
		t.Errorf("guard without signal gave %dG+%dC, want 2G+0C", g, c)
	}
	// Scale-up is never vetoed.
	up := Utilization{GPUBusy: 0.95, CPUBusy: 0.95, WorkingSet: 1000, GPUPoolSlots: 1, CPUPoolSlots: 1}
	g, c = h.Scale(0, up, 2, 1)
	if g != 3 || c != 2 {
		t.Errorf("guard blocked scale-up: %dG+%dC", g, c)
	}
}
