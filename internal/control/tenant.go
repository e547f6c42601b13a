package control

import (
	"fmt"

	"repro/internal/coe"
	"repro/internal/sim"
)

// TenantQuota wraps any admission policy with per-tenant token buckets
// keyed by the arriving request's Tenant: each tenant of a multi-tenant
// Mix is rate-limited to Rate requests per second (bursts up to Burst)
// independently, so one tenant's overload cannot starve the others'
// admission — over-quota floods are absorbed by the offender's own
// bucket before they can touch (or, for stateful policies like
// TokenBucket, drain) the shared inner policy, which applies only to
// what the quotas pass. Untagged requests (single-tenant streams) share
// one unnamed bucket, making the policy a plain per-stream rate limit
// there. It works the same at a node and in front of a cluster.
type TenantQuota struct {
	// Inner is the policy consulted after the tenant's quota admits the
	// request; AcceptAll for a pure quota.
	Inner AdmissionPolicy
	// Rate is each tenant's sustained admission rate in requests per
	// second; Burst is each tenant's bucket capacity in tokens.
	Rate, Burst float64

	buckets map[string]*TokenBucket
	order   []string // bucket creation order, for deterministic Reset
}

// NewTenantQuota returns a per-tenant quota policy wrapping inner
// (AcceptAll when nil).
func NewTenantQuota(inner AdmissionPolicy, rate, burst float64) (*TenantQuota, error) {
	if rate <= 0 {
		return nil, fmt.Errorf("control: tenant quota rate %f must be positive", rate)
	}
	if burst < 1 {
		return nil, fmt.Errorf("control: tenant quota burst %f must be at least 1", burst)
	}
	if inner == nil {
		inner = AcceptAll{}
	}
	return &TenantQuota{Inner: inner, Rate: rate, Burst: burst}, nil
}

// Name implements AdmissionPolicy.
func (q *TenantQuota) Name() string {
	return fmt.Sprintf("tenant-quota-%g/%s", q.Rate, q.Inner.Name())
}

// Admit implements AdmissionPolicy: the bucket of the request's tenant
// (the shared unnamed one for untagged requests) is consulted first, so
// a tenant's over-quota flood is absorbed by its own bucket and never
// reaches — or mutates — the shared inner policy. Only quota-admitted
// requests consult the inner policy; a request the inner policy then
// rejects has spent its token (the token is the tenant's right to offer
// a request to the shared policy at all).
func (q *TenantQuota) Admit(now sim.Time, v View, r *coe.Request) bool {
	return q.bucketFor(now, r.Tenant).Admit(now, v, r) && q.Inner.Admit(now, v, r)
}

// bucketFor returns (creating and priming if needed) a tenant's bucket.
// A tenant first seen mid-stream starts with a full bucket, as if reset
// at stream start and left to refill — full either way, since refilling
// caps at Burst.
func (q *TenantQuota) bucketFor(now sim.Time, tenant string) *TokenBucket {
	b, ok := q.buckets[tenant]
	if !ok {
		if q.buckets == nil {
			q.buckets = make(map[string]*TokenBucket)
		}
		b = &TokenBucket{Rate: q.Rate, Burst: q.Burst}
		b.Reset(now)
		q.buckets[tenant] = b
		q.order = append(q.order, tenant)
	}
	return b
}

// Reset implements AdmissionPolicy: the inner policy and every known
// tenant bucket re-arm at stream start. Buckets are iterated in
// creation order so the reset is deterministic.
func (q *TenantQuota) Reset(now sim.Time) {
	q.Inner.Reset(now)
	for _, tenant := range q.order {
		q.buckets[tenant].Reset(now)
	}
}
