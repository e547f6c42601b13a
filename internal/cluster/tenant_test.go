package cluster

import (
	"testing"
	"time"

	"repro/internal/control"
	"repro/internal/core"
	"repro/internal/hw"
	"repro/internal/sim"
	"repro/internal/workload"
)

// tenantMix is a two-tenant Mix of Poisson streams over board, named
// "flood" and "quiet", at the given rates and lengths.
func tenantMix(t *testing.T, board *workload.Board, floodRate float64, floodN int, quietRate float64, quietN int) workload.Source {
	t.Helper()
	flood, err := workload.Poisson{Name: "flood", Board: board, Rate: floodRate, N: floodN, Seed: 71}.NewSource()
	if err != nil {
		t.Fatal(err)
	}
	quiet, err := workload.Poisson{Name: "quiet", Board: board, Rate: quietRate, N: quietN, Seed: 72}.NewSource()
	if err != nil {
		t.Fatal(err)
	}
	src, err := workload.Mix{Name: "tenants", Tenants: []workload.Source{flood, quiet}}.NewSource()
	if err != nil {
		t.Fatal(err)
	}
	return src
}

// tenantTotals sums each tenant's node-level records over the fleet.
func tenantTotals(rep *Report) map[string]core.TenantStats {
	out := map[string]core.TenantStats{}
	for _, nr := range rep.PerNode {
		for _, ts := range nr.PerTenant {
			sum := out[ts.Name]
			sum.Name = ts.Name
			sum.Admitted += ts.Admitted
			sum.Rejected += ts.Rejected
			sum.Completions += ts.Completions
			out[ts.Name] = sum
		}
	}
	return out
}

// TestClusterTenantQuotaPerTenant: a tenant quota set as the cluster's
// admission policy keys its buckets by the request's tenant, so one
// tenant flooding the fleet exhausts only its own bucket and the other
// tenant's within-quota stream is admitted whole.
func TestClusterTenantQuotaPerTenant(t *testing.T) {
	board := boardFor(t, workload.BoardA())
	quota, err := control.NewTenantQuota(nil, 4, 3)
	if err != nil {
		t.Fatal(err)
	}
	cl := buildCluster(t, Config{
		Nodes:     Uniform(2, nodeConfig(t, hw.NUMADevice())),
		SLO:       time.Second,
		Admission: quota,
	}, board.Model)
	const quietN = 20
	rep, err := cl.Serve(tenantMix(t, board, 40, 400, 0.5, quietN))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Rejected == 0 {
		t.Fatal("a 40 req/s tenant under a 4 req/s quota was never rejected; the test exercises nothing")
	}
	got := tenantTotals(rep)
	if q := got["quiet"]; q.Admitted != quietN || q.Completions != quietN {
		t.Errorf("quiet tenant: %d admitted, %d completed of %d; the flood spent its quota", q.Admitted, q.Completions, quietN)
	}
	if f := got["flood"]; f.Admitted+rep.Rejected != 400 {
		t.Errorf("flood tenant: %d admitted + %d rejected != 400 offered", f.Admitted, rep.Rejected)
	}
}

// TestTenantSurvivesRedeliveryAndHedging: on a crashing, hedging fleet
// every copy a node admits — first delivery, redelivery after a crash,
// or hedge — still names its tenant, so the per-tenant records summed
// over nodes cover every admission and completion the nodes report.
func TestTenantSurvivesRedeliveryAndHedging(t *testing.T) {
	board := boardFor(t, workload.BoardA())
	cl := buildCluster(t, Config{
		Nodes:     Uniform(3, nodeConfig(t, hw.NUMADevice())),
		Router:    Affinity{},
		Placement: UsageProportional{},
		SLO:       time.Second,
		Hedge:     HedgeConfig{After: 400 * time.Millisecond},
		Faults: &sim.FaultPlan{Events: []sim.FaultEvent{
			{At: time.Second, Node: 0, Kind: sim.FaultCrash},
			{At: 1800 * time.Millisecond, Node: 0, Kind: sim.FaultRecover},
			{At: 2200 * time.Millisecond, Node: 2, Kind: sim.FaultCrash},
			{At: 3 * time.Second, Node: 2, Kind: sim.FaultRecover},
		}},
	}, board.Model)
	rep, err := cl.Serve(tenantMix(t, board, 20, 100, 10, 50))
	if err != nil {
		t.Fatal(err)
	}
	if rep.LostLeases == 0 || rep.HedgesFired == 0 {
		t.Fatalf("lost leases %d, hedges fired %d: the test needs both redeliveries and hedges", rep.LostLeases, rep.HedgesFired)
	}
	var admitted, completed, tenantAdmitted, tenantCompleted int64
	for _, nr := range rep.PerNode {
		admitted += nr.N
		completed += nr.Completions
	}
	for _, ts := range tenantTotals(rep) {
		tenantAdmitted += ts.Admitted
		tenantCompleted += ts.Completions
	}
	if tenantAdmitted != admitted || tenantCompleted != completed {
		t.Errorf("tenants account for %d admitted and %d completed copies, nodes report %d and %d",
			tenantAdmitted, tenantCompleted, admitted, completed)
	}
}
