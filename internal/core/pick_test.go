package core

import (
	"testing"

	"repro/internal/coe"
	"repro/internal/hw"
	"repro/internal/memory"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/workload"
)

// pricingCheck wraps a system's assigner and, before every pick, prices
// the request on each empty active queue from the queue's executor: its
// profile's K and B, plus, unless the executor's pool has the expert
// Loaded, the device's load latency into the executor's tier from the
// host cache when the store has it cached there and from SSD otherwise.
// An empty queue holds no group, so Predict must agree.
type pricingCheck struct {
	t      *testing.T
	s      *System
	inner  sched.Assigner
	checks int
}

func (c *pricingCheck) Pick(now sim.Time, qs []*sched.Queue, e *coe.Expert) (int, sched.Prediction) {
	s := c.s
	_, archOf := s.m.Archs()
	for i, q := range qs {
		if q.Len() > 0 {
			continue
		}
		gi := i
		if s.activeIdx != nil {
			gi = s.activeIdx[i]
		}
		ex := s.executors[gi]
		perf := ex.Perfs[archOf[e.ID]]
		want := perf.K + perf.B
		if !ex.Pool.IsLoaded(e.ID) {
			tier := memory.TierGPU
			if gi >= s.cfg.GPUExecutors {
				tier = memory.TierCPU
			}
			_, lat := s.store.Prices().Row(int(e.ID))
			want += lat[tier]
		}
		if got := q.Predict(e).Add(); got != want {
			c.t.Fatalf("%s: Predict(%d) = %v, its executor prices %v", q.Name(), e.ID, got, want)
		}
		c.checks++
	}
	return c.inner.Pick(now, qs, e)
}

// TestQueuesPriceFromTheirPools: every queue reads its own executor's
// pool bit in the node's Loaded rows and its own processor's profile —
// with a pool per executor (CoServe) and with a pool shared by each
// processor's executors (Samba-CoE Parallel) — through a serve whose
// pools switch experts in and out and whose host cache fills.
func TestQueuesPriceFromTheirPools(t *testing.T) {
	board := boardFor(t, workload.BoardA())
	for _, v := range []Variant{CoServe, SambaParallel} {
		s := buildSystem(t, hw.NUMADevice(), v, board)
		check := &pricingCheck{t: t, s: s, inner: s.assigner}
		s.assigner = check
		src, err := workload.Poisson{Name: "pricing", Board: board, Rate: 4, N: 300, Seed: 7}.NewSource()
		if err != nil {
			t.Fatal(err)
		}
		if _, err := s.Serve(src); err != nil {
			t.Fatal(err)
		}
		if check.checks < 100 {
			t.Errorf("%v: only %d empty-queue prices checked", v, check.checks)
		}
		var switches int64
		for _, pl := range s.pools {
			switches += pl.Switches()
		}
		if switches == 0 {
			t.Errorf("%v: no expert switched, so residency never changed", v)
		}
	}
}
