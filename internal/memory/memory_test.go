package memory

import (
	"testing"
	"testing/quick"
	"time"

	"repro/internal/sim"
)

func TestReserveRelease(t *testing.T) {
	a := NewArena("gpu", 100)
	if err := a.Reserve(60); err != nil {
		t.Fatal(err)
	}
	if a.Free() != 40 || a.Reserved() != 60 {
		t.Errorf("free/reserved = %d/%d, want 40/60", a.Free(), a.Reserved())
	}
	if err := a.Reserve(50); err == nil {
		t.Error("over-reservation should fail")
	}
	a.Release(60)
	if a.Free() != 100 {
		t.Errorf("free after release = %d, want 100", a.Free())
	}
}

func TestTryReserve(t *testing.T) {
	a := NewArena("x", 10)
	if !a.TryReserve(10) {
		t.Error("exact-fit TryReserve failed")
	}
	if a.TryReserve(1) {
		t.Error("TryReserve on full arena succeeded")
	}
}

func TestZeroReserveAlwaysSucceeds(t *testing.T) {
	a := NewArena("x", 0)
	if err := a.Reserve(0); err != nil {
		t.Error(err)
	}
}

func TestReleaseTooMuchPanics(t *testing.T) {
	a := NewArena("x", 10)
	_ = a.Reserve(5)
	defer func() {
		if recover() == nil {
			t.Error("no panic on excess release")
		}
	}()
	a.Release(6)
}

func TestWaitReserveBlocksUntilFree(t *testing.T) {
	env := sim.NewEnv()
	a := NewArena("gpu", 100)
	if err := a.Reserve(80); err != nil {
		t.Fatal(err)
	}
	var acquiredAt sim.Time
	got := func() {
		acquiredAt = env.Now()
		a.Release(50)
	}
	env.After(0, func() {
		if a.WaitReserve(env, 50, got) {
			got()
		}
	})
	env.After(2*time.Second, func() { a.Release(80) })
	env.Run()
	if acquiredAt != sim.Time(2*time.Second) {
		t.Errorf("waiter acquired at %v, want 2s", acquiredAt)
	}
	if a.Reserved() != 0 {
		t.Errorf("reserved = %d at end, want 0", a.Reserved())
	}
}

func TestWaitReserveFIFONoStarvation(t *testing.T) {
	// A large request queued first must be served before later small
	// requests, even though the small ones would fit immediately.
	env := sim.NewEnv()
	a := NewArena("gpu", 100)
	if err := a.Reserve(90); err != nil {
		t.Fatal(err)
	}
	var order []string
	waiter := func(at time.Duration, name string, bytes int64) {
		got := func() {
			order = append(order, name)
			a.Release(bytes)
		}
		env.After(at, func() {
			if a.WaitReserve(env, bytes, got) {
				got()
			}
		})
	}
	waiter(time.Millisecond, "big", 80)
	waiter(2*time.Millisecond, "small", 5)
	env.After(time.Second, func() { a.Release(90) })
	env.Run()
	if len(order) != 2 || order[0] != "big" || order[1] != "small" {
		t.Errorf("service order = %v, want [big small]", order)
	}
}

func TestWaitReserveImmediateWhenFits(t *testing.T) {
	env := sim.NewEnv()
	a := NewArena("gpu", 100)
	at := sim.Time(-1)
	if a.WaitReserve(env, 100, func() { t.Error("fitting reservation parked") }) {
		at = env.Now()
		a.Release(100)
	}
	env.Run()
	if at != 0 {
		t.Errorf("immediate WaitReserve resumed at %v, want 0", at)
	}
}

func TestWaitReserveImpossiblePanics(t *testing.T) {
	env := sim.NewEnv()
	a := NewArena("gpu", 10)
	var recovered bool
	func() {
		defer func() {
			if recover() != nil {
				recovered = true
			}
		}()
		a.WaitReserve(env, 11, func() {})
	}()
	if !recovered {
		t.Error("no panic for impossible reservation")
	}
}

func TestTierStrings(t *testing.T) {
	if TierGPU.String() != "gpu" || TierCPU.String() != "cpu" || TierSSD.String() != "ssd" {
		t.Error("tier strings wrong")
	}
	if Tier(9).String() == "" {
		t.Error("unknown tier string empty")
	}
}

// Property: any sequence of successful reserves and matching releases
// leaves the arena empty and never exceeds capacity.
func TestArenaConservationProperty(t *testing.T) {
	prop := func(sizes []uint16) bool {
		const capacity = 1 << 20
		a := NewArena("p", capacity)
		var held []int64
		for _, s := range sizes {
			b := int64(s)
			if a.Reserve(b) == nil {
				held = append(held, b)
			}
			if a.Reserved() > a.Capacity() {
				return false
			}
			if a.Free()+a.Reserved() != a.Capacity() {
				return false
			}
		}
		for _, b := range held {
			a.Release(b)
		}
		return a.Reserved() == 0 && a.Free() == capacity
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
