package xfer

import (
	"testing"
	"time"

	"repro/internal/hw"
	"repro/internal/memory"
)

// TestPricesRowFollowsSource: an expert's row is its architecture's
// latencies from its current source, for every tier, as the price
// function gave them; setting one expert's source moves no other row.
func TestPricesRowFollowsSource(t *testing.T) {
	dev := hw.NUMADevice()
	bytes := []int64{100 << 20, 400 << 20}
	arch := []uint8{1, 0, 1, 1}
	p := NewPrices(arch, func(a int, src Source, dst memory.Tier) time.Duration {
		return LoadLatency(dev, src, dst, bytes[a])
	})
	if p.Experts() != 4 || p.Archs() != 2 {
		t.Fatalf("%d experts, %d architectures; want 4 and 2", p.Experts(), p.Archs())
	}
	p.SetSource(2, FromHost)
	for id, a := range arch {
		src := FromSSD
		if id == 2 {
			src = FromHost
		}
		gotArch, lat := p.Row(id)
		if gotArch != int(a) || p.Source(id) != src {
			t.Fatalf("expert %d: architecture %d, source %v; want %d and %v", id, gotArch, p.Source(id), a, src)
		}
		for dst := range memory.TierSSD {
			if want := LoadLatency(dev, src, dst, bytes[a]); lat[dst] != want {
				t.Errorf("expert %d into %v: %v, want %v", id, dst, lat[dst], want)
			}
		}
	}
}
