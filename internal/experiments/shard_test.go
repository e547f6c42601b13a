package experiments

import (
	"testing"

	"repro/internal/sim"
	"repro/internal/workload"
)

// TestServeShardKernelCounts pins the sharded kernel's round counters
// on serve-shard's three streams. They are event counts, so any change
// to which event runs in which round shows here; the critical-path
// bound they give is why the kernel steps its partitions on one
// goroutine.
func TestServeShardKernelCounts(t *testing.T) {
	want := map[string]sim.ShardStats{
		"steady":   {Rounds: 656, Active: 661, RoundEvents: 965, CoordEvents: 721, CritEvents: 951, Posts: 720},
		"chaos":    {Rounds: 703, Active: 709, RoundEvents: 1034, CoordEvents: 728, CritEvents: 1019, Posts: 723},
		"grayfail": {Rounds: 952, Active: 960, RoundEvents: 1249, CoordEvents: 1168, CritEvents: 1232, Posts: 879},
	}
	ctx := NewContext()
	board, err := ctx.Board(workload.BoardA())
	if err != nil {
		t.Fatal(err)
	}
	for _, sc := range shardScenarios() {
		cl, _, err := serveShardScenario(ctx, board, sc)
		if err != nil {
			t.Fatal(err)
		}
		got := cl.KernelStats()
		if got != want[sc.name] {
			t.Errorf("%s: kernel stats %#v, want %#v", sc.name, got, want[sc.name])
		}
		if b := got.Bound(); b > 1.01 {
			t.Errorf("%s: critical-path bound %.4f, want <= 1.01", sc.name, b)
		}
	}
}
