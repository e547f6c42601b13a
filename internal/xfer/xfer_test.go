package xfer

import (
	"testing"
	"time"

	"repro/internal/hw"
	"repro/internal/memory"
	"repro/internal/model"
	"repro/internal/sim"
)

func TestLoadLatencySSDDominatedByDeserialization(t *testing.T) {
	d := hw.NUMADevice()
	bytes := model.ResNet101.WeightBytes()
	lat := LoadLatency(d, FromSSD, memory.TierGPU, bytes)
	// ~178 MB: 530 MB/s read + 250 MB/s deserialize + host→GPU ≈ 1.45 s.
	if lat < 1200*time.Millisecond || lat > 1700*time.Millisecond {
		t.Errorf("NUMA SSD→GPU ResNet101 load = %v, want ~1.45s", lat)
	}
}

func TestLoadLatencyHostMuchCheaperThanSSD(t *testing.T) {
	for _, d := range []*hw.Device{hw.NUMADevice(), hw.UMADevice()} {
		bytes := model.ResNet101.WeightBytes()
		ssd := LoadLatency(d, FromSSD, memory.TierGPU, bytes)
		host := LoadLatency(d, FromHost, memory.TierGPU, bytes)
		if host*2 > ssd {
			t.Errorf("%s: host load %v not well below SSD load %v", d.Name, host, ssd)
		}
	}
}

func TestLoadLatencyHostToCPUOnlyFixed(t *testing.T) {
	d := hw.NUMADevice()
	lat := LoadLatency(d, FromHost, memory.TierCPU, model.ResNet101.WeightBytes())
	if lat != d.LoadFixed {
		t.Errorf("host→CPU load = %v, want fixed %v", lat, d.LoadFixed)
	}
}

func TestFigure1SwitchingShares(t *testing.T) {
	// Figure 1: switching latency share of (switch + execution) for one
	// inference batch at the processor's saturation batch size. SSD→GPU
	// must exceed 90% on both devices; CPU→GPU must land in the paper's
	// 60–93% band.
	for _, d := range []*hw.Device{hw.NUMADevice(), hw.UMADevice()} {
		for _, a := range []model.Architecture{model.ResNet101, model.YOLOv5m, model.YOLOv5l} {
			exec := model.ExecLatency(a, d.GPU, d.GPU.SatBatch)
			ssd := LoadLatency(d, FromSSD, memory.TierGPU, a.WeightBytes())
			share := float64(ssd) / float64(ssd+exec)
			if share < 0.90 {
				t.Errorf("%s/%s SSD share = %.1f%%, want > 90%%", d.Name, a.Name, share*100)
			}
			host := LoadLatency(d, FromHost, memory.TierGPU, a.WeightBytes())
			hshare := float64(host) / float64(host+exec)
			if hshare < 0.60 || hshare > 0.93 {
				t.Errorf("%s/%s CPU→GPU share = %.1f%%, want 60–93%%", d.Name, a.Name, hshare*100)
			}
		}
	}
}

func TestEngineMatchesModelWithoutContention(t *testing.T) {
	env := sim.NewEnv()
	d := hw.NUMADevice()
	eng := NewEngine(env, d)
	bytes := model.YOLOv5m.WeightBytes()
	var got time.Duration
	calls := 0
	eng.Load(FromSSD, memory.TierGPU, bytes, func(_ any, d time.Duration) { got = d; calls++ }, nil)
	env.Run()
	want := LoadLatency(d, FromSSD, memory.TierGPU, bytes)
	if got != want {
		t.Errorf("engine load = %v, model = %v", got, want)
	}
	if calls != 1 || env.Now().Duration() != want {
		t.Errorf("done ran %d times, engine idle at %v, want once at %v", calls, env.Now(), want)
	}
}

func TestEngineLimitsConcurrentSSDLoads(t *testing.T) {
	env := sim.NewEnv()
	d := hw.NUMADevice()
	eng := NewEngine(env, d)
	streams := d.LoadConcurrency()
	n := streams + 1 // one more load than the device can overlap
	bytes := model.ResNet101.WeightBytes()
	single := LoadLatency(d, FromSSD, memory.TierCPU, bytes)
	var finish []sim.Time
	for i := 0; i < n; i++ {
		eng.Load(FromSSD, memory.TierCPU, bytes, func(any, time.Duration) {
			finish = append(finish, env.Now())
		}, nil)
	}
	end := env.Run()
	// streams loads overlap; the extra one queues behind them.
	want := sim.Time(2 * single)
	if end != want {
		t.Errorf("%d concurrent loads finished at %v, want %v", n, end, want)
	}
	if len(finish) != n {
		t.Fatalf("finished %d loads", len(finish))
	}
	for i, at := range finish {
		want := sim.Time(single)
		if i == streams {
			want = sim.Time(2 * single)
		}
		if at != want {
			t.Errorf("load %d finished at %v, want %v", i, at, want)
		}
	}
}

func TestEngineHostLoadsUseSeparateLink(t *testing.T) {
	// A host→GPU copy must not wait for an in-flight SSD read+deser
	// stage (only for the shared host link).
	env := sim.NewEnv()
	d := hw.NUMADevice()
	eng := NewEngine(env, d)
	bytes := model.ResNet101.WeightBytes()
	var hostDone sim.Time
	eng.Load(FromSSD, memory.TierCPU, bytes, func(any, time.Duration) {}, nil) // loader stage only
	eng.Load(FromHost, memory.TierGPU, bytes, func(any, time.Duration) { hostDone = env.Now() }, nil)
	env.Run()
	hostOnly := LoadLatency(d, FromHost, memory.TierGPU, bytes)
	if hostDone != sim.Time(hostOnly) {
		t.Errorf("host load finished at %v, want %v (no loader contention)", hostDone, hostOnly)
	}
}

func TestSourceStrings(t *testing.T) {
	if FromSSD.String() != "ssd" || FromHost.String() != "host" {
		t.Error("source strings wrong")
	}
	if Source(9).String() == "" {
		t.Error("unknown source string empty")
	}
}
