package profiler

import (
	"errors"
	"fmt"
	"math"
	"testing"
	"time"

	"repro/internal/hw"
	"repro/internal/model"
)

func TestBatchSweepMatchesModel(t *testing.T) {
	dev := hw.NUMADevice()
	points := BatchSweep(dev, model.ResNet101, hw.GPU, 8)
	if len(points) != 8 {
		t.Fatalf("points = %d, want 8", len(points))
	}
	for _, pt := range points {
		want := model.ExecLatency(model.ResNet101, dev.GPU, pt.Batch)
		if pt.Exec != want {
			t.Errorf("batch %d: exec = %v, want %v", pt.Batch, pt.Exec, want)
		}
		if pt.Footprint != model.ActBytes(model.ResNet101, dev.GPU, pt.Batch) {
			t.Errorf("batch %d: footprint mismatch", pt.Batch)
		}
	}
}

func TestMeasureRecoversLatencyModel(t *testing.T) {
	dev := hw.NUMADevice()
	perf, err := Measure(dev, model.ResNet101, hw.GPU)
	if err != nil {
		t.Fatal(err)
	}
	trueK := model.KCoeff(model.ResNet101, dev.GPU)
	if relErr(float64(perf.K), float64(trueK)) > 0.05 {
		t.Errorf("fitted K = %v, true %v", perf.K, trueK)
	}
	if relErr(float64(perf.B), float64(dev.GPU.LaunchOverhead)) > 0.10 {
		t.Errorf("fitted B = %v, true %v", perf.B, dev.GPU.LaunchOverhead)
	}
	if perf.MaxBatch < 8 || perf.MaxBatch > 48 {
		t.Errorf("GPU max batch = %d, want a generous batching regime", perf.MaxBatch)
	}
	if perf.LoadSSD < 900*time.Millisecond {
		t.Errorf("LoadSSD = %v, want ~1s", perf.LoadSSD)
	}
	if perf.LoadHost >= perf.LoadSSD {
		t.Error("host load should beat SSD load")
	}
}

func TestMeasureCPUSmallMaxBatch(t *testing.T) {
	// §3.3: the CPU's optimal batch size is small.
	for _, dev := range []*hw.Device{hw.NUMADevice(), hw.UMADevice()} {
		perf, err := Measure(dev, model.ResNet101, hw.CPU)
		if err != nil {
			t.Fatal(err)
		}
		if perf.MaxBatch < 2 || perf.MaxBatch > 16 {
			t.Errorf("%s CPU max batch = %d, want small (2–16)", dev.Name, perf.MaxBatch)
		}
	}
}

func TestMatrixCoversAllPairs(t *testing.T) {
	archs := []model.Architecture{model.ResNet101, model.YOLOv5m, model.YOLOv5l}
	pm, err := Matrix(hw.UMADevice(), archs)
	if err != nil {
		t.Fatal(err)
	}
	if err := pm.Covers(archs); err != nil {
		t.Error(err)
	}
	if len(pm) != 6 {
		t.Errorf("matrix entries = %d, want 6", len(pm))
	}
}

func relErr(got, want float64) float64 {
	if want == 0 {
		return math.Abs(got)
	}
	return math.Abs(got-want) / math.Abs(want)
}

// riseFallRunner yields throughput rising to a peak then falling — the
// §4.4 memory-contention shape.
func riseFallRunner(peak int) func(int) (float64, error) {
	return func(n int) (float64, error) {
		d := float64(n - peak)
		return 100 - d*d/float64(peak), nil
	}
}

func TestDecayWindowStopsAroundPeak(t *testing.T) {
	params := DefaultSearchParams(200)
	res, err := DecayWindow(params, riseFallRunner(40))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Points) < params.FitPoints+1 {
		t.Fatalf("too few points: %d", len(res.Points))
	}
	if res.Deviation <= params.ErrorMargin {
		t.Errorf("search did not stop on deviation (%.3f)", res.Deviation)
	}
	// The peak (40) should sit at or before the selected window's upper
	// bound, and the window must not extend absurdly far.
	if res.WindowHi < 40-15 || res.WindowLo > 75 {
		t.Errorf("selected window [%d,%d] far from peak 40", res.WindowLo, res.WindowHi)
	}
	if res.Selected < res.WindowLo || res.Selected > res.WindowHi {
		t.Errorf("selected %d outside window [%d,%d]", res.Selected, res.WindowLo, res.WindowHi)
	}
}

func TestDecayWindowSlidesShrink(t *testing.T) {
	calls := 0
	res, err := DecayWindow(DefaultSearchParams(100), func(n int) (float64, error) {
		calls++
		return float64(calls), nil // linear per index: never deviates below trend
	})
	if err != nil {
		t.Fatal(err)
	}
	// Monotone throughput: sweep must run to MaxExperts and clamp.
	last := res.Points[len(res.Points)-1]
	if last.Experts != 100 {
		t.Errorf("sweep ended at %d, want clamp at 100", last.Experts)
	}
	// Window sizes must shrink (decay factor 0.85).
	for i := 2; i < len(res.Points); i++ {
		prev := res.Points[i-1].Experts - res.Points[i-2].Experts
		cur := res.Points[i].Experts - res.Points[i-1].Experts
		if cur > prev {
			t.Errorf("window grew: %d then %d", prev, cur)
		}
	}
}

func TestDecayWindowParamValidation(t *testing.T) {
	if _, err := DecayWindow(SearchParams{InitialWindow: 0, FitPoints: 3, MaxExperts: 10}, nil); err == nil {
		t.Error("zero window accepted")
	}
	if _, err := DecayWindow(SearchParams{InitialWindow: 10, FitPoints: 1, MaxExperts: 50}, nil); err == nil {
		t.Error("single fit point accepted")
	}
	if _, err := DecayWindow(SearchParams{InitialWindow: 10, FitPoints: 3, MaxExperts: 5}, nil); err == nil {
		t.Error("max below window accepted")
	}
	wantErr := fmt.Errorf("boom")
	_, err := DecayWindow(DefaultSearchParams(100), func(int) (float64, error) { return 0, wantErr })
	if err == nil {
		t.Error("runner error swallowed")
	}
}

func TestTopologySweepPicksBest(t *testing.T) {
	points, best, err := TopologySweep(DefaultTopologies(3), nil, func(g, c int) (float64, error) {
		// Peak at 3 GPUs, 1 CPU.
		return 10 - math.Abs(float64(g)-3) - 2*math.Abs(float64(c)-1), nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 6 {
		t.Fatalf("points = %d, want 6", len(points))
	}
	if points[best].GPUs != 3 || points[best].CPUs != 1 {
		t.Errorf("best = %dG+%dC, want 3G+1C", points[best].GPUs, points[best].CPUs)
	}
	if _, _, err := TopologySweep(nil, nil, nil); err == nil {
		t.Error("empty sweep accepted")
	}
	// A tie keeps the earlier config, and a runner error surfaces.
	flat := func(int, int) (float64, error) { return 1, nil }
	if _, best, err := TopologySweep(DefaultTopologies(2), nil, flat); err != nil || best != 0 {
		t.Errorf("flat sweep picked %d (err %v), want the first config", best, err)
	}
	wantErr := errors.New("probe failed")
	if _, _, err := TopologySweep(DefaultTopologies(2), nil, func(int, int) (float64, error) { return 0, wantErr }); !errors.Is(err, wantErr) {
		t.Errorf("runner error = %v, want %v", err, wantErr)
	}
}

// TestExecTableMatchesExecLatency: an executor's execution-latency table
// must serve exactly model.ExecLatency, the reference, for every
// architecture at every batch size up to twice its profiled MaxBatch, on
// both processors of both devices — in the architecture order the table
// was built in, whichever that is.
func TestExecTableMatchesExecLatency(t *testing.T) {
	for _, dev := range []*hw.Device{hw.NUMADevice(), hw.UMADevice()} {
		archs := []model.Architecture{model.YOLOv5l, model.ResNet101, model.YOLOv5m}
		perf, err := Matrix(dev, archs)
		if err != nil {
			t.Fatal(err)
		}
		for _, kind := range []hw.ProcKind{hw.GPU, hw.CPU} {
			proc := dev.Proc(kind)
			table := model.NewExecTable(archs, proc)
			for i, a := range archs {
				maxBatch := perf.MustLookup(a.Name, kind).MaxBatch
				if maxBatch < 1 {
					t.Fatalf("%s %s %s: MaxBatch %d", dev.Name, kind, a.Name, maxBatch)
				}
				for n := 1; n <= 2*maxBatch; n++ {
					if got, want := table.Latency(uint8(i), n), model.ExecLatency(a, proc, n); got != want {
						t.Fatalf("%s %s %s batch %d: table %v, ExecLatency %v", dev.Name, kind, a.Name, n, got, want)
					}
				}
			}
		}
	}
}
