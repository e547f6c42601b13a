package experiments

import (
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/hw"
	"repro/internal/pool"
	"repro/internal/runner"
	"repro/internal/workload"
)

// Extension experiments go beyond the paper's figures: design-choice
// ablations DESIGN.md calls out and sensitivity sweeps over the
// simulated hardware. They register alongside the paper artifacts.

// extRegistry returns the extension experiments.
func extRegistry() []Experiment {
	return []Experiment{
		{"ext-evict", "extension", "eviction-policy ablation: LRU vs prob-only vs two-stage", ExtEviction},
		{"ext-ssd", "extension", "sensitivity: throughput vs SSD/deserialization speed", ExtSSDSweep},
		{"ext-arrival", "extension", "sensitivity: throughput vs request arrival period", ExtArrivalSweep},
	}
}

// runCoServeWith runs Task A1 on the NUMA device under full CoServe with
// the given tweaks applied to the config/device.
func (c *Context) runCoServeWith(dev *hw.Device, task workload.Task, mutate func(*core.Config)) (*core.Report, error) {
	pm, err := c.Perf(dev)
	if err != nil {
		return nil, err
	}
	cfg := core.Config{Device: dev, Variant: core.CoServe, Perf: pm}
	if mutate != nil {
		mutate(&cfg)
	}
	sys, err := core.NewSystem(cfg, task.Board.Model)
	if err != nil {
		return nil, err
	}
	return sys.RunTask(task)
}

// ExtEviction isolates the two-stage eviction design (§4.3): full
// CoServe with LRU, probability-only, and two-stage dependency-aware
// eviction on the same task. Each (device, policy) cell is one job.
func ExtEviction(ctx *Context) (*Table, error) {
	t := &Table{
		ID:      "ext-evict",
		Title:   "Eviction-policy ablation under full CoServe (extension)",
		Columns: []string{"device", "policy", "throughput", "switches", "evictions"},
		Notes: []string{
			"two-stage = prob-only + stage 1 (evict orphaned subsequent experts first, §4.3)",
			"both probability-based policies beat LRU decisively; in this workload stage 1 is roughly neutral (orphaned detectors are sometimes re-needed once their classifiers load), so prob-only can edge out two-stage",
		},
	}
	board, err := ctx.Board(workload.BoardA())
	if err != nil {
		return nil, err
	}
	task := workload.TaskA1(board)
	policies := []pool.Policy{pool.LRU{}, pool.ProbOnly{}, pool.DepAware{}}
	type cellJob struct {
		dev    *hw.Device
		policy pool.Policy
	}
	var jobs []cellJob
	for _, dev := range devices() {
		for _, p := range policies {
			jobs = append(jobs, cellJob{dev, p})
		}
	}
	rows, err := runner.Sweep(ctx.par, jobs, func(_ int, j cellJob) ([]string, error) {
		rep, err := ctx.runCoServeWith(j.dev, task, func(cfg *core.Config) { cfg.EvictPolicy = j.policy })
		if err != nil {
			return nil, err
		}
		return []string{
			j.dev.Mem.String(), j.policy.Name(),
			fmt.Sprintf("%.1f", rep.Throughput),
			fmt.Sprintf("%d", rep.Switches),
			fmt.Sprintf("%d", rep.Evictions),
		}, nil
	})
	if err != nil {
		return nil, err
	}
	t.Rows = rows
	return t, nil
}

// ExtSSDSweep sweeps the storage/deserialization speed: the paper's
// NUMA SSD (530 MB/s read, 250 MB/s deserialize) scaled by factors,
// showing how much of CoServe's advantage survives faster storage. Each
// speed factor is one job owning its own scaled device profile.
func ExtSSDSweep(ctx *Context) (*Table, error) {
	t := &Table{
		ID:      "ext-ssd",
		Title:   "Sensitivity to storage speed, NUMA Task A1 (extension)",
		Columns: []string{"speed factor", "samba tp", "coserve tp", "ratio"},
		Notes: []string{
			"scales SSD read, deserialization, and host-link rates together",
			"faster storage narrows the gap but CoServe keeps winning: fewer switches also mean less bus traffic",
		},
	}
	board, err := ctx.Board(workload.BoardA())
	if err != nil {
		return nil, err
	}
	task := workload.TaskA1(board)
	factors := []float64{0.5, 1, 2, 4, 8}
	rows, err := runner.Sweep(ctx.par, factors, func(_ int, factor float64) ([]string, error) {
		dev := hw.NUMADevice()
		dev.Name = fmt.Sprintf("numa-x%g", factor)
		dev.SSDReadBW *= factor
		dev.DeserBW *= factor
		dev.PCIeBW *= factor
		pm, err := ctx.Perf(dev)
		if err != nil {
			return nil, err
		}
		sambaSys, err := core.NewSystem(core.Config{Device: dev, Variant: core.Samba, Perf: pm}, board.Model)
		if err != nil {
			return nil, err
		}
		sambaRep, err := sambaSys.RunTask(task)
		if err != nil {
			return nil, err
		}
		cosRep, err := ctx.runCoServeWith(dev, task, nil)
		if err != nil {
			return nil, err
		}
		return []string{
			fmt.Sprintf("%gx", factor),
			fmt.Sprintf("%.1f", sambaRep.Throughput),
			fmt.Sprintf("%.1f", cosRep.Throughput),
			fmt.Sprintf("%.1fx", cosRep.Throughput/sambaRep.Throughput),
		}, nil
	})
	if err != nil {
		return nil, err
	}
	t.Rows = rows
	return t, nil
}

// ExtArrivalSweep sweeps the request arrival period around the paper's
// 4 ms: CoServe's grouping opportunities depend on queue depth, so
// slower arrivals (shallower queues) shrink its advantage. Each period
// is one job.
func ExtArrivalSweep(ctx *Context) (*Table, error) {
	t := &Table{
		ID:      "ext-arrival",
		Title:   "Sensitivity to arrival period, NUMA Task A1 (extension)",
		Columns: []string{"arrival period", "coserve tp", "switches", "p95 latency"},
		Notes: []string{
			"paper workload: one image every 4 ms",
		},
	}
	board, err := ctx.Board(workload.BoardA())
	if err != nil {
		return nil, err
	}
	periods := []time.Duration{
		time.Millisecond, 4 * time.Millisecond, 16 * time.Millisecond, 64 * time.Millisecond,
	}
	rows, err := runner.Sweep(ctx.par, periods, func(_ int, period time.Duration) ([]string, error) {
		task := workload.TaskA1(board)
		task.ArrivalPeriod = period
		rep, err := ctx.runCoServeWith(hw.NUMADevice(), task, nil)
		if err != nil {
			return nil, err
		}
		return []string{
			period.String(),
			fmt.Sprintf("%.1f", rep.Throughput),
			fmt.Sprintf("%d", rep.Switches),
			fmt.Sprintf("%.1fs", rep.Latency.P95),
		}, nil
	})
	if err != nil {
		return nil, err
	}
	t.Rows = rows
	return t, nil
}
