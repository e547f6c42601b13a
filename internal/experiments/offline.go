package experiments

import (
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/hw"
	"repro/internal/runner"
	"repro/internal/workload"
)

// Figure17 reproduces the executor-count sweep ("Measurement A/B" run a
// portion of the board data offline, §5.3). The four (device,
// measurement) searches are independent, so each row is one job.
func Figure17(ctx *Context) (*Table, error) {
	t := &Table{
		ID:      "fig17",
		Title:   "Throughput under different executor counts, img/s (Figure 17)",
		Columns: []string{"device", "measurement", "1G+1C", "2G+1C", "3G+1C", "4G+1C", "5G+1C", "bestG+2C"},
		Notes: []string{
			"paper: 3–4 GPU executors with one CPU executor perform best; fewer under-utilize, more add overhead",
		},
	}
	specs := []workload.BoardSpec{workload.BoardA(), workload.BoardB()}
	labels := []string{"Measurement A", "Measurement B"}
	type rowJob struct {
		dev   *hw.Device
		spec  workload.BoardSpec
		label string
	}
	var jobs []rowJob
	for _, dev := range devices() {
		for i, spec := range specs {
			jobs = append(jobs, rowJob{dev, spec, labels[i]})
		}
	}
	rows, err := runner.Sweep(ctx.par, jobs, func(_ int, j rowJob) ([]string, error) {
		board, err := ctx.Board(j.spec)
		if err != nil {
			return nil, err
		}
		best, err := ctx.Best(j.dev, board)
		if err != nil {
			return nil, err
		}
		row := []string{j.dev.Mem.String(), j.label}
		for _, p := range best.Topology {
			row = append(row, fmt.Sprintf("%.1f (%dG+%dC)", p.Throughput, p.GPUs, p.CPUs))
		}
		return row, nil
	})
	if err != nil {
		return nil, err
	}
	t.Rows = rows
	return t, nil
}

// Figure18 reproduces the decay-window memory-allocation search on the
// NUMA GPU: throughput at each window boundary, the selected window, and
// the chosen expert count. The two measurements' searches run in
// parallel; each search itself slides sequentially (every window
// boundary depends on the previous measurements).
func Figure18(ctx *Context) (*Table, error) {
	t := &Table{
		ID:      "fig18",
		Title:   "Decay-window search on the NUMA device (Figure 18)",
		Columns: []string{"measurement", "experts@window", "throughput", "window", "selected", "deviation"},
		Notes: []string{
			"paper: throughput rises then falls as loaded experts squeeze batch memory; the peak lies inside the selected window",
			"initial window 15, error margin 5% (§5.3)",
		},
	}
	dev := devices()[0] // NUMA, as in the paper
	specs := []workload.BoardSpec{workload.BoardA(), workload.BoardB()}
	labels := []string{"Measurement A", "Measurement B"}
	groups, err := runner.Sweep(ctx.par, specs, func(i int, spec workload.BoardSpec) ([][]string, error) {
		board, err := ctx.Board(spec)
		if err != nil {
			return nil, err
		}
		best, err := ctx.Best(dev, board)
		if err != nil {
			return nil, err
		}
		var rows [][]string
		for j, p := range best.Window.Points {
			row := []string{labels[i], fmt.Sprintf("%d", p.Experts), fmt.Sprintf("%.1f", p.Throughput), "", "", ""}
			if j == len(best.Window.Points)-1 {
				row[3] = fmt.Sprintf("[%d,%d]", best.Window.WindowLo, best.Window.WindowHi)
				row[4] = fmt.Sprintf("%d", best.Window.Selected)
				row[5] = fmt.Sprintf("%.1f%%", best.Window.Deviation*100)
			}
			rows = append(rows, row)
		}
		return rows, nil
	})
	if err != nil {
		return nil, err
	}
	for _, rows := range groups {
		t.Rows = append(t.Rows, rows...)
	}
	return t, nil
}

// Figure19 reproduces the overhead analysis: the wall-clock cost of one
// scheduling decision vs the virtual per-stage inference latency, and
// the pre-scheduled control run that executes the same order with zero
// online scheduling. Each (device, task) pair is one job; within a job
// the replay run necessarily follows the online run it replays, which
// is the shared grid's traced CoServe run.
func Figure19(ctx *Context) (*Table, error) {
	t := &Table{
		ID:      "fig19",
		Title:   "Scheduling overhead vs inference latency (Figure 19)",
		Columns: []string{"device", "task", "sched/op (wall)", "infer/stage (sim)", "online tp", "pre-sched tp", "gap"},
		Notes: []string{
			"paper: scheduling is faster than inference and costs <3% end to end",
			"scheduling cost is measured on the real CPU; inference latency is simulated — the comparison mirrors the paper's argument, not its absolute scale",
		},
	}
	tasks, err := ctx.tasks()
	if err != nil {
		return nil, err
	}
	type rowJob struct {
		dev  *hw.Device
		task workload.Task
	}
	var jobs []rowJob
	for _, dev := range devices() {
		for _, task := range tasks {
			if task.Name != "A2" && task.Name != "B2" {
				continue
			}
			jobs = append(jobs, rowJob{dev, task})
		}
	}
	rows, err := runner.Sweep(ctx.par, jobs, func(_ int, j rowJob) ([]string, error) {
		run, err := ctx.gridRun(j.dev, core.CoServe, j.task, false)
		if err != nil {
			return nil, err
		}
		online := run.rep
		cfg, err := ctx.configFor(j.dev, core.CoServe, j.task.Board, false)
		if err != nil {
			return nil, err
		}
		cfg.PreschedPicks = run.picks
		sys, err := core.NewSystem(cfg, j.task.Board.Model)
		if err != nil {
			return nil, err
		}
		presched, err := sys.RunTask(j.task)
		if err != nil {
			return nil, err
		}
		gap := 0.0
		if presched.Throughput > 0 {
			gap = (presched.Throughput - online.Throughput) / presched.Throughput
		}
		return []string{
			j.dev.Mem.String(), j.task.Name,
			online.SchedPerOp.Round(10 * time.Nanosecond).String(),
			online.InferPerStage.Round(100 * time.Microsecond).String(),
			fmt.Sprintf("%.1f", online.Throughput),
			fmt.Sprintf("%.1f", presched.Throughput),
			fmt.Sprintf("%.2f%%", gap*100),
		}, nil
	})
	if err != nil {
		return nil, err
	}
	t.Rows = rows
	return t, nil
}
