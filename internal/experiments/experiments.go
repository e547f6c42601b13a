// Package experiments regenerates every table and figure of the paper's
// evaluation (§1 Figure 1, §3 Figures 5/6, §4 Figures 11/12, §5 Figures
// 13–19 and Table 1). Each experiment is a named, deterministic function
// returning a printable table; the CLI (cmd/coserve) and the benchmark
// harness (bench_test.go) both run through this registry.
//
// Sweep points — the (device, batch size, policy, executor count, …)
// grid cells behind each table — are independent simulations, and the
// package fans them out across a bounded worker pool (internal/runner).
// Results are collected in submission order and every simulation owns
// its environment and seed-derived RNG, so the rendered tables are
// byte-identical at every worker count; Context.SetParallel(1) restores
// a fully sequential run.
package experiments

import (
	"fmt"
	"strings"
	"text/tabwriter"
	"unicode/utf8"

	"repro/internal/core"
	"repro/internal/hw"
	"repro/internal/model"
	"repro/internal/profiler"
	"repro/internal/runner"
	"repro/internal/trace"
	"repro/internal/workload"
)

// Table is a rendered experiment result.
type Table struct {
	ID      string
	Title   string
	Columns []string
	Rows    [][]string
	Notes   []string
}

// Render formats the table as aligned text.
func (t *Table) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s — %s\n", t.ID, t.Title)
	w := tabwriter.NewWriter(&b, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, strings.Join(t.Columns, "\t"))
	dashes := make([]string, len(t.Columns))
	for i, c := range t.Columns {
		dashes[i] = strings.Repeat("-", utf8.RuneCountInString(c))
	}
	fmt.Fprintln(w, strings.Join(dashes, "\t"))
	for _, row := range t.Rows {
		fmt.Fprintln(w, strings.Join(row, "\t"))
	}
	w.Flush()
	for _, n := range t.Notes {
		fmt.Fprintf(&b, "note: %s\n", n)
	}
	return b.String()
}

// Experiment is one registered reproduction target.
type Experiment struct {
	ID    string
	Paper string // the paper artifact this regenerates
	Desc  string
	Run   func(ctx *Context) (*Table, error)
}

// Registry returns all experiments in paper order.
func Registry() []Experiment {
	return []Experiment{
		{"tab1", "Table 1", "hardware profiles of the evaluation devices", Table1},
		{"fig1", "Figure 1", "expert switching latency share by memory path", Figure1},
		{"fig5", "Figure 5", "average inference latency vs batch size", Figure5},
		{"fig6", "Figure 6", "memory footprint vs batch size", Figure6},
		{"fig11", "Figure 11", "cumulative distribution of expert usage", Figure11},
		{"fig12", "Figure 12", "execution latency vs batch size", Figure12},
		{"fig13", "Figure 13", "throughput of CoServe and baselines", Figure13},
		{"fig14", "Figure 14", "number of expert switches", Figure14},
		{"fig15", "Figure 15", "ablation: throughput per optimization", Figure15},
		{"fig16", "Figure 16", "ablation: expert switches per optimization", Figure16},
		{"fig17", "Figure 17", "throughput under different executor counts", Figure17},
		{"fig18", "Figure 18", "decay-window memory allocation search", Figure18},
		{"fig19", "Figure 19", "scheduling overhead vs inference latency", Figure19},
	}
}

// All returns the paper artifacts followed by the extension and
// serving-layer experiments.
func All() []Experiment {
	all := append(Registry(), extRegistry()...)
	return append(all, serveRegistry()...)
}

// ByID finds an experiment (paper artifact or extension).
func ByID(id string) (Experiment, error) {
	for _, e := range All() {
		if e.ID == id {
			return e, nil
		}
	}
	return Experiment{}, fmt.Errorf("experiments: unknown experiment %q (try: %s)", id, strings.Join(IDs(), " "))
}

// IDs lists all experiment IDs in order.
func IDs() []string {
	reg := All()
	ids := make([]string, len(reg))
	for i, e := range reg {
		ids[i] = e.ID
	}
	return ids
}

// RunAll regenerates the experiments with the given IDs (every
// registered experiment when ids is nil), fanning independent
// experiments out across the context's worker pool. Rendered tables
// return in ID order regardless of execution order, so the concatenated
// output is byte-identical at every worker count.
func RunAll(ctx *Context, ids []string) ([]string, error) {
	if ids == nil {
		ids = IDs()
	}
	return runner.Sweep(ctx.par, ids, func(_ int, id string) (string, error) {
		e, err := ByID(id)
		if err != nil {
			return "", err
		}
		tb, err := e.Run(ctx)
		if err != nil {
			return "", fmt.Errorf("%s: %w", id, err)
		}
		return tb.Render(), nil
	})
}

// Context caches the expensive shared state — boards, profiled
// performance matrices, the evaluation grid of task runs, batch-size
// microbenchmark sweeps, and the offline-search results — so the figure
// set can be regenerated in one process without repeating work. A
// Context is safe for concurrent use: each cache key is built exactly
// once (concurrent requesters block on the single builder and share its
// result), which is what lets parallel sweep points share one offline
// phase instead of recomputing or racing on it.
type Context struct {
	par    *runner.Pool
	boards runner.Memo[string, *workload.Board]
	perf   runner.Memo[string, model.PerfMatrix]
	grid   runner.Memo[gridKey, gridRun]
	best   runner.Memo[string, core.OfflineResult]
	sweeps runner.Memo[string, [][]profiler.BatchPoint]
}

type gridKey struct {
	dev     string
	variant core.Variant
	task    string
	best    bool
}

// NewContext returns an empty cache whose sweeps fan out across
// runtime.GOMAXPROCS(0) workers; SetParallel adjusts the bound.
func NewContext() *Context {
	return &Context{par: runner.New(0)}
}

// SetParallel bounds the worker count used for sweep fan-out (n <= 0
// means runtime.GOMAXPROCS(0); 1 runs fully sequentially). The rendered
// tables are byte-identical at every setting.
func (c *Context) SetParallel(n int) { c.par = runner.New(n) }

// Parallel reports the context's worker bound.
func (c *Context) Parallel() int { return c.par.Workers() }

// evalArchs are the architectures the evaluation uses (§5.1).
var evalArchs = []model.Architecture{model.ResNet101, model.YOLOv5m, model.YOLOv5l}

// devices returns the two evaluation platforms in paper order.
func devices() []*hw.Device {
	return []*hw.Device{hw.NUMADevice(), hw.UMADevice()}
}

// Board returns the memoized board for a spec.
func (c *Context) Board(spec workload.BoardSpec) (*workload.Board, error) {
	return c.boards.Do(spec.Name, spec.Build)
}

// Perf returns the memoized offline performance matrix for a device.
func (c *Context) Perf(dev *hw.Device) (model.PerfMatrix, error) {
	return c.perf.Do(dev.Name, func() (model.PerfMatrix, error) {
		return profiler.Matrix(dev, evalArchs)
	})
}

// tasks returns the four evaluation tasks over the two boards.
func (c *Context) tasks() ([]workload.Task, error) {
	a, err := c.Board(workload.BoardA())
	if err != nil {
		return nil, err
	}
	b, err := c.Board(workload.BoardB())
	if err != nil {
		return nil, err
	}
	return []workload.Task{
		workload.TaskA1(a), workload.TaskA2(a),
		workload.TaskB1(b), workload.TaskB2(b),
	}, nil
}

// sampleTask is the offline phase's "smaller, representative dataset
// sampled from the application scenario" (§4.4).
func sampleTask(b *workload.Board) workload.Task {
	return workload.Task{
		Name:          "sample-" + b.Spec.Name,
		Board:         b,
		N:             600,
		ArrivalPeriod: workload.DefaultArrivalPeriod,
		Seed:          777,
	}
}

// run executes (and memoizes) one task under one system configuration.
// Each execution builds its own System and simulation environment, so
// distinct keys may run concurrently.
func (c *Context) run(dev *hw.Device, v core.Variant, task workload.Task, useBest bool) (*core.Report, error) {
	g, err := c.gridRun(dev, v, task, useBest)
	return g.rep, err
}

// gridRun is one memoized grid run: its report and, for a CoServe run
// on the casual layout, the assignment sequence its trace recorded
// (core.TracedPicks), which Figure 19 replays.
type gridRun struct {
	rep   *core.Report
	picks []int
}

// gridRun runs (and memoizes) one grid cell. CoServe's casual runs are
// traced — tracing is passive, so their reports are unchanged — and
// keep their picks, so Figure 19 replays them without serving them a
// second time.
func (c *Context) gridRun(dev *hw.Device, v core.Variant, task workload.Task, useBest bool) (gridRun, error) {
	key := gridKey{dev: dev.Name, variant: v, task: task.Name + "/" + task.Board.Spec.Name, best: useBest}
	return c.grid.Do(key, func() (gridRun, error) {
		cfg, err := c.configFor(dev, v, task.Board, useBest)
		if err != nil {
			return gridRun{}, err
		}
		traced := v == core.CoServe && !useBest
		if traced {
			cfg.Trace = trace.New()
		}
		sys, err := core.NewSystem(cfg, task.Board.Model)
		if err != nil {
			return gridRun{}, err
		}
		rep, err := sys.RunTask(task)
		if err != nil || !traced {
			return gridRun{rep: rep}, err
		}
		picks, err := core.TracedPicks(cfg.Trace, sys.Queues())
		return gridRun{rep: rep, picks: picks}, err
	})
}

// configFor assembles the configuration a variant runs under: the
// variant's default layout (Samba's for the Samba variants, the casual
// one otherwise), or for "best" the offline-searched one (§5.2).
func (c *Context) configFor(dev *hw.Device, v core.Variant, board *workload.Board, useBest bool) (core.Config, error) {
	if useBest {
		best, err := c.Best(dev, board)
		cfg := best.Config
		cfg.Variant = v
		return cfg, err
	}
	pm, err := c.Perf(dev)
	return core.Config{Device: dev, Variant: v, Perf: pm}, err
}

// Best runs (and memoizes) the offline configuration search
// (core.OfflineSearch) for one device+board on the sample dataset. Its
// independent executor-count points run through the worker pool.
func (c *Context) Best(dev *hw.Device, board *workload.Board) (core.OfflineResult, error) {
	return c.best.Do(dev.Name+"/"+board.Spec.Name, func() (core.OfflineResult, error) {
		pm, err := c.Perf(dev)
		if err != nil {
			return core.OfflineResult{}, err
		}
		return core.OfflineSearch(dev, pm, sampleTask(board), func(n int, probe func(int) (float64, error)) ([]float64, error) {
			return runner.Map(c.par, n, probe)
		})
	})
}

// gridRows fans one job per (device, task) row through the context's
// worker pool: each job runs the given systems in order against its
// row's task and formats the row. Rows come back in device-major,
// task-minor order — exactly the sequential iteration order.
func gridRows(ctx *Context, systems []evalSystem, format func(dev *hw.Device, task workload.Task, reps []*core.Report) []string) ([][]string, error) {
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
			jobs = append(jobs, rowJob{dev, task})
		}
	}
	return runner.Sweep(ctx.par, jobs, func(_ int, j rowJob) ([]string, error) {
		reps := make([]*core.Report, len(systems))
		for i, s := range systems {
			rep, err := ctx.run(j.dev, s.variant, j.task, s.best)
			if err != nil {
				return nil, fmt.Errorf("%s/%s/%s: %w", j.dev.Name, j.task.Name, s.label, err)
			}
			reps[i] = rep
		}
		return format(j.dev, j.task, reps), nil
	})
}
