// Command coserve runs the CoServe reproduction: single task runs,
// offline profiling, and regeneration of every table and figure from the
// paper's evaluation.
//
// Usage:
//
//	coserve list                         # what can be reproduced
//	coserve experiment fig13             # regenerate one figure
//	coserve experiment all               # regenerate everything, all cores
//	coserve experiment -parallel 1 all   # fully sequential run (same tables)
//	coserve experiment -cpuprofile cpu.out -memprofile mem.out fig13
//	                                     # profile a hot-path regression
//	coserve run -device numa -system coserve -task A1
//	coserve serve -arrival poisson -rate 40 -n 2000 -slo 500ms
//	coserve serve -board A+B -arrival mix -rate 4 -repeat 2
//	coserve serve -arrival steady -rate 40 -horizon 10s -slo 500ms -admit shed
//	                                     # overload: shed predicted SLO misses
//	coserve serve -admit bounded -queue-bound 32 -autoscale -window 250ms
//	coserve serve -nodes 4 -router affinity -placement usage -rate 40 -slo 500ms
//	                                     # cluster: 4 nodes, residency routing
//	coserve serve -nodes 4 -chaos "crash@2s:1,recover@3.5s:1,drain@6s:2"
//	                                     # chaos: crash/drain/recover nodes,
//	                                     # leases redeliver, nothing is lost
//	coserve serve -nodes 4 -chaos "slow@2s:1x40" -health-window 500ms -breaker -hedge-after 1s
//	                                     # gray failure: node 1 fails slow,
//	                                     # breaker quarantines it, hedges
//	                                     # rescue the trapped requests
//	coserve serve -nodes 4 -chaos-mtbf 5s -chaos-mttr 1s -window 1s -fleet-autoscale 12
//	                                     # generated MTBF faults + fleet scaling
//	coserve serve -nodes 4 -percentiles sketch -arrival steady -rate 40 -horizon 30s
//	                                     # long stream: O(1)-memory latency sketch
//	coserve serve -nodes 100 -router affinity -arrival steady -rate 600 -cpuprofile cpu.out
//	                                     # profile the fleet's serve path
//	coserve serve -record trace.bin -n 500
//	coserve serve -arrival replay -trace trace.bin -repeat 2
//	                                     # capture, then replay bit-for-bit
//	coserve profile -device uma          # print the performance matrix
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"slices"
	"strings"
	"text/tabwriter"
	"time"

	coserve "repro"
	"repro/internal/cluster"
	"repro/internal/control"
	"repro/internal/core"
	"repro/internal/hw"
	"repro/internal/model"
	"repro/internal/sim"
	"repro/internal/workload"
)

func main() {
	err := run(os.Args[1:])
	if err == nil || errors.Is(err, flag.ErrHelp) {
		return // -h: the flag package printed the flag list
	}
	if !errors.As(err, new(printed)) {
		fmt.Fprintln(os.Stderr, "coserve:", err)
	}
	os.Exit(1)
}

// printed marks a flag-parse error: the flag package has already
// printed it, with the flag list.
type printed struct{ error }

// parse parses args into fs, marking a bad flag's error printed.
func parse(fs *flag.FlagSet, args []string) error {
	err := fs.Parse(args)
	if err != nil && !errors.Is(err, flag.ErrHelp) {
		return printed{err}
	}
	return err
}

func run(args []string) error {
	if len(args) == 0 {
		usage()
		return fmt.Errorf("missing subcommand")
	}
	switch args[0] {
	case "list":
		return cmdList()
	case "experiment":
		return cmdExperiment(args[1:])
	case "run":
		return cmdRun(args[1:])
	case "serve":
		return cmdServe(args[1:])
	case "profile":
		return cmdProfile(args[1:])
	case "help", "-h", "--help":
		usage()
		return nil
	default:
		usage()
		return fmt.Errorf("unknown subcommand %q", args[0])
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage: coserve <command> [flags]

commands:
  list         list reproducible tables and figures
  experiment   regenerate a figure/table by id, or "all"
               (-parallel N fans independent simulations across N workers;
               tables are byte-identical at every worker count — only
               fig19's wall-clock sched-cost cells vary run to run;
               -cpuprofile/-memprofile write pprof profiles of the run)
  run          run one task under one serving system
  serve        serve an arrival stream on one node or a cluster
               (coserve serve -h lists its flags)
  profile      run the offline profiler and print the performance matrix`)
}

func cmdList() error {
	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "id\tpaper\tdescription")
	for _, e := range coserve.Experiments() {
		fmt.Fprintf(w, "%s\t%s\t%s\n", e.ID, e.Paper, e.Desc)
	}
	return w.Flush()
}

func cmdExperiment(args []string) error {
	fs := flag.NewFlagSet("experiment", flag.ContinueOnError)
	prof := profileFlags(fs, "experiment run")
	parallel := fs.Int("parallel", runtime.GOMAXPROCS(0),
		"worker count for independent simulations (1 = fully sequential; tables are byte-identical at every setting, except fig19's wall-clock sched-cost cells which vary between any two runs)")
	if err := parse(fs, args); err != nil {
		return err
	}
	if fs.NArg() != 1 {
		return fmt.Errorf("experiment needs one id (or \"all\"); see coserve list")
	}
	if *parallel < 1 {
		return fmt.Errorf("parallel must be at least 1")
	}
	stop, err := prof.start()
	if err != nil {
		return err
	}
	defer stop()
	ctx := coserve.NewExperimentContext()
	ctx.SetParallel(*parallel)
	ids := []string{fs.Arg(0)}
	if fs.Arg(0) == "all" {
		ids = nil
		for _, e := range coserve.Experiments() {
			ids = append(ids, e.ID)
		}
	}
	start := time.Now()
	outs, err := coserve.RunExperiments(ctx, ids)
	// Every experiment runs regardless of sibling failures; print the
	// tables that did regenerate before reporting what failed.
	for _, out := range outs {
		if out == "" {
			continue
		}
		fmt.Print(out)
		fmt.Println()
	}
	if err != nil {
		return err
	}
	fmt.Printf("(%d experiment(s) regenerated in %v on %d worker(s))\n",
		len(ids), time.Since(start).Round(time.Millisecond), ctx.Parallel())
	return nil
}

// profiles holds a subcommand's -cpuprofile and -memprofile flags.
type profiles struct{ cpu, mem *string }

// profileFlags registers -cpuprofile and -memprofile on fs; what names
// the profiled work in their help text.
func profileFlags(fs *flag.FlagSet, what string) profiles {
	return profiles{
		cpu: fs.String("cpuprofile", "", "write a CPU profile of the "+what+" to this file"),
		mem: fs.String("memprofile", "", "write a heap profile taken after the "+what+" to this file"),
	}
}

// start creates the requested profile files and starts the CPU profile.
// The returned stop ends it and writes the heap profile.
func (p profiles) start() (stop func(), err error) {
	var cpu, mem *os.File
	if *p.mem != "" {
		if mem, err = os.Create(*p.mem); err != nil {
			return nil, err
		}
	}
	if *p.cpu != "" {
		if cpu, err = os.Create(*p.cpu); err == nil {
			if err = pprof.StartCPUProfile(cpu); err != nil {
				cpu.Close()
				err = fmt.Errorf("starting CPU profile: %w", err)
			}
		}
		if err != nil {
			if mem != nil {
				mem.Close()
			}
			return nil, err
		}
	}
	return func() {
		if cpu != nil {
			pprof.StopCPUProfile()
			closeProfile(cpu)
		}
		if mem != nil {
			runtime.GC() // material allocations only: flush garbage before the snapshot
			if err := pprof.WriteHeapProfile(mem); err != nil {
				fmt.Fprintln(os.Stderr, "coserve: writing heap profile:", err)
			}
			closeProfile(mem)
		}
	}, nil
}

// closeProfile closes a written profile, reporting a failed close: the
// file may be incomplete.
func closeProfile(f *os.File) {
	if err := f.Close(); err != nil {
		fmt.Fprintln(os.Stderr, "coserve: closing profile:", err)
	}
}

// textFlag is a flag whose text parse turns into a config field: the
// field holds the parsed value and the flag keeps the text it was given.
type textFlag[T any] struct {
	dst   *T
	parse func(string) (T, error)
	text  string
}

func (f *textFlag[T]) String() string { return f.text }

func (f *textFlag[T]) Set(s string) error {
	v, err := f.parse(s)
	if err != nil {
		return err
	}
	*f.dst, f.text = v, s
	return nil
}

// textVar defines a flag that writes parse(text) into *dst, starting
// from the value of def.
func textVar[T any](fs *flag.FlagSet, dst *T, name, def, usage string, parse func(string) (T, error)) *textFlag[T] {
	f := &textFlag[T]{dst: dst, parse: parse}
	if err := f.Set(def); err != nil {
		panic(err) // a default its own parser refuses
	}
	fs.Var(f, name, usage)
	return f
}

// named returns a parser that picks the value whose String is the text.
func named[T fmt.Stringer](what string, values ...T) func(string) (T, error) {
	return func(s string) (T, error) {
		names := make([]string, len(values))
		for i, v := range values {
			if v.String() == s {
				return v, nil
			}
			names[i] = v.String()
		}
		var zero T
		return zero, fmt.Errorf("unknown %s %q (want %s)", what, s, strings.Join(names, ", "))
	}
}

// deviceAndSystem defines the -device and -system flags of run and
// serve, which write into cfg.
func deviceAndSystem(fs *flag.FlagSet, cfg *core.Config) {
	textVar(fs, &cfg.Device, "device", "numa", "device profile: numa or uma", hw.ByName)
	textVar(fs, &cfg.Variant, "system", "coserve", "serving system variant", named("system", core.Variants()...))
}

// buildBoard builds board A, B, or their merged multi-tenant model A+B,
// whose per-tenant boards it also returns.
func buildBoard(name string) (*workload.Board, []*workload.Board, error) {
	switch strings.ToUpper(name) {
	case "A":
		b, err := workload.BoardA().Build()
		return b, nil, err
	case "B":
		b, err := workload.BoardB().Build()
		return b, nil, err
	case "A+B", "AB":
		a, err := workload.BoardA().Build()
		if err != nil {
			return nil, nil, err
		}
		b, err := workload.BoardB().Build()
		if err != nil {
			return nil, nil, err
		}
		return workload.MergeBoards("board-a+b", []float64{1, 1}, a, b)
	}
	return nil, nil, fmt.Errorf("unknown board %q (want A, B, or A+B)", name)
}

// tasks are the paper's tasks by name; each runs on the board its name
// begins with.
var tasks = map[string]func(*workload.Board) workload.Task{
	"A1": workload.TaskA1, "A2": workload.TaskA2, "B1": workload.TaskB1, "B2": workload.TaskB2,
}

func cmdRun(args []string) error {
	fs := flag.NewFlagSet("run", flag.ContinueOnError)
	var cfg core.Config
	deviceAndSystem(fs, &cfg)
	taskName := fs.String("task", "A1", "task: A1, A2, B1, B2")
	n := fs.Int("n", 0, "override request count (0 = task default)")
	perfFile := fs.String("perf", "", "load a persisted performance matrix instead of profiling")
	if err := parse(fs, args); err != nil {
		return err
	}
	newTask, ok := tasks[*taskName]
	if !ok {
		return fmt.Errorf("unknown task %q", *taskName)
	}
	board, _, err := buildBoard((*taskName)[:1])
	if err != nil {
		return err
	}
	task := newTask(board)
	if *n > 0 {
		task.N = *n
	}

	if *perfFile != "" {
		f, err := os.Open(*perfFile)
		if err != nil {
			return err
		}
		cfg.Perf, err = model.ReadPerfMatrix(f, coserve.EvalArchitectures())
		f.Close()
		if err != nil {
			return err
		}
		fmt.Printf("loaded performance matrix from %s\n", *perfFile)
	} else {
		fmt.Printf("profiling %s (offline phase)...\n", cfg.Device.Name)
		if cfg.Perf, err = coserve.Profile(cfg.Device, coserve.EvalArchitectures()); err != nil {
			return err
		}
	}
	sys, err := core.NewSystem(cfg, board.Model)
	if err != nil {
		return err
	}
	fmt.Printf("running task %s (%d requests) on %s under %s...\n", task.Name, task.N, cfg.Device.Name, cfg.Variant)
	start := time.Now()
	rep, err := sys.RunTask(task)
	if err != nil {
		return err
	}
	printReport(rep)
	fmt.Printf("(simulated in %v of wall time)\n", time.Since(start).Round(time.Millisecond))
	return nil
}

// arrivals are the processes -arrival names.
var arrivals = []string{"poisson", "fixed", "bursty", "mix", "steady", "replay"}

// cmdServe drives the streaming serving layer: it builds one System, or
// a cluster of them, and serves the requested arrival process against
// it, optionally several consecutive times on warm pools. Its flags write
// into the library's configs, and the library checks them.
func cmdServe(args []string) error {
	fs := flag.NewFlagSet("serve", flag.ContinueOnError)
	prof := profileFlags(fs, "serve")
	// popts parameterizes every admission policy, node is each node's
	// config, and fleet the cluster's.
	var (
		popts control.PolicyOptions
		node  core.Config
		fleet cluster.Config
	)
	deviceAndSystem(fs, &node)
	boardName := fs.String("board", "A", "board: A, B, or A+B (merged multi-tenant model)")
	arrival := fs.String("arrival", "poisson", "arrival process: "+strings.Join(arrivals, ", "))
	rate := fs.Float64("rate", 40, "offered load in req/s (poisson, mix, steady)")
	period := fs.Duration("period", workload.DefaultArrivalPeriod, "interarrival period (fixed, bursty)")
	on := fs.Duration("on", 100*time.Millisecond, "burst ON window (bursty)")
	off := fs.Duration("off", 400*time.Millisecond, "burst OFF window (bursty)")
	n := fs.Int("n", 1000, "stream length in requests")
	horizon := fs.Duration("horizon", 10*time.Second, "virtual-time horizon bounding the infinite steady arrival process")
	fs.DurationVar(&node.SLO, "slo", 0, "per-request latency objective (0 = none)")
	seed := fs.Int64("seed", 1, "stream seed")
	repeat := fs.Int("repeat", 1, "serve the stream this many consecutive times (warm restarts)")
	admit := fs.String("admit", "accept", "admission policy: accept, bounded, token, shed (needs -slo), tenant-quota")
	fs.IntVar(&popts.QueueBound, "queue-bound", 64, "backlog bound for -admit bounded")
	fs.Float64Var(&popts.Rate, "admit-rate", 20, "token refill rate in req/s for -admit token")
	fs.Float64Var(&popts.Burst, "admit-burst", 10, "token burst for -admit token")
	fs.Float64Var(&popts.TenantRate, "tenant-rate", 10, "per-tenant refill rate in req/s for -admit tenant-quota")
	fs.Float64Var(&popts.TenantBurst, "tenant-burst", 5, "per-tenant token burst for -admit tenant-quota")
	autoscale := fs.Bool("autoscale", false, "autoscale the active executor set on windowed utilization (hysteresis 0.3/0.85)")
	reachable := fs.Bool("autoscale-reachable", false, "with -autoscale, refuse scale-downs whose surviving pools cannot hold the working set")
	fs.DurationVar(&node.Window, "window", 0, "windowed-metrics interval and autoscale cadence (0 = default when autoscaling, else disabled)")
	textVar(fs, &node.Percentiles, "percentiles", "exact", "latency percentile accounting: exact (store every sample) or sketch (O(1) mergeable sketch, ±1% values)",
		named("percentile mode", core.PercentilesExact, core.PercentilesSketch))
	nodes := fs.Int("nodes", 1, "cluster size: serve across this many nodes sharing one simulation (1 = single-node system)")
	textVar(fs, &fleet.Router, "router", "least-loaded", "cluster request router (with -nodes >= 2): least-loaded, affinity, predict", cluster.RouterByName)
	textVar(fs, &fleet.Placement, "placement", "mirror", "cluster expert placement (with -nodes >= 2): mirror, partition, usage", cluster.PlacementByName)
	textVar(fs, &fleet.Faults, "chaos", "", `scripted cluster fault schedule: comma-separated kind@offset:node events, e.g. "crash@2s:1,recover@3.5s:1,drain@6s:2"; gray kinds take a parameter after the node — "slow@2s:1x4" (4× service time), "jitter@2s:1x8" (×[1,8] per batch), "stall@2s:1x1.5s" (frozen 1.5s) (needs -nodes >= 2)`, sim.ParseFaultPlan)
	chaosMTBF := fs.Duration("chaos-mtbf", 0, "generate an MTBF-style fault schedule: mean up time between crashes per node (needs -nodes >= 2; schedule horizon is -horizon)")
	chaosMTTR := fs.Duration("chaos-mttr", time.Second, "mean down time before recovery for -chaos-mtbf")
	chaosSeed := fs.Int64("chaos-seed", 1, "seed for -chaos-mtbf schedule generation")
	fs.DurationVar(&fleet.Health.Window, "health-window", 0, "score per-node health from windowed completion latency at this interval (0 = off; needs -nodes >= 2)")
	fs.BoolVar(&fleet.Health.Breaker, "breaker", false, "arm the health circuit breaker: quarantine nodes scoring < 0.5, probe half-open, reinstate >= 0.8 (needs -health-window)")
	fs.DurationVar(&fleet.Hedge.After, "hedge-after", 0, "hedge requests still leased after this deadline to another node; first completion wins, losers count as wasted work (0 = off; needs -nodes >= 2)")
	clusterAdmit := fs.String("cluster-admit", "", "cluster-level admission policy in front of the router: accept, bounded, token, shed (same knobs as -admit; empty = admit everything)")
	fleetScale := fs.Float64("fleet-autoscale", 0, "drain/resume cluster nodes to track the offered rate at this many req/s per node (0 = off; needs -window and -nodes >= 2)")
	interconnect := textVar(fs, &fleet.Interconnect, "interconnect", "", `cluster interconnect hop model: dispatch/intra-board/inter-node one-way latencies with an optional @board-size, e.g. "200us/100us/600us@2" (nodes past board-size pay the inter-node class); every offer and ack then lands one hop after it is sent (needs -nodes >= 2; each hop at most 1m; empty = zero-latency offers)`, cluster.ParseInterconnect)
	record := fs.String("record", "", "record the served arrival stream to this trace file (first round)")
	traceFile := fs.String("trace", "", "arrival trace file to serve for -arrival replay")
	if err := parse(fs, args); err != nil {
		return err
	}
	popts.Objective, fleet.SLO, fleet.Window, fleet.Percentiles = node.SLO, node.SLO, node.Window, node.Percentiles
	if *repeat < 1 {
		return fmt.Errorf("repeat must be at least 1")
	}
	if *nodes < 1 {
		return fmt.Errorf("nodes must be at least 1")
	}
	if *horizon < 0 {
		return fmt.Errorf("-horizon must not be negative")
	}
	if *nodes < 2 && (fleet.Faults != nil || *chaosMTBF > 0 || *clusterAdmit != "" || *fleetScale > 0 ||
		fleet.Health != (cluster.HealthConfig{}) || fleet.Hedge != (cluster.HedgeConfig{}) || interconnect.text != "") {
		return fmt.Errorf("-chaos, -chaos-mtbf, -cluster-admit, -fleet-autoscale, -health-window, -breaker, -hedge-after, and -interconnect need a cluster (-nodes >= 2)")
	}
	if fleet.Faults != nil && *chaosMTBF > 0 {
		return fmt.Errorf("-chaos and -chaos-mtbf are mutually exclusive: script the schedule or generate it, not both")
	}
	if !slices.Contains(arrivals, *arrival) {
		return fmt.Errorf("unknown arrival process %q (want %s)", *arrival, strings.Join(arrivals, ", "))
	}
	if *arrival == "replay" && *traceFile == "" {
		return fmt.Errorf("-arrival replay needs a -trace file")
	}
	stop, err := prof.start()
	if err != nil {
		return err
	}
	defer stop()

	board, views, err := buildBoard(*boardName)
	if err != nil {
		return err
	}
	// An arrival trace replays against the model the board resolved to;
	// it is read once and re-replayed per round.
	var arrivalTrace *workload.ArrivalTrace
	if *arrival == "replay" {
		f, err := os.Open(*traceFile)
		if err != nil {
			return err
		}
		arrivalTrace, err = workload.ReadTrace(f)
		f.Close()
		if err != nil {
			return err
		}
		fmt.Printf("loaded arrival trace %q (%d arrivals) from %s\n",
			arrivalTrace.Name, len(arrivalTrace.Entries), *traceFile)
	}

	// Sources are single-use: streams builds each serve round's own.
	streams := roundStreams{
		arrival: *arrival, board: board, views: views,
		rate: *rate, period: *period, on: *on, off: *off, horizon: *horizon,
		n: *n, seed: *seed, trace: arrivalTrace, arena: coserve.NewRequestArena(),
	}

	fmt.Printf("profiling %s (offline phase)...\n", node.Device.Name)
	if node.Perf, err = coserve.Profile(node.Device, coserve.EvalArchitectures()); err != nil {
		return err
	}
	// Admission policies and autoscalers carry per-stream state, so every
	// node gets its own instances: newNode copies node and builds them.
	newNode := func() (core.Config, error) {
		nc := node
		var err error
		if nc.Admission, err = control.PolicyByName(*admit, popts); err != nil || !*autoscale {
			return nc, err
		}
		if *reachable {
			nc.Autoscaler, err = control.NewReachableHysteresisScaler(0.3, 0.85)
		} else {
			nc.Autoscaler, err = control.NewHysteresisScaler(0.3, 0.85)
		}
		return nc, err
	}

	// saveTrace writes the recorded arrival log after a served round.
	saveTrace := func(rec *workload.RecordingSource) error {
		f, err := os.Create(*record)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := rec.Trace().Write(f); err != nil {
			return err
		}
		fmt.Printf("arrival trace (%d arrivals) recorded to %s\n", len(rec.Trace().Entries), *record)
		return nil
	}

	length := fmt.Sprintf("%d requests", *n)
	switch *arrival {
	case "steady":
		length = fmt.Sprintf("%v horizon at %g req/s", *horizon, *rate)
	case "replay":
		length = fmt.Sprintf("%d replayed arrivals", len(arrivalTrace.Entries))
	}

	// serveRounds drives the repeat loop over any serve function.
	serveRounds := func(admission, where string, serve func(src workload.Source) error) error {
		for round := 0; round < *repeat; round++ {
			src, err := streams.source(round)
			if err != nil {
				return err
			}
			var rec *workload.RecordingSource
			if *record != "" && round == 0 {
				rec = workload.Record(src)
				src = rec
			}
			warmth := "cold pools"
			if round > 0 {
				warmth = "warm pools"
			}
			fmt.Printf("serving %s stream %d/%d (%s, %s, admit %s) on %s...\n",
				*arrival, round+1, *repeat, length, warmth, admission, where)
			start := time.Now()
			if err := serve(src); err != nil {
				return err
			}
			fmt.Printf("(simulated in %v of wall time)\n\n", time.Since(start).Round(time.Millisecond))
			if rec != nil {
				if err := saveTrace(rec); err != nil {
					return err
				}
			}
		}
		return nil
	}

	if *nodes == 1 {
		cfg, err := newNode()
		if err != nil {
			return err
		}
		sys, err := core.NewSystem(cfg, board.Model)
		if err != nil {
			return err
		}
		where := fmt.Sprintf("%s under %s", node.Device.Name, node.Variant)
		return serveRounds(cfg.Admission.Name(), where, func(src workload.Source) error {
			rep, err := sys.Serve(src)
			if err != nil {
				return err
			}
			printReport(rep)
			return nil
		})
	}

	fleet.Nodes = make([]core.Config, *nodes)
	for i := range fleet.Nodes {
		if fleet.Nodes[i], err = newNode(); err != nil {
			return err
		}
	}
	if *chaosMTBF > 0 {
		if fleet.Faults, err = sim.GenerateFaultPlan(*nodes, *chaosMTBF, *chaosMTTR, *horizon, *chaosSeed); err != nil {
			return err
		}
		fmt.Printf("generated MTBF fault schedule: %d events over %v (mtbf %v, mttr %v, seed %d)\n",
			len(fleet.Faults.Events), *horizon, *chaosMTBF, *chaosMTTR, *chaosSeed)
	}
	if *clusterAdmit != "" {
		if fleet.Admission, err = control.PolicyByName(*clusterAdmit, popts); err != nil {
			return err
		}
	}
	if *fleetScale > 0 {
		if fleet.Autoscaler, err = cluster.NewRateFleetScaler(*fleetScale); err != nil {
			return err
		}
	}
	fleet.Arena = streams.arena
	cl, err := cluster.New(fleet, board.Model)
	if err != nil {
		return err
	}
	where := fmt.Sprintf("%d×%s under %s (router %s, placement %s)",
		*nodes, node.Device.Name, node.Variant, fleet.Router.Name(), fleet.Placement.Name())
	if fleet.Interconnect.Enabled() {
		where += fmt.Sprintf(", interconnect %s", interconnect.text)
	}
	if !fleet.Faults.Empty() {
		where += fmt.Sprintf(", %d faults scheduled", len(fleet.Faults.Events))
	}
	return serveRounds(fleet.Nodes[0].Admission.Name(), where, func(src workload.Source) error {
		rep, err := cl.Serve(src)
		if err != nil {
			return err
		}
		printClusterReport(rep)
		return nil
	})
}

// roundStreams builds the arrival stream of each `serve` round from the
// serve flags. Every sampled stream (poisson, bursty, steady, mix) leases
// its requests from arena, so a warm round reuses the requests the
// previous round recycled instead of growing a new arena to its
// in-flight peak.
type roundStreams struct {
	arrival string
	board   *workload.Board
	// views are a merged board's per-tenant boards (A+B), else nil.
	views                    []*workload.Board
	rate                     float64
	period, on, off, horizon time.Duration
	n                        int
	seed                     int64
	trace                    *workload.ArrivalTrace
	arena                    *coserve.RequestArena
}

// source builds round's stream; each round draws from its own seed.
// serve has already checked the arrival name.
func (rs roundStreams) source(round int) (workload.Source, error) {
	rseed := rs.seed + int64(round)*1000
	board := rs.board
	switch rs.arrival {
	case "replay":
		return rs.trace.Replay(board.Model)
	case "poisson":
		return workload.Poisson{Name: "poisson", Board: board, Rate: rs.rate, N: rs.n, Seed: rseed, Arena: rs.arena}.NewSource()
	case "fixed":
		task := workload.Task{Name: "fixed", Board: board, N: rs.n, ArrivalPeriod: rs.period, Seed: rseed}
		return task.Stream()
	case "bursty":
		return workload.Bursty{
			Name: "bursty", Board: board,
			Period: rs.period, On: rs.on, Off: rs.off, N: rs.n, Seed: rseed, Arena: rs.arena,
		}.NewSource()
	case "steady":
		// Infinite steady-state arrivals, terminated by the horizon.
		src, err := workload.Steady{
			Name: "steady", Board: board, Rate: rs.rate, Seed: rseed, Arena: rs.arena,
		}.NewSource()
		if err != nil {
			return nil, err
		}
		return workload.Horizon(src, rs.horizon), nil
	}
	// mix: two equal tenants, over the merged views for A+B, or two
	// streams on the same board otherwise.
	b1, b2 := board, board
	name1, name2 := "tenant-1", "tenant-2"
	if len(rs.views) == 2 {
		b1, b2 = rs.views[0], rs.views[1]
		name1, name2 = "board-a", "board-b"
	}
	t1, err := workload.Poisson{Name: name1, Board: b1, Rate: rs.rate / 2, N: rs.n / 2, Seed: rseed, Arena: rs.arena}.NewSource()
	if err != nil {
		return nil, err
	}
	t2, err := workload.Poisson{Name: name2, Board: b2, Rate: rs.rate / 2, N: rs.n - rs.n/2, Seed: rseed + 1, Arena: rs.arena}.NewSource()
	if err != nil {
		return nil, err
	}
	return workload.Mix{Name: "mix", Tenants: []workload.Source{t1, t2}}.NewSource()
}

// printClusterReport renders a fleet report: the cluster-wide summary
// followed by one row per node.
func printClusterReport(r *coserve.ClusterReport) {
	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintf(w, "cluster\t%d nodes, router %s, placement %s\n", r.Nodes, r.Router, r.Placement)
	fmt.Fprintf(w, "stream\t%s (%d requests)\n", r.Stream, r.N)
	if r.Rejected > 0 {
		fmt.Fprintf(w, "admission\t%d offered, %d rejected (%.1f%%)\n", r.Offered, r.Rejected, 100*r.RejectionRate)
	}
	fmt.Fprintf(w, "throughput\t%.2f img/s (fleet)\n", r.Throughput)
	fmt.Fprintf(w, "makespan\t%.1f s (virtual)\n", r.Makespan.Seconds())
	fmt.Fprintf(w, "expert switches\t%d (%d from SSD, %d from host)\n", r.Switches, r.SSDLoads, r.HostHits)
	fmt.Fprintf(w, "latency p50/p95/p99\t%.2fs / %.2fs / %.2fs\n", r.Latency.P50, r.Latency.P95, r.Latency.P99)
	if r.SLO > 0 {
		fmt.Fprintf(w, "slo attainment\t%.1f%% within %v\n", 100*r.SLOAttainment, r.SLO)
	}
	fmt.Fprintf(w, "imbalance\t%.2f (max/mean routed)\n", r.Imbalance)
	if r.Faults > 0 {
		fmt.Fprintf(w, "faults\t%d applied (%d crashes, %d drains, %d recoveries)\n",
			r.Faults, r.Crashes, r.Drains, r.Recoveries)
		fmt.Fprintf(w, "leases\t%d voided by crashes, %d redelivered, %d rejected on redelivery, peak %d parked\n",
			r.LostLeases, r.Redelivered, r.RedeliveredRejected, r.PendingPeak)
		if r.FailoverMax > 0 {
			fmt.Fprintf(w, "failover\t%.3fs mean / %.3fs max (lease void to redelivered completion)\n",
				r.FailoverMean.Seconds(), r.FailoverMax.Seconds())
		}
		if r.Slows+r.Jitters+r.Stalls > 0 {
			fmt.Fprintf(w, "gray faults\t%d slow, %d jitter, %d stall (nodes stayed Up throughout)\n",
				r.Slows, r.Jitters, r.Stalls)
		}
	}
	if r.Bounced > 0 || r.DupAcks > 0 {
		fmt.Fprintf(w, "interconnect\t%d offers bounced off non-Up nodes, %d completion acks outran by redelivery\n",
			r.Bounced, r.DupAcks)
	}
	if r.BreakerTrips > 0 || r.BreakerReinstates > 0 || r.ProbesSent > 0 || r.BreakerBypasses > 0 {
		fmt.Fprintf(w, "breaker\t%d trips, %d reinstates, %d probes, %d bypasses\n",
			r.BreakerTrips, r.BreakerReinstates, r.ProbesSent, r.BreakerBypasses)
	}
	if r.HedgesFired > 0 || r.HedgeRetries > 0 || r.HedgeRejected > 0 {
		fmt.Fprintf(w, "hedges\t%d fired, %d wins, %d wasted, %d voided, %d promoted, %d rejected, %d retries\n",
			r.HedgesFired, r.HedgeWins, r.HedgeWasted, r.HedgesVoided, r.HedgePromoted, r.HedgeRejected, r.HedgeRetries)
	}
	if r.ScaleUps > 0 || r.ScaleDowns > 0 {
		fmt.Fprintf(w, "fleet scaling\t%d scale-downs, %d scale-ups\n", r.ScaleDowns, r.ScaleUps)
	}
	for _, d := range r.TimeToDrain {
		fmt.Fprintf(w, "drained\t%s in %.3fs\n", d.Node, d.Took.Seconds())
	}
	if len(r.FinalStates) > 0 {
		states := make([]string, len(r.FinalStates))
		for i, st := range r.FinalStates {
			states[i] = st.String()
		}
		fmt.Fprintf(w, "final states\t%s\n", strings.Join(states, ", "))
	}
	w.Flush()
	fmt.Println("per node:")
	wn := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(wn, "  node\trouted\tadmitted\trejected\tcompleted\tdropped\tswitches\tp95\tactive")
	for i, nr := range r.PerNode {
		fmt.Fprintf(wn, "  node%d\t%d\t%d\t%d\t%d\t%d\t%d\t%.2fs\t%dG+%dC\n",
			i, r.Routed[i], nr.N, nr.Rejected, nr.Completions, nr.Dropped, nr.Switches,
			nr.Latency.P95, nr.ActiveGPU, nr.ActiveCPU)
	}
	wn.Flush()
}

func printReport(r *core.Report) {
	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintf(w, "system\t%s\n", r.System)
	fmt.Fprintf(w, "device\t%s\n", r.Device)
	fmt.Fprintf(w, "task\t%s (%d requests)\n", r.Task, r.N)
	if r.Rejected > 0 {
		fmt.Fprintf(w, "admission\t%d offered, %d rejected (%.1f%%), peak queue %d\n",
			r.Offered, r.Rejected, 100*r.RejectionRate, r.PeakQueued)
	}
	fmt.Fprintf(w, "throughput\t%.2f img/s\n", r.Throughput)
	fmt.Fprintf(w, "makespan\t%.1f s (virtual)\n", r.Makespan.Seconds())
	fmt.Fprintf(w, "expert switches\t%d (%d from SSD, %d from host)\n", r.Switches, r.SSDLoads, r.HostHits)
	fmt.Fprintf(w, "evictions\t%d\n", r.Evictions)
	fmt.Fprintf(w, "latency p50/p95/p99\t%.2fs / %.2fs / %.2fs\n", r.Latency.P50, r.Latency.P95, r.Latency.P99)
	if r.SLO > 0 {
		fmt.Fprintf(w, "slo attainment\t%.1f%% within %v\n", 100*r.SLOAttainment, r.SLO)
	}
	fmt.Fprintf(w, "sched cost\t%v per decision (%d decisions)\n", r.SchedPerOp, r.SchedOps)
	fmt.Fprintf(w, "active executors\t%d GPU, %d CPU\n", r.ActiveGPU, r.ActiveCPU)
	w.Flush()
	if len(r.PerTenant) > 0 {
		fmt.Println("per tenant:")
		wt := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
		fmt.Fprintln(wt, "  name\tadmitted\trejected\tcompleted\tp50\tp95\tslo attainment")
		for _, ts := range r.PerTenant {
			attain := "n/a"
			if r.SLO > 0 {
				attain = fmt.Sprintf("%.1f%%", 100*ts.SLOAttainment)
			}
			fmt.Fprintf(wt, "  %s\t%d\t%d\t%d\t%.2fs\t%.2fs\t%s\n",
				ts.Name, ts.Admitted, ts.Rejected, ts.Completions, ts.Latency.P50, ts.Latency.P95, attain)
		}
		wt.Flush()
	}
	if len(r.Windows) > 0 {
		fmt.Println("windows:")
		ww := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
		fmt.Fprintln(ww, "  start\tarrivals\tcompletions\trejections\tmean latency")
		for _, win := range r.Windows {
			fmt.Fprintf(ww, "  %v\t%d\t%d\t%d\t%.3fs\n",
				win.Start, win.Arrivals, win.Completions, win.Rejections, win.MeanLatency())
		}
		ww.Flush()
	}
	fmt.Println("per executor:")
	we := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(we, "  name\tprocessed\tbatches\tbusy")
	for _, ex := range r.PerExecutor {
		fmt.Fprintf(we, "  %s\t%d\t%d\t%.1fs\n", ex.Name, ex.Processed, ex.Batches, ex.Busy.Seconds())
	}
	we.Flush()
	fmt.Println("per pool:")
	wp := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(wp, "  name\tresident\tswitches\tssd\thost\tevictions\tload time")
	for _, pl := range r.PerPool {
		fmt.Fprintf(wp, "  %s\t%d\t%d\t%d\t%d\t%d\t%.1fs\n",
			pl.Name, pl.Loaded, pl.Switches, pl.SSDLoads, pl.HostHits, pl.Evictions, pl.LoadTime.Seconds())
	}
	wp.Flush()
}

func cmdProfile(args []string) error {
	fs := flag.NewFlagSet("profile", flag.ContinueOnError)
	devName := fs.String("device", "numa", "device profile: numa or uma")
	out := fs.String("o", "", "write the performance matrix as JSON to this file")
	if err := parse(fs, args); err != nil {
		return err
	}
	dev, err := hw.ByName(*devName)
	if err != nil {
		return err
	}
	perf, err := coserve.Profile(dev, coserve.EvalArchitectures())
	if err != nil {
		return err
	}
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := perf.WriteJSON(f); err != nil {
			return err
		}
		fmt.Printf("performance matrix written to %s\n", *out)
	}
	fmt.Printf("performance matrix for %s (offline phase, §4.5):\n", dev.Name)
	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "architecture\tproc\tK\tB\tmax batch\tact/image\tload(ssd)\tload(host)")
	for _, arch := range coserve.EvalArchitectures() {
		for _, kind := range []hw.ProcKind{hw.GPU, hw.CPU} {
			p, ok := perf.Lookup(arch.Name, kind)
			if !ok {
				continue
			}
			fmt.Fprintf(w, "%s\t%s\t%v\t%v\t%d\t%d MB\t%v\t%v\n",
				arch.Name, kind,
				p.K.Round(10*time.Microsecond), p.B.Round(10*time.Microsecond),
				p.MaxBatch, p.ActPerImage>>20,
				p.LoadSSD.Round(time.Millisecond), p.LoadHost.Round(time.Millisecond))
		}
	}
	return w.Flush()
}
