package main

import (
	"flag"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"

	coserve "repro"
	"repro/internal/core"
	"repro/internal/hw"
	"repro/internal/workload"
)

// update regenerates the CLI output goldens instead of comparing:
//
//	go test ./cmd/coserve -run TestServeClusterOutput -update
var update = flag.Bool("update", false, "rewrite testdata/*.txt from the current build")

// silence routes stdout to /dev/null for the duration of a test so CLI
// output does not pollute the test log.
func silence(t *testing.T) {
	t.Helper()
	old := os.Stdout
	devnull, err := os.OpenFile(os.DevNull, os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	os.Stdout = devnull
	t.Cleanup(func() {
		os.Stdout = old
		devnull.Close()
	})
}

func TestRunRejectsBadInput(t *testing.T) {
	cases := [][]string{
		nil,
		{"frobnicate"},
		{"experiment"},
		{"experiment", "fig99"},
		{"run", "-device", "quantum"},
		{"run", "-system", "magic"},
		{"profile", "-device", "quantum"},
		{"serve", "-device", "quantum"},
		{"serve", "-system", "magic"},
		{"serve", "-board", "Z"},
		{"serve", "-arrival", "telepathic"},
		{"serve", "-repeat", "0"},
		{"serve", "-admit", "nope"},
		{"serve", "-slo", "-1s"},
		{"serve", "-nodes", "2", "-slo", "-1s"},
		{"serve", "-admit", "bounded", "-queue-bound", "0"},
		{"serve", "-admit", "token", "-admit-rate", "0"},
		{"serve", "-admit", "tenant-quota", "-tenant-rate", "0"},
		{"serve", "-nodes", "0"},
		{"serve", "-nodes", "2", "-router", "telepathic"},
		{"serve", "-nodes", "2", "-placement", "everywhere"},
		// A hop so long that its landing instant would overflow the clock.
		{"serve", "-nodes", "2", "-n", "20", "-interconnect", "2562047h/0s/0s"},
		// Gray-fault parameters that are not finite, or that would
		// overflow a degraded batch's service time or a stall's end.
		{"serve", "-nodes", "2", "-n", "50", "-chaos", "slow@1s:1xInf"},
		{"serve", "-nodes", "2", "-n", "50", "-chaos", "slow@1s:1xNaN"},
		{"serve", "-nodes", "2", "-n", "50", "-chaos", "slow@1s:1x1e12"},
		{"serve", "-nodes", "2", "-n", "50", "-chaos", "jitter@1s:1x1e30"},
		{"serve", "-nodes", "2", "-n", "50", "-chaos", "slow@1s:1x1000000,jitter@1s:1x1000000"},
		{"serve", "-nodes", "2", "-n", "50", "-chaos", "stall@1s:1x2562047h"},
		{"serve", "-arrival", "steady", "-horizon", "-1s"},
		{"serve", "-arrival", "replay"}, // replay without -trace
		{"serve", "-arrival", "replay", "-trace", "/does/not/exist"},
		// Windows below the 1ms floor: the windowed series and the
		// control and health loops would run per nanosecond.
		{"serve", "-window", "100us", "-n", "20"},
		{"serve", "-autoscale", "-window", "100us", "-n", "20"},
		{"serve", "-nodes", "2", "-health-window", "100us", "-n", "20"},
		{"serve", "-nodes", "2", "-window", "100us", "-fleet-autoscale", "1", "-n", "20"},
	}
	// Inputs whose error must come from a given check. serve leaves
	// -breaker without -health-window, -fleet-autoscale without -window
	// and shed without -slo to the library; -chaos node numbers and
	// factors are whole numbers, never a number with text after it.
	checked := []struct {
		args []string
		want string
	}{
		{[]string{"run", "-task", "Z9"}, "unknown task"},
		{[]string{"serve", "-admit", "shed"}, "control: shed objective"},
		{[]string{"serve", "-nodes", "2", "-n", "20", "-cluster-admit", "shed"}, "control: shed objective"},
		{[]string{"serve", "-nodes", "2", "-n", "20", "-breaker"}, "cluster: Health.Breaker needs Health.Window"},
		{[]string{"serve", "-nodes", "2", "-n", "20", "-fleet-autoscale", "1"}, "cluster: a fleet autoscaler needs Window"},
		{[]string{"serve", "-n", "20", "-breaker"}, "need a cluster"},
		{[]string{"serve", "-nodes", "2", "-n", "50", "-chaos", "crash@1s:1junk,recover@2s:1"}, `node "1junk" is not an integer`},
		{[]string{"serve", "-nodes", "2", "-n", "50", "-chaos", "slow@1s:1x4junk"}, `factor "4junk" is not a number`},
	}
	silence(t)
	for _, args := range cases {
		if err := run(args); err == nil {
			t.Errorf("args %v accepted", args)
		}
	}
	for _, tc := range checked {
		if err := run(tc.args); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("args %v: got error %v, want one containing %q", tc.args, err, tc.want)
		}
	}
}

func TestListAndHelp(t *testing.T) {
	silence(t)
	if err := run([]string{"list"}); err != nil {
		t.Error(err)
	}
	if err := run([]string{"help"}); err != nil {
		t.Error(err)
	}
}

// TestErrorsPrintedOnce runs main in a child process and reads its
// stderr and exit status: a bad flag value is reported once, by the
// flag package with the flag list, -h prints the flag list alone and
// exits 0, and any other error is one "coserve: " line.
func TestErrorsPrintedOnce(t *testing.T) {
	if args, ok := os.LookupEnv("COSERVE_MAIN_ARGS"); ok {
		os.Args = append([]string{"coserve"}, strings.Fields(args)...)
		main()
		os.Exit(0)
	}
	for _, tc := range []struct {
		args string
		code int
		// want is stderr's whole text, or, when it ends in "…", a prefix.
		want string
		// once appears in stderr exactly once.
		once string
	}{
		{"serve -system magic", 1, `invalid value "magic" for flag -system: unknown system "magic"…`, `invalid value "magic"`},
		{"serve -n abc", 1, `invalid value "abc" for flag -n: parse error…`, `invalid value "abc"`},
		{"serve -h", 0, "Usage of serve:…", "-system"},
		{"run -h", 0, "Usage of run:…", "-task"},
		{"serve -repeat 0", 1, "coserve: repeat must be at least 1\n", "coserve:"},
		{"frobnicate", 1, "usage: coserve <command> [flags]…", `coserve: unknown subcommand "frobnicate"`},
	} {
		cmd := exec.Command(os.Args[0], "-test.run=^TestErrorsPrintedOnce$")
		cmd.Env = append(os.Environ(), "COSERVE_MAIN_ARGS="+tc.args)
		var stderr strings.Builder
		cmd.Stderr = &stderr
		err := cmd.Run()
		code := 0
		if exit, ok := err.(*exec.ExitError); ok {
			code = exit.ExitCode()
		} else if err != nil {
			t.Fatalf("%s: %v", tc.args, err)
		}
		got := stderr.String()
		if code != tc.code {
			t.Errorf("coserve %s: exit status %d, want %d", tc.args, code, tc.code)
		}
		if prefix, ok := strings.CutSuffix(tc.want, "…"); ok && !strings.HasPrefix(got, prefix) || !ok && got != tc.want {
			t.Errorf("coserve %s: stderr\n%s\nwant %q", tc.args, got, tc.want)
		}
		if n := strings.Count(got, tc.once); n != 1 {
			t.Errorf("coserve %s: stderr holds %q %d times, want once:\n%s", tc.args, tc.once, n, got)
		}
		if tc.code == 0 && strings.Contains(got, "coserve:") {
			t.Errorf("coserve %s: stderr reports an error:\n%s", tc.args, got)
		}
	}
}

func TestProfileSubcommand(t *testing.T) {
	silence(t)
	if err := run([]string{"profile", "-device", "uma"}); err != nil {
		t.Error(err)
	}
}

func TestRunSubcommandSmall(t *testing.T) {
	silence(t)
	if err := run([]string{"run", "-device", "numa", "-system", "coserve", "-task", "B1", "-n", "120"}); err != nil {
		t.Error(err)
	}
}

func TestServeSubcommandSmall(t *testing.T) {
	silence(t)
	if err := run([]string{"serve", "-arrival", "poisson", "-rate", "30", "-n", "150", "-slo", "1s"}); err != nil {
		t.Error(err)
	}
	if err := run([]string{"serve", "-arrival", "fixed", "-n", "120", "-repeat", "2"}); err != nil {
		t.Error(err)
	}
	if err := run([]string{"serve", "-arrival", "bursty", "-n", "100"}); err != nil {
		t.Error(err)
	}
	if err := run([]string{"serve", "-board", "A+B", "-arrival", "mix", "-rate", "6", "-n", "100"}); err != nil {
		t.Error(err)
	}
}

// TestServeControlPlaneFlags drives the admission and autoscaling
// knobs end-to-end from the CLI.
func TestServeControlPlaneFlags(t *testing.T) {
	silence(t)
	cases := [][]string{
		{"serve", "-arrival", "steady", "-rate", "60", "-horizon", "2s", "-admit", "bounded", "-queue-bound", "16"},
		{"serve", "-arrival", "steady", "-rate", "60", "-horizon", "2s", "-admit", "token", "-admit-rate", "10", "-admit-burst", "5"},
		{"serve", "-arrival", "steady", "-rate", "60", "-horizon", "2s", "-admit", "shed", "-slo", "500ms"},
		{"serve", "-arrival", "poisson", "-rate", "10", "-n", "80", "-autoscale", "-window", "200ms"},
		{"serve", "-arrival", "steady", "-rate", "30", "-horizon", "2s", "-admit", "accept"},
	}
	for _, args := range cases {
		if err := run(args); err != nil {
			t.Errorf("args %v: %v", args, err)
		}
	}
}

// TestServeClusterFlags drives the multi-node serving path from the
// CLI: every router/placement pair on a small stream, plus warm
// restarts and admission on a fleet.
func TestServeClusterFlags(t *testing.T) {
	silence(t)
	for _, router := range []string{"least-loaded", "affinity", "predict"} {
		for _, placement := range []string{"mirror", "partition", "usage"} {
			args := []string{"serve", "-nodes", "2", "-router", router, "-placement", placement,
				"-rate", "30", "-n", "100", "-slo", "1s"}
			if err := run(args); err != nil {
				t.Errorf("args %v: %v", args, err)
			}
		}
	}
	if err := run([]string{"serve", "-nodes", "3", "-router", "affinity", "-placement", "usage",
		"-rate", "30", "-n", "100", "-repeat", "2", "-admit", "bounded", "-queue-bound", "64"}); err != nil {
		t.Errorf("cluster warm restart with admission: %v", err)
	}
}

// TestServeRoundsShareArena: every sampled stream of `serve -repeat`
// leases from one request arena, so round 2 reuses the requests round 1
// recycled instead of allocating its in-flight peak again.
func TestServeRoundsShareArena(t *testing.T) {
	a, err := workload.BoardA().Build()
	if err != nil {
		t.Fatal(err)
	}
	b, err := workload.BoardB().Build()
	if err != nil {
		t.Fatal(err)
	}
	merged, views, err := workload.MergeBoards("board-a+b", []float64{1, 1}, a, b)
	if err != nil {
		t.Fatal(err)
	}
	dev := hw.NUMADevice()
	perf, err := coserve.Profile(dev, coserve.EvalArchitectures())
	if err != nil {
		t.Fatal(err)
	}
	cfg := core.Config{Device: dev, Variant: core.CoServe, Perf: perf}
	for _, arrival := range []string{"poisson", "bursty", "steady", "mix"} {
		rs := roundStreams{
			arrival: arrival, board: merged, views: views,
			rate: 8, period: 100 * time.Millisecond, on: 100 * time.Millisecond, off: 400 * time.Millisecond,
			horizon: 20 * time.Second, n: 150, seed: 1, arena: coserve.NewRequestArena(),
		}
		sys, err := core.NewSystem(cfg, merged.Model)
		if err != nil {
			t.Fatal(err)
		}
		var free int
		var reuses int64
		for round := 0; round < 2; round++ {
			src, err := rs.source(round)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := sys.Serve(src); err != nil {
				t.Fatal(err)
			}
			if round == 0 {
				free, reuses = rs.arena.Free(), rs.arena.Reuses()
			}
		}
		// The arena allocates only when its free list is empty, so round
		// 2 leases every request round 1 left there before a new one.
		if got := rs.arena.Reuses() - reuses; free == 0 || got < int64(free) {
			t.Errorf("%s: round 1 left %d requests in the arena and round 2 reused %d", arrival, free, got)
		}
	}
}

// TestServeRecordReplayFlags captures a trace through -record and
// serves it back with -arrival replay.
func TestServeRecordReplayFlags(t *testing.T) {
	silence(t)
	trace := t.TempDir() + "/trace.bin"
	if err := run([]string{"serve", "-record", trace, "-rate", "30", "-n", "100"}); err != nil {
		t.Fatalf("record: %v", err)
	}
	if _, err := os.Stat(trace); err != nil {
		t.Fatalf("trace file not written: %v", err)
	}
	if err := run([]string{"serve", "-arrival", "replay", "-trace", trace}); err != nil {
		t.Errorf("replay: %v", err)
	}
	if err := run([]string{"serve", "-arrival", "replay", "-trace", trace, "-nodes", "2"}); err != nil {
		t.Errorf("replay onto a cluster: %v", err)
	}
}

// TestProfilingFlags: serve and experiment share -cpuprofile and
// -memprofile, and both write non-empty pprof files; an unwritable path
// is an error before anything runs.
func TestProfilingFlags(t *testing.T) {
	silence(t)
	dir := t.TempDir()
	for _, args := range [][]string{
		{"serve", "-nodes", "2", "-router", "affinity", "-n", "100"},
		{"experiment", "tab1"},
	} {
		cpu, mem := dir+"/"+args[0]+".cpu", dir+"/"+args[0]+".mem"
		flags := append([]string{args[0], "-cpuprofile", cpu, "-memprofile", mem}, args[1:]...)
		if err := run(flags); err != nil {
			t.Fatalf("%v: %v", flags, err)
		}
		for _, f := range []string{cpu, mem} {
			if st, err := os.Stat(f); err != nil || st.Size() == 0 {
				t.Errorf("%s: profile %s missing or empty (%v)", args[0], f, err)
			}
		}
	}
	if err := run([]string{"serve", "-memprofile", dir + "/missing/mem.out", "-n", "10"}); err == nil {
		t.Error("serve accepted an unwritable -memprofile path")
	}
}

func TestExperimentSubcommand(t *testing.T) {
	silence(t)
	if err := run([]string{"experiment", "tab1"}); err != nil {
		t.Error(err)
	}
	if err := run([]string{"experiment", "ext-arrival"}); err != nil {
		t.Error(err)
	}
}

func TestProfilePersistAndReuse(t *testing.T) {
	silence(t)
	dir := t.TempDir()
	perfPath := dir + "/numa.perf.json"
	if err := run([]string{"profile", "-device", "numa", "-o", perfPath}); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(perfPath); err != nil {
		t.Fatalf("perf file not written: %v", err)
	}
	if err := run([]string{"run", "-device", "numa", "-task", "A1", "-n", "100", "-perf", perfPath}); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"run", "-perf", dir + "/missing.json"}); err == nil {
		t.Error("missing perf file accepted")
	}
}

// capture runs the CLI with stdout redirected to a temporary file and
// returns what it printed.
func capture(t *testing.T, args []string) string {
	t.Helper()
	f, err := os.CreateTemp(t.TempDir(), "stdout")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	old := os.Stdout
	os.Stdout = f
	err = run(args)
	os.Stdout = old
	if err != nil {
		t.Fatalf("%v: %v", args, err)
	}
	out, err := os.ReadFile(f.Name())
	if err != nil {
		t.Fatal(err)
	}
	return string(out)
}

// hostDependent matches the only machine-dependent text serve prints:
// the wall-time footer and the single-node report's sampled wall-clock
// scheduling cost per decision.
var hostDependent = regexp.MustCompile(`\(simulated in .* of wall time\)|[0-9.]+[nµm]?s per decision`)

// TestServeClusterOutput pins `coserve serve`'s full reports byte for
// byte against testdata goldens, with the host-dependent text masked:
// the cluster report fault-free, under scripted crash/recover/drain,
// and under MTBF churn over an interconnect; and the single-node report
// of a two-tenant mix with per-tenant and windowed rows (exact, and
// sketch under a tenant quota that rejects) and of an overload run
// whose deadline shedding rejects.
func TestServeClusterOutput(t *testing.T) {
	cases := []struct {
		name string
		args []string
	}{
		{"serve-nodes4", []string{"serve", "-nodes", "4"}},
		{"serve-nodes4-chaos", []string{"serve", "-nodes", "4", "-chaos", "crash@2s:1,recover@3.5s:1,drain@6s:2"}},
		{"serve-nodes4-interconnect-mtbf", []string{"serve", "-nodes", "4", "-interconnect", "200us/100us/600us@2", "-chaos-mtbf", "3s"}},
		{"serve-mix-window", []string{"serve", "-board", "A+B", "-arrival", "mix", "-rate", "4", "-n", "200", "-slo", "2s", "-window", "10s"}},
		{"serve-mix-quota-sketch", []string{"serve", "-board", "A+B", "-arrival", "mix", "-rate", "4", "-n", "200", "-slo", "2s", "-window", "10s",
			"-percentiles", "sketch", "-admit", "tenant-quota", "-tenant-rate", "1.5"}},
		{"serve-steady-shed", []string{"serve", "-arrival", "steady", "-rate", "40", "-horizon", "4s", "-slo", "500ms", "-admit", "shed"}},
	}
	for _, tc := range cases {
		got := hostDependent.ReplaceAllString(capture(t, tc.args), "<host>")
		path := filepath.Join("testdata", tc.name+".txt")
		if *update {
			if err := os.MkdirAll("testdata", 0o755); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
				t.Fatal(err)
			}
			continue
		}
		want, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("%s: %v (run with -update to create it)", tc.name, err)
		}
		if got != string(want) {
			t.Errorf("%v: output differs from %s\n--- got ---\n%s\n--- want ---\n%s", tc.args, path, got, want)
		}
	}
}
