// Command benchguard gates benchmark regressions: it reads `go test
// -bench` output on stdin, echoes it through, and compares every
// benchmark named in the baseline JSON against its recorded
// allocs/op and bytes/op. Allocation counts in this codebase are
// deterministic, so the allocation gate is tight; wall time varies
// with the machine and is reported informationally only.
//
// Usage:
//
//	go test -bench BenchmarkFleetServe -benchtime 1x -run '^$' . |
//	    go run ./cmd/benchguard -baseline BENCH_fleet.json
//
// -baseline repeats: one bench run can be gated against several
// baseline files at once (each benchmark judged under its own file's
// regression factors), which is how `make bench` guards the fleet and
// chaos baselines in a single pass.
//
// The guard fails (exit 1) when a baselined benchmark regresses past
// its factor, is missing from the input, or when the input carries a
// test failure marker — so a broken bench run cannot pass silently.
// With -breakdown it instead reads `bash bench/run.sh --trace 1` output
// and prints each host-time layer's ns/req and share.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"regexp"
	"sort"
	"strconv"
	"strings"
)

// baseline mirrors the BENCH_*.json layout: recorded measurements plus
// the tolerated regression factors.
type baseline struct {
	Description string `json:"description"`
	Guard       struct {
		// AllocsFactor and BytesFactor multiply the recorded values to
		// form the failure thresholds. Zero means "use the default"
		// (1.25 for allocs, 1.5 for bytes).
		AllocsFactor float64 `json:"allocs_factor"`
		BytesFactor  float64 `json:"bytes_factor"`
		// NsFactor is advisory: when set, a benchmark whose ns/op
		// exceeds recorded × NsFactor gets a "benchguard: WARN" line in
		// the output, but the guard still exits 0 — wall time varies
		// too much across machines to gate on.
		NsFactor float64 `json:"ns_factor"`
	} `json:"guard"`
	Results map[string]struct {
		NsPerOp     float64 `json:"ns_per_op"`
		BytesPerOp  float64 `json:"bytes_per_op"`
		AllocsPerOp float64 `json:"allocs_per_op"`
		// NsFactor overrides the file-level advisory threshold for this
		// one benchmark (e.g. a noisier multi-worker row).
		NsFactor float64 `json:"ns_factor"`
	} `json:"results"`
}

// gomaxprocsSuffix strips the "-8" style GOMAXPROCS suffix go test
// appends to benchmark names.
var gomaxprocsSuffix = regexp.MustCompile(`-\d+$`)

// guardedBench is one baselined benchmark with its thresholds resolved:
// the recorded measurement plus the owning file's regression factors.
type guardedBench struct {
	file         string
	nsPerOp      float64
	bytesPerOp   float64
	allocsPerOp  float64
	allocsFactor float64
	bytesFactor  float64
	nsFactor     float64 // 0: no advisory wall-time threshold
}

func main() {
	var baselinePaths []string
	flag.Func("baseline", "baseline JSON file (required; repeatable)", func(p string) error {
		baselinePaths = append(baselinePaths, p)
		return nil
	})
	layered := flag.Bool("breakdown", false, "print the host-time layers of a traced bench/run.sh run instead of gating")
	flag.Parse()
	if *layered {
		if err := breakdown(os.Stdin, os.Stdout); err != nil {
			fmt.Fprintf(os.Stderr, "benchguard: %v\n", err)
			os.Exit(2)
		}
		return
	}
	if len(baselinePaths) == 0 {
		fmt.Fprintln(os.Stderr, "benchguard: -baseline is required")
		os.Exit(2)
	}
	// Fold the baseline files into one guarded set; a benchmark named by
	// two files is a configuration error, not a silent last-wins.
	guarded := map[string]guardedBench{}
	for _, path := range baselinePaths {
		raw, err := os.ReadFile(path)
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchguard: %v\n", err)
			os.Exit(2)
		}
		var base baseline
		if err := json.Unmarshal(raw, &base); err != nil {
			fmt.Fprintf(os.Stderr, "benchguard: %s: %v\n", path, err)
			os.Exit(2)
		}
		allocsFactor, bytesFactor := base.Guard.AllocsFactor, base.Guard.BytesFactor
		if allocsFactor == 0 {
			allocsFactor = 1.25
		}
		if bytesFactor == 0 {
			bytesFactor = 1.5
		}
		for name, rec := range base.Results {
			if prev, dup := guarded[name]; dup {
				fmt.Fprintf(os.Stderr, "benchguard: %s baselined by both %s and %s\n", name, prev.file, path)
				os.Exit(2)
			}
			nsFactor := base.Guard.NsFactor
			if rec.NsFactor != 0 {
				nsFactor = rec.NsFactor
			}
			guarded[name] = guardedBench{
				file:    path,
				nsPerOp: rec.NsPerOp, bytesPerOp: rec.BytesPerOp, allocsPerOp: rec.AllocsPerOp,
				allocsFactor: allocsFactor, bytesFactor: bytesFactor, nsFactor: nsFactor,
			}
		}
	}

	var failures []string
	seen := map[string]bool{}
	sc := bufio.NewScanner(os.Stdin)
	sc.Buffer(make([]byte, 1024*1024), 1024*1024)
	for sc.Scan() {
		line := sc.Text()
		fmt.Println(line)
		if strings.HasPrefix(line, "FAIL") || strings.HasPrefix(line, "--- FAIL") {
			failures = append(failures, fmt.Sprintf("bench run reported failure: %q", line))
			continue
		}
		name, metrics, ok := parseBenchLine(line)
		if !ok {
			continue
		}
		rec, ok := guarded[name]
		if !ok {
			continue
		}
		seen[name] = true
		if limit := rec.allocsPerOp * rec.allocsFactor; metrics["allocs/op"] > limit {
			failures = append(failures, fmt.Sprintf(
				"%s: %.0f allocs/op vs baseline %.0f — %s observed > ×%.2f allowed (limit %.0f)",
				name, metrics["allocs/op"], rec.allocsPerOp,
				ratio(metrics["allocs/op"], rec.allocsPerOp), rec.allocsFactor, limit))
		}
		if limit := rec.bytesPerOp * rec.bytesFactor; metrics["B/op"] > limit {
			failures = append(failures, fmt.Sprintf(
				"%s: %.0f B/op vs baseline %.0f — %s observed > ×%.2f allowed (limit %.0f)",
				name, metrics["B/op"], rec.bytesPerOp,
				ratio(metrics["B/op"], rec.bytesPerOp), rec.bytesFactor, limit))
		}
		// Wall time is never gated — it varies with the machine — but the
		// observed-vs-baseline ratio surfaces speedups and regressions in
		// CI logs (e.g. a serializing change sneaking into the hot
		// path). When the baseline sets an
		// ns_factor, blowing past it upgrades the line to a WARN so a
		// wall-time cliff stands out in the log — still exit 0.
		if rec.nsPerOp > 0 {
			if limit := rec.nsPerOp * rec.nsFactor; rec.nsFactor > 0 && metrics["ns/op"] > limit {
				fmt.Printf("benchguard: WARN: %s ns/op %.0f vs baseline %.0f — %s observed > ×%.2f advisory (not gated)\n",
					name, metrics["ns/op"], rec.nsPerOp, ratio(metrics["ns/op"], rec.nsPerOp), rec.nsFactor)
			} else {
				fmt.Printf("benchguard: %s ns/op %.0f vs baseline %.0f — %s wall time (informational, not gated)\n",
					name, metrics["ns/op"], rec.nsPerOp, ratio(metrics["ns/op"], rec.nsPerOp))
			}
		}
	}
	if err := sc.Err(); err != nil {
		fmt.Fprintf(os.Stderr, "benchguard: reading stdin: %v\n", err)
		os.Exit(2)
	}
	for name, rec := range guarded {
		if !seen[name] {
			failures = append(failures, fmt.Sprintf("baselined benchmark %s (%s) missing from input", name, rec.file))
		}
	}
	// Every regression is reported in one run — the full repair list, not
	// just the first offender.
	if len(failures) > 0 {
		sort.Strings(failures)
		for _, f := range failures {
			fmt.Fprintf(os.Stderr, "benchguard: FAIL: %s\n", f)
		}
		fmt.Fprintf(os.Stderr, "benchguard: %d failure(s) against %s\n", len(failures), strings.Join(baselinePaths, ", "))
		os.Exit(1)
	}
	fmt.Printf("benchguard: OK — %d benchmark(s) within baseline (%s)\n", len(seen), strings.Join(baselinePaths, ", "))
}

// ratio renders observed/baseline as a "×1.53"-style factor for failure
// messages, tolerating a zero baseline.
func ratio(observed, base float64) string {
	if base == 0 {
		return "×∞"
	}
	return fmt.Sprintf("×%.2f", observed/base)
}

// parseBenchLine parses one "BenchmarkName  iters  v unit  v unit ..."
// result line into the benchmark's base name and its metrics by unit.
func parseBenchLine(line string) (string, map[string]float64, bool) {
	fields := strings.Fields(line)
	if len(fields) < 4 || !strings.HasPrefix(fields[0], "Benchmark") {
		return "", nil, false
	}
	if _, err := strconv.Atoi(fields[1]); err != nil {
		return "", nil, false
	}
	name := gomaxprocsSuffix.ReplaceAllString(fields[0], "")
	metrics := map[string]float64{}
	for i := 2; i+1 < len(fields); i += 2 {
		v, err := strconv.ParseFloat(fields[i], 64)
		if err != nil {
			return "", nil, false
		}
		metrics[fields[i+1]] = v
	}
	return name, metrics, true
}

// layers names the host-time layers of a traced bench/run.sh run in
// stack order, each with the metrics whose product is its ns per
// request: sched is timed per decision, so it is ns/op × ops/req.
var layers = [][2]string{
	{"workload.next", "workload.next_ns_per_req"},
	{"cluster.route", "cluster.route_ns_per_req"},
	{"sched", "sched.ns_per_op*sched.ops_per_req"},
	{"pool.victims", "pool.victims_ns_per_req"},
	{"kernel.residual", "kernel.residual_ns_per_req"},
}

// breakdown reads a traced bench/run.sh run's output, finds its JSON
// line, and writes each layer's ns/req and share of their sum.
func breakdown(r io.Reader, w io.Writer) error {
	in, err := io.ReadAll(r)
	if err != nil {
		return err
	}
	var run struct {
		Metrics map[string]struct{ Value float64 }
	}
	for _, line := range strings.Split(string(in), "\n") {
		if strings.HasPrefix(line, "{") {
			if err := json.Unmarshal([]byte(line), &run); err != nil {
				return err
			}
		}
	}
	ns, sum := make([]float64, len(layers)), 0.0
	for i, l := range layers {
		ns[i] = 1
		for _, name := range strings.Split(l[1], "*") {
			m, ok := run.Metrics[name]
			if !ok {
				return fmt.Errorf("no %s in the input (want bench/run.sh --trace 1 output)", name)
			}
			ns[i] *= m.Value
		}
		sum += ns[i]
	}
	if sum <= 0 {
		return fmt.Errorf("every layer reads 0 ns/req")
	}
	fmt.Fprintf(w, "%-16s %10s %7s\n", "layer", "ns/req", "share")
	for i, l := range layers {
		fmt.Fprintf(w, "%-16s %10.1f %6.1f%%\n", l[0], ns[i], 100*ns[i]/sum)
	}
	fmt.Fprintf(w, "%-16s %10.1f %6.1f%%\n", "sum", sum, 100.0)
	return nil
}
