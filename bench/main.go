// Command bench is the repository's serving benchmark. It drives the
// serving API on four named workloads and reports, per workload, the
// modelled system's outcome in simulated time (throughput, latency
// percentiles, SLO attainment, capacity) beside the simulator's own host
// cost per request (time, allocations, memory, set-up). A traced run
// splits host and simulated cost by layer by wrapping the interfaces the
// serving config accepts; no code outside this directory is changed.
//
// Run it from the repository root:
//
//	bash bench/run.sh --workload fleet-steady --seed 1 --seconds 25 --trace 0
//	bash bench/run.sh                      # every workload, round-robin
//	bash bench/run.sh --trace 1            # every workload, per layer
//
// The last line of standard output is one JSON object:
// {"correct", "attempted", "failed", "metrics"}. Any failed correctness
// check makes it report "correct": false and exit 1. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"time"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr, childRunner)) }

// run is the whole command; it returns the exit code.
func run(args []string, stdout, stderr io.Writer, serve runner) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "all", "workload to run, or all (round-robin over every workload)")
	seed := fs.Int64("seed", 1, "seed of the request streams")
	seconds := fs.Float64("seconds", 25, "time budget of a single-workload run; serves repeat until it is spent")
	trace := fs.Int("trace", 0, "0 reports the end-to-end metrics, 1 the per-layer metrics of a traced run")
	scale := fs.Float64("scale", 1, "stream-length multiplier (the smoke test runs at 0.01)")
	repeats := fs.Int("repeats", 5, "least number of untraced serves of a one-workload run; rounds of -workload all")
	child := fs.Bool("child", false, "serve once and print the sample as JSON (internal)")
	traced := fs.Bool("traced", false, "with -child, clock the layer probes")
	shards := fs.Int("shards", 0, "with -child, sharded-kernel workers (0 = number of CPUs)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintf(stderr, "bench: -trace must be 0 or 1, got %d\n", *trace)
		return 2
	}
	if *scale <= 0 || *repeats < 1 || *seconds <= 0 {
		fmt.Fprintln(stderr, "bench: -scale and -seconds must be positive and -repeats at least 1")
		return 2
	}
	var one *spec
	if *name != "all" {
		var err error
		if one, err = specByName(*name); err != nil {
			fmt.Fprintf(stderr, "bench: %v\n", err)
			return 2
		}
	}
	if *child {
		s, err := childBody(job{workload: *name, seed: *seed, scale: *scale, traced: *traced, shards: *shards})
		if err != nil {
			fmt.Fprintf(stderr, "bench: %v\n", err)
			return 1
		}
		if err := json.NewEncoder(stdout).Encode(s); err != nil {
			fmt.Fprintf(stderr, "bench: %v\n", err)
			return 1
		}
		return 0
	}

	var results []*result
	var err error
	if one != nil {
		var r *result
		budget := time.Duration(*seconds * float64(time.Second))
		r, err = measure(one, *seed, *scale, budget, *repeats, *trace == 1, serve)
		results = []*result{r}
	} else {
		results, err = measureAll(*seed, *scale, *repeats, *trace == 1, serve)
	}
	if err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 1
	}
	return report(stdout, results, one == nil)
}

type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type jsonResult struct {
	Correct   bool                  `json:"correct"`
	Attempted int64                 `json:"attempted"`
	Failed    int64                 `json:"failed"`
	Metrics   map[string]jsonMetric `json:"metrics"`
}

// report prints every result as a table and ends with the JSON line.
// With several workloads the metric keys are prefixed by the workload.
// It returns 1 if any check failed.
func report(out io.Writer, results []*result, prefix bool) int {
	line := jsonResult{Correct: true, Metrics: map[string]jsonMetric{}}
	for _, r := range results {
		for _, m := range r.metrics {
			if math.IsNaN(m.value) || math.IsInf(m.value, 0) {
				r.violate("%s is %v", m.name, m.value)
				m.value = 0
			}
			key := m.name
			if prefix {
				key = r.workload + "." + m.name
			}
			line.Metrics[key] = jsonMetric{Value: m.value, Unit: m.unit}
		}
		line.Attempted += r.attempted
		line.Failed += r.failed
		if len(r.violations) > 0 {
			line.Correct = false
		}
		fmt.Fprintf(out, "== %s\n", r.workload)
		for _, n := range r.notes {
			fmt.Fprintf(out, "   # %s\n", n)
		}
		for _, m := range r.metrics {
			fmt.Fprintf(out, "   %-30s %18.9g %s\n", m.name, m.value, m.unit)
		}
		fmt.Fprintf(out, "   checks: %d failed; %d of %d offered requests did not complete\n",
			len(r.violations), r.failed, r.attempted)
		for _, v := range r.violations {
			fmt.Fprintf(out, "   CHECK FAILED %s\n", v)
		}
	}
	b, err := json.Marshal(line)
	if err != nil {
		fmt.Fprintf(out, "bench: %v\n", err)
		return 1
	}
	fmt.Fprintln(out, string(b))
	if !line.Correct {
		return 1
	}
	return 0
}
