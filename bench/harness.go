package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"slices"
	"strconv"
	"strings"
	"time"
)

// job is one serve run in its own child process.
type job struct {
	workload string
	seed     int64
	scale    float64
	traced   bool
	// shards overrides the sharded kernel's worker count (0 = nproc).
	shards int
}

// runner serves one job and returns its sample.
type runner func(job) (*sample, error)

// childRunner re-executes this binary once per job, so every serve gets
// a fresh heap and its own peak-RSS reading. It waits for the child to
// exit before returning.
func childRunner(j job) (*sample, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(exe, "-child",
		"-workload", j.workload,
		"-seed", strconv.FormatInt(j.seed, 10),
		"-scale", strconv.FormatFloat(j.scale, 'g', -1, 64),
		"-traced="+strconv.FormatBool(j.traced),
		"-shards", strconv.Itoa(j.shards))
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("%s child: %w", j.workload, err)
	}
	s := &sample{}
	if err := json.Unmarshal(bytes.TrimSpace(out), s); err != nil {
		return nil, fmt.Errorf("%s child output: %w", j.workload, err)
	}
	return s, nil
}

// childBody is what a child process runs: the serve in process,
// bracketed by the calibration loop.
func childBody(j job) (*sample, error) {
	before := calibrate()
	s, err := inProcess(j)
	if err != nil {
		return nil, err
	}
	s.CalibNs = (before + calibrate()) / 2
	if s.MaxRSSKB, err = peakRSSKB(); err != nil {
		return nil, err
	}
	return s, nil
}

// peakRSSKB is this process's peak resident set in KiB (VmHWM). The
// rusage the parent gets for a child would not do: Linux counts the
// parent's resident set at the time it started the child into the
// child's maximum, so it would include the parent's capacity search.
func peakRSSKB() (int64, error) {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			if f := strings.Fields(rest); len(f) > 0 {
				return strconv.ParseInt(f[0], 10, 64)
			}
		}
	}
	return 0, fmt.Errorf("no VmHWM line in /proc/self/status")
}

// inProcess serves the job in this process (the smoke test's runner;
// its samples carry no calibration and are reported unscaled).
func inProcess(j job) (*sample, error) {
	w, err := specByName(j.workload)
	if err != nil {
		return nil, err
	}
	p := w.defaults(j.seed, j.scale)
	p.traced = j.traced
	if j.shards > 0 {
		p.shards = j.shards
	}
	return w.serve(p, setupRepeats)
}

// metric is one named, unit-carrying value of the result line.
type metric struct {
	name, unit string
	value      float64
}

// result is one workload's measurement: metrics plus the outcome of
// every correctness check.
type result struct {
	workload   string
	metrics    []metric
	attempted  int64
	failed     int64
	violations []string
	notes      []string
}

func (r *result) add(name, unit string, v float64) {
	r.metrics = append(r.metrics, metric{name: name, unit: unit, value: v})
}

func (r *result) violate(format string, args ...any) {
	r.violations = append(r.violations, r.workload+": "+fmt.Sprintf(format, args...))
}

// check applies the per-serve invariants to every sample and requires
// every sample's simulated outcome to equal the first one's: each sample
// served the same seed, so any difference is nondeterminism or a probe
// perturbing the simulation. what names the set in messages.
func (r *result) check(what string, samples []*sample) {
	for i, s := range samples {
		o := s.Sim
		r.attempted += o.Offered
		r.failed += o.Offered - o.Completions
		if o.Completions+o.Rejected+o.RedeliveredRejected != o.Offered {
			r.violate("%s serve %d: %d completions + %d rejected + %d rejected on redelivery != %d offered",
				what, i, o.Completions, o.Rejected, o.RedeliveredRejected, o.Offered)
		}
		if o.SketchCount >= 0 && o.SketchCount != o.Completions {
			r.violate("%s serve %d: latency sketch holds %d samples for %d completions", what, i, o.SketchCount, o.Completions)
		}
		if int64(o.LatencyN) != o.Completions {
			r.violate("%s serve %d: latency summary over %d samples for %d completions", what, i, o.LatencyN, o.Completions)
		}
		if o != samples[0].Sim {
			r.violate("%s serve %d: simulated outcome differs from serve 0 of the same stream:\n  %+v\n  %+v",
				what, i, o, samples[0].Sim)
		}
	}
}

// same requires two sample sets of the same stream to agree on the
// simulated outcome.
func (r *result) same(what string, a, b []*sample) {
	if len(a) > 0 && len(b) > 0 && a[0].Sim != b[0].Sim {
		r.violate("%s: simulated outcome differs:\n  %+v\n  %+v", what, a[0].Sim, b[0].Sim)
	}
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// medianOf is the median of f over the samples.
func medianOf(samples []*sample, f func(*sample) float64) float64 {
	xs := make([]float64, len(samples))
	for i, s := range samples {
		xs[i] = f(s)
	}
	return median(xs)
}

// perReq divides by the offered request count.
func perReq(s *sample, v float64) float64 { return v / float64(s.Sim.Offered) }

// host scales a host time of the sample to the calibration's reference
// speed (unscaled when the sample carries no calibration).
func host(s *sample, ns int64) float64 {
	if s.CalibNs <= 0 {
		return float64(ns)
	}
	return float64(ns) * calibRefNs / float64(s.CalibNs)
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// endToEnd turns the untraced samples of one workload into the
// end-to-end metrics. Host metrics are medians over the samples; the
// simulated ones are the same in every sample.
func endToEnd(w *spec, samples []*sample, capacity float64) *result {
	r := &result{workload: w.name}
	r.check("untraced", samples)
	if len(samples) == 0 {
		r.violate("no serve completed")
		return r
	}
	r.add("host_ns_per_req", "ns", medianOf(samples, func(s *sample) float64 { return perReq(s, host(s, s.ServeNs)) }))
	r.add("allocs_per_req", "count", medianOf(samples, func(s *sample) float64 { return perReq(s, float64(s.Allocs)) }))
	r.add("bytes_per_req", "B", medianOf(samples, func(s *sample) float64 { return perReq(s, float64(s.Bytes)) }))
	r.add("peak_rss_mb", "MB", medianOf(samples, func(s *sample) float64 { return float64(s.MaxRSSKB) / 1024 }))
	r.add("setup_s", "s", medianOf(samples, func(s *sample) float64 { return host(s, s.SetupNs) / 1e9 }))
	// The latency centre is the mean, not the median: on fleet-chaos more
	// than half the requests see exactly the unqueued service time, so
	// its median reads the same on every seed.
	o := samples[0].Sim
	r.add("sim_throughput_rps", "req/s", o.ThroughputRPS)
	r.add("sim_mean_s", "s", o.MeanS)
	r.add("sim_p99_s", "s", o.P99S)
	r.add("slo_attainment", "ratio", ratio(float64(o.Met), float64(o.Offered)))
	r.add("sim_capacity_rps", "req/s", capacity)
	perServe := make([]string, len(samples))
	for i, s := range samples {
		perServe[i] = fmt.Sprintf("%.0f/%.0f/%.0f", perReq(s, host(s, s.ServeNs)), perReq(s, float64(s.ServeNs)), float64(s.CalibNs)/1e6)
	}
	r.notes = append(r.notes,
		fmt.Sprintf("%d serves of %d offered requests; host metrics are medians over the serves", len(samples), o.Offered),
		fmt.Sprintf("host times are scaled to the speed at which the calibration loop takes %.0f ms", calibRefNs/1e6),
		"each serve's scaled/raw host_ns_per_req and calibration ms, in order: "+strings.Join(perServe, " "),
		fmt.Sprintf("sim_mean_s and sim_p99_s over %d completions (%d beyond p99); slo_attainment counts a request that did not complete as a miss", o.Completions, o.Completions/100),
		"arrivals are open-loop in virtual time: latency counts from each request's due instant, so generator lateness is 0 by construction")
	return r
}

// perLayer turns one workload's traced samples, with the untraced ones of
// the same stream, into the per-layer metrics. Layers a workload does
// not exercise read 0. shards1 holds fleet-sharded's serves on one
// kernel worker (empty elsewhere).
func perLayer(w *spec, untraced, traced, shards1 []*sample) *result {
	r := &result{workload: w.name}
	r.check("untraced", untraced)
	r.check("traced", traced)
	r.check("shards=1", shards1)
	r.same("traced vs untraced", traced, untraced)
	r.same("shards=1 vs shards=nproc", shards1, untraced)
	if len(untraced) == 0 || len(traced) == 0 {
		r.violate("no serve completed")
		return r
	}
	o := traced[0].Sim
	kreq := func(n int64) float64 { return 1000 * float64(n) / float64(o.Offered) }
	ns := func(f func(*sample) int64) float64 {
		return medianOf(traced, func(s *sample) float64 { return perReq(s, host(s, f(s))) })
	}
	hostNs := func(ss []*sample) float64 {
		return medianOf(ss, func(s *sample) float64 { return perReq(s, host(s, s.ServeNs)) })
	}
	r.add("workload.next_ns_per_req", "ns", ns(func(s *sample) int64 { return s.NextNs }))
	r.add("cluster.route_ns_per_req", "ns", ns(func(s *sample) int64 { return s.RouteNs }))
	r.add("cluster.route_calls_per_req", "calls/req", ratio(float64(traced[0].RouteCalls), float64(o.Offered)))
	r.add("cluster.imbalance", "ratio", o.Imbalance)
	r.add("cluster.redelivered_per_kreq", "1/kreq", kreq(o.Redelivered))
	r.add("cluster.hedges_fired_per_kreq", "1/kreq", kreq(o.HedgesFired))
	r.add("cluster.hedge_useful_ratio", "ratio", ratio(float64(o.HedgeWins), float64(o.HedgesFired)))
	r.add("cluster.breaker_trips_per_kreq", "1/kreq", kreq(int64(o.BreakerTrips)))
	r.add("cluster.bounced_per_kreq", "1/kreq", kreq(o.Bounced))
	r.add("cluster.dupacks_per_kreq", "1/kreq", kreq(o.DupAcks))
	r.add("cluster.failover_mean_s", "s", o.FailoverMeanS)
	r.add("pool.victims_ns_per_req", "ns", ns(func(s *sample) int64 { return s.VictimsNs }))
	r.add("pool.victims_calls_per_kreq", "1/kreq", kreq(traced[0].VictimsCalls))
	r.add("pool.switches_per_kreq", "1/kreq", kreq(o.Switches))
	r.add("pool.host_hit_ratio", "ratio", ratio(float64(o.HostHits), float64(o.HostHits+o.SSDLoads)))
	r.add("pool.load_s_per_req", "s", o.LoadS/float64(o.Offered))
	r.add("sched.ns_per_op", "ns", medianOf(traced, func(s *sample) float64 { return ratio(host(s, s.SchedNs), float64(o.SchedOps)) }))
	r.add("sched.ops_per_req", "ops/req", float64(o.SchedOps)/float64(o.Offered))
	r.add("executor.batch_mean", "req/batch", ratio(float64(o.Processed), float64(o.Batches)))
	r.add("executor.busy_share", "ratio", ratio(o.BusyS, o.MakespanS*float64(o.Executors)))
	speedup := 0.0
	if len(shards1) > 0 {
		speedup = hostNs(shards1) / hostNs(untraced)
	}
	r.add("kernel.shard_speedup", "x", speedup)
	r.add("kernel.residual_ns_per_req", "ns", ns(func(s *sample) int64 {
		return s.ServeNs - s.NextNs - s.RouteNs - s.VictimsNs - s.SchedNs
	}))
	r.add("setup.profile_s", "s", medianOf(traced, func(s *sample) float64 { return host(s, s.ProfileNs) / 1e9 }))
	r.add("setup.placement_s", "s", medianOf(traced, func(s *sample) float64 { return host(s, s.PlacementNs) / 1e9 }))
	r.add("trace.overhead_ratio", "x", hostNs(traced)/hostNs(untraced))
	r.notes = append(r.notes,
		fmt.Sprintf("%d traced and %d untraced serves of %d offered requests; host-time layers are medians over the traced serves, scaled like host_ns_per_req", len(traced), len(untraced), o.Offered),
		"layers the workload does not exercise read 0; eviction time is summed over nodes, which run concurrently on the sharded kernel")
	return r
}

// shardCheck serves fleet-sharded's capacity-probe stream in process
// on one kernel worker and on the default count, and requires the two
// simulated outcomes to agree. Other workloads have no workers to vary.
func shardCheck(r *result, w *spec, seed int64, scale float64) error {
	if w.name != "fleet-sharded" {
		return nil
	}
	p := w.defaults(seed, scale)
	p.requests = scaled(w.probe, scale)
	many, err := w.serve(p, 1)
	if err != nil {
		return err
	}
	p.shards = 1
	one, err := w.serve(p, 1)
	if err != nil {
		return err
	}
	r.same("probe stream at shards=1 vs shards=nproc", []*sample{one}, []*sample{many})
	return nil
}

// schedule runs jobs until the time budget would be overrun, never
// fewer than minRounds rounds. A round is one call of round, which runs
// one or more jobs; the next round starts only if the slowest round so
// far still fits before the deadline.
func schedule(deadline time.Time, minRounds int, round func() error) error {
	var longest time.Duration
	for i := 0; ; i++ {
		if i >= minRounds && time.Now().Add(longest).After(deadline) {
			return nil
		}
		t := time.Now()
		if err := round(); err != nil {
			return err
		}
		longest = max(longest, time.Since(t))
	}
}

// traceRounds is the least number of rounds a traced run makes.
const traceRounds = 3

// serves holds one workload's samples.
type serves struct{ untraced, traced, shards1 []*sample }

// round runs one round of a workload's serves: one untraced serve or,
// traced, one untraced and one traced serve, plus one on a single kernel
// worker for fleet-sharded.
func (s *serves) round(w *spec, seed int64, scale float64, trace bool, run runner) error {
	add := func(j job, into *[]*sample) error {
		smp, err := run(j)
		if err != nil {
			return err
		}
		*into = append(*into, smp)
		return nil
	}
	base := job{workload: w.name, seed: seed, scale: scale}
	if err := add(base, &s.untraced); err != nil || !trace {
		return err
	}
	t := base
	t.traced = true
	if err := add(t, &s.traced); err != nil || w.name != "fleet-sharded" {
		return err
	}
	one := base
	one.shards = 1
	return add(one, &s.shards1)
}

// result turns the serves into the workload's result: the per-layer
// metrics when traced, else the end-to-end metrics with the capacity
// found beforehand and the shard check.
func (s *serves) result(w *spec, seed int64, scale float64, trace bool, capacity float64) (*result, error) {
	if trace {
		return perLayer(w, s.untraced, s.traced, s.shards1), nil
	}
	r := endToEnd(w, s.untraced, capacity)
	return r, shardCheck(r, w, seed, scale)
}

// measure runs one workload for the time budget. The end-to-end set
// searches the capacity first, inside the budget, then repeats untraced
// serves, at least minRounds of them; the traced set repeats traced
// rounds, at least traceRounds of them.
func measure(w *spec, seed int64, scale float64, budget time.Duration, minRounds int, trace bool, run runner) (*result, error) {
	deadline := time.Now().Add(budget)
	var capacity float64
	var searched time.Duration
	if !trace {
		t := time.Now()
		var err error
		if capacity, err = w.capacity(seed, scale); err != nil {
			return nil, fmt.Errorf("%s capacity: %w", w.name, err)
		}
		searched = time.Since(t)
	} else {
		minRounds = traceRounds
	}
	var s serves
	if err := schedule(deadline, minRounds, func() error { return s.round(w, seed, scale, trace, run) }); err != nil {
		return nil, err
	}
	r, err := s.result(w, seed, scale, trace, capacity)
	if !trace {
		r.notes = append(r.notes, fmt.Sprintf("the capacity search took %.1f s of the %.0f s budget", searched.Seconds(), budget.Seconds()))
	}
	return r, err
}

// measureAll runs every workload for the given number of rounds,
// interleaved round-robin so drift on the machine hits every workload
// alike; capacities are searched after the serves.
func measureAll(seed int64, scale float64, rounds int, trace bool, run runner) ([]*result, error) {
	all := make([]serves, len(specs))
	for i := 0; i < rounds; i++ {
		for k, w := range specs {
			if err := all[k].round(w, seed, scale, trace, run); err != nil {
				return nil, err
			}
		}
	}
	out := make([]*result, len(specs))
	for k, w := range specs {
		var capacity float64
		if !trace {
			var err error
			if capacity, err = w.capacity(seed, scale); err != nil {
				return nil, fmt.Errorf("%s capacity: %w", w.name, err)
			}
		}
		r, err := all[k].result(w, seed, scale, trace, capacity)
		if err != nil {
			return nil, err
		}
		out[k] = r
	}
	return out, nil
}
