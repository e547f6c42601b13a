package main

import (
	"bytes"
	"encoding/json"
	"os"
	"strconv"
	"strings"
	"testing"
)

// benchmarkFile is the part of BENCHMARK.json the smoke test checks the
// command against.
type benchmarkFile struct {
	Workloads []struct{ Name string }       `json:"workloads"`
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

// baselineFile is the part of baseline.json naming the seeds.
type baselineFile struct {
	Seeds struct {
		Default int64 `json:"default"`
		HeldOut int64 `json:"held_out"`
	} `json:"seeds"`
}

func readJSON(t *testing.T, path string, v any) {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(b, v); err != nil {
		t.Fatalf("%s: %v", path, err)
	}
}

// smoke runs the command in process over every workload at 1% scale,
// repeats rounds, and returns its result line.
func smoke(t *testing.T, repeats int, args ...string) jsonResult {
	t.Helper()
	var out, errOut bytes.Buffer
	args = append([]string{"-scale", "0.01", "-repeats", strconv.Itoa(repeats)}, args...)
	if code := run(args, &out, &errOut, inProcess); code != 0 {
		t.Fatalf("bench %v exited %d:\n%s%s", args, code, out.String(), errOut.String())
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var r jsonResult
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &r); err != nil {
		t.Fatalf("last line is not the result: %v\n%s", err, out.String())
	}
	if !r.Correct || r.Attempted < 1 || r.Failed != 0 {
		t.Fatalf("correct=%v attempted=%d failed=%d\n%s", r.Correct, r.Attempted, r.Failed, out.String())
	}
	return r
}

// wantMetrics requires exactly the listed metrics for every workload,
// each with its unit.
func wantMetrics(t *testing.T, r jsonResult, bf benchmarkFile, want []struct{ Name, Unit string }) {
	t.Helper()
	if len(r.Metrics) != len(bf.Workloads)*len(want) {
		t.Errorf("got %d metrics, want %d", len(r.Metrics), len(bf.Workloads)*len(want))
	}
	for _, w := range bf.Workloads {
		for _, m := range want {
			got, ok := r.Metrics[w.Name+"."+m.Name]
			if !ok || got.Unit != m.Unit {
				t.Errorf("%s: metric %s = %+v, want unit %s", w.Name, m.Name, got, m.Unit)
			}
		}
	}
}

func TestWorkloadsMatchBenchmarkFile(t *testing.T) {
	var bf benchmarkFile
	readJSON(t, "../BENCHMARK.json", &bf)
	if len(bf.Workloads) != len(specs) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the command runs %d", len(bf.Workloads), len(specs))
	}
	for i, w := range bf.Workloads {
		if w.Name != specs[i].name {
			t.Errorf("workload %d is %s in BENCHMARK.json, %s in the command", i, w.Name, specs[i].name)
		}
	}
}

// TestSmoke runs every workload end to end on the default seed (two
// serves each, so the repeat check runs) and on the held-out seed, and
// traced on the default seed, and checks that every metric
// BENCHMARK.json names comes out with its unit, that every correctness
// check passes, and that the two seeds serve different streams.
func TestSmoke(t *testing.T) {
	var bf benchmarkFile
	readJSON(t, "../BENCHMARK.json", &bf)
	var base baselineFile
	readJSON(t, "baseline.json", &base)
	seeds := []int64{base.Seeds.Default, base.Seeds.HeldOut}
	if seeds[0] == seeds[1] {
		t.Fatalf("held-out seed equals the default seed %d", seeds[0])
	}

	var results []jsonResult
	for i, seed := range seeds {
		r := smoke(t, 2-i, "-seed", itoa(seed))
		wantMetrics(t, r, bf, bf.EndToEnd)
		results = append(results, r)
	}
	for _, w := range bf.Workloads {
		key := w.Name + ".sim_mean_s"
		if results[0].Metrics[key] == results[1].Metrics[key] {
			t.Errorf("%s: seeds %d and %d give the same mean latency; the streams do not differ", w.Name, seeds[0], seeds[1])
		}
	}
	wantMetrics(t, smoke(t, 1, "-seed", itoa(seeds[0]), "-trace", "1"), bf, bf.PerLayer)
}

func itoa(n int64) string { return strconv.FormatInt(n, 10) }

func TestBadArgumentsFailWithoutResult(t *testing.T) {
	for _, args := range [][]string{
		{"-workload", "no-such-workload"},
		{"-trace", "2"},
		{"-seconds", "0"},
	} {
		var out, errOut bytes.Buffer
		if code := run(args, &out, &errOut, inProcess); code == 0 {
			t.Errorf("bench %v exited 0", args)
		}
		if out.Len() != 0 || errOut.Len() == 0 {
			t.Errorf("bench %v: stdout %q, stderr %q; want only an error", args, out.String(), errOut.String())
		}
	}
}

// TestChecksCatchViolations feeds the checks samples that break each
// invariant in turn.
func TestChecksCatchViolations(t *testing.T) {
	good := outcome{Offered: 10, Completions: 9, Rejected: 1, SketchCount: 9, LatencyN: 9}
	for name, bad := range map[string]func(o *outcome){
		"accounting":       func(o *outcome) { o.Rejected = 0 },
		"sketch count":     func(o *outcome) { o.SketchCount = 10 },
		"summary count":    func(o *outcome) { o.LatencyN = 8 },
		"repeat identical": func(o *outcome) { o.P99S = 1 },
	} {
		o := good
		bad(&o)
		r := &result{workload: "w"}
		r.check("test", []*sample{{Sim: good}, {Sim: o}})
		if len(r.violations) == 0 {
			t.Errorf("%s: violation not reported", name)
		}
	}
	r := &result{workload: "w"}
	r.check("test", []*sample{{Sim: good}, {Sim: good}})
	if len(r.violations) != 0 || r.failed != 2 || r.attempted != 20 {
		t.Errorf("good samples: violations %v, failed %d, attempted %d", r.violations, r.failed, r.attempted)
	}
	r.same("traced", []*sample{{Sim: good}}, []*sample{{Sim: outcome{Offered: 10}}})
	if len(r.violations) != 1 {
		t.Errorf("differing outcomes across sets not reported")
	}
}
