package main

import (
	"strings"
	"testing"
)

// tracedLine is the shape of a traced bench/run.sh JSON line, trimmed to
// the metrics the breakdown reads plus one it ignores.
const tracedLine = `{"correct":true,"attempted":100,"failed":0,"metrics":{` +
	`"workload.next_ns_per_req":{"value":150,"unit":"ns"},` +
	`"cluster.route_ns_per_req":{"value":250,"unit":"ns"},` +
	`"sched.ns_per_op":{"value":200,"unit":"ns"},` +
	`"sched.ops_per_req":{"value":1.5,"unit":"ops/req"},` +
	`"pool.victims_ns_per_req":{"value":100,"unit":"ns"},` +
	`"pool.switches_per_kreq":{"value":8,"unit":"1/kreq"},` +
	`"kernel.residual_ns_per_req":{"value":1200,"unit":"ns"}}}`

func TestBreakdownSharesOfFixedLine(t *testing.T) {
	var out strings.Builder
	in := "== fleet-steady\n   checks: 0 failed\n" + tracedLine + "\n"
	if err := breakdown(strings.NewReader(in), &out); err != nil {
		t.Fatal(err)
	}
	want := `layer                ns/req   share
workload.next         150.0    7.5%
cluster.route         250.0   12.5%
sched                 300.0   15.0%
pool.victims          100.0    5.0%
kernel.residual      1200.0   60.0%
sum                  2000.0  100.0%
`
	if got := out.String(); got != want {
		t.Errorf("breakdown =\n%s\nwant\n%s", got, want)
	}
}

func TestBreakdownRejectsUntracedOrMissingLine(t *testing.T) {
	for name, in := range map[string]string{
		"no JSON":        "== fleet-steady\n",
		"missing metric": strings.Replace(tracedLine, `"pool.victims_ns_per_req"`, `"pool.other"`, 1),
		"all zero":       `{"metrics":{"workload.next_ns_per_req":{"value":0},"cluster.route_ns_per_req":{"value":0},"sched.ns_per_op":{"value":0},"sched.ops_per_req":{"value":0},"pool.victims_ns_per_req":{"value":0},"kernel.residual_ns_per_req":{"value":0}}}`,
	} {
		if err := breakdown(strings.NewReader(in), &strings.Builder{}); err == nil {
			t.Errorf("%s: breakdown accepted the input", name)
		}
	}
}
