package workload

import (
	"fmt"

	"repro/internal/coe"
)

// Test-only accessors: nothing outside this package's tests needs them.

// Drain materializes a source into a slice — handy for tests and for
// callers that need the stream length upfront. It refuses unbounded
// sources (IsUnbounded): draining an infinite stream would never
// return, so it panics immediately with instructions to wrap the source
// in a Horizon, and panics likewise if a source that did not declare
// itself unbounded still yields past DrainCap requests.
func Drain(src Source) []TimedRequest {
	if IsUnbounded(src) {
		panic(fmt.Sprintf("workload: Drain on unbounded source %q would never return; wrap it in workload.Horizon first", src.Name()))
	}
	var out []TimedRequest
	for {
		tr, ok := src.Next()
		if !ok {
			return out
		}
		if len(out) >= DrainCap {
			panic(fmt.Sprintf("workload: Drain exceeded %d requests on source %q; an unbounded source must be wrapped in workload.Horizon", DrainCap, src.Name()))
		}
		out = append(out, tr)
	}
}

// DistinctExperts reports how many distinct experts a request stream
// touches — the task's working set, the quantity that determines the
// floor on expert switches.
func DistinctExperts(reqs []*coe.Request) int {
	seen := make(map[coe.ExpertID]struct{})
	for _, r := range reqs {
		for _, id := range r.Chain {
			seen[id] = struct{}{}
		}
	}
	return len(seen)
}
