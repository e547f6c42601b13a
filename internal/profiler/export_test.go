package profiler

// Test-only accessors: nothing outside this package's tests needs them.

// DefaultTopologies returns the paper's Figure 17 sweep: 1–5 GPU
// executors with one CPU executor, then the best GPU count with two.
func DefaultTopologies(bestGPUsSoFar int) [][2]int {
	return [][2]int{{1, 1}, {2, 1}, {3, 1}, {4, 1}, {5, 1}, {bestGPUsSoFar, 2}}
}
