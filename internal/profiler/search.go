package profiler

import (
	"fmt"
	"math"

	"repro/internal/stats"
)

// SearchParams configures the §4.4 decay-window memory-allocation
// search. The defaults mirror the paper's evaluation (initial window 15,
// 5 % linear error margin, Figure 18).
type SearchParams struct {
	// InitialWindow is the first window's size, in experts.
	InitialWindow int
	// ErrorMargin is Eq. 3's deviation threshold.
	ErrorMargin float64
	// FitPoints is N of Eq. 2: the number of leading throughput samples
	// the upward trend is fit on.
	FitPoints int
	// MaxExperts bounds the sweep (the device cannot load more).
	MaxExperts int
}

// DefaultSearchParams returns the paper's settings for a device able to
// hold at most maxExperts reference experts.
func DefaultSearchParams(maxExperts int) SearchParams {
	return SearchParams{
		InitialWindow: 15,
		ErrorMargin:   0.05,
		FitPoints:     3,
		MaxExperts:    maxExperts,
	}
}

// SearchPoint is one sample-inference measurement at a window boundary.
type SearchPoint struct {
	Experts    int
	Throughput float64
}

// SearchResult is the outcome of the decay-window search.
type SearchResult struct {
	// Points are the measurements at the upper bound of each window, in
	// sweep order (Figure 18's window points).
	Points []SearchPoint
	// WindowLo and WindowHi delimit the selected window.
	WindowLo, WindowHi int
	// Selected is the chosen expert-loading number. The paper selects
	// randomly within the window because "differences between values
	// within the window become negligible"; this implementation takes
	// the midpoint so runs are reproducible.
	Selected int
	// Deviation is the Eq. 3 relative deviation that stopped the slide
	// (0 when the sweep exhausted MaxExperts without deviating).
	Deviation float64
}

// DecayWindow runs the sliding decay-window search (§4.4). The runner
// loads n experts, performs sample inference requests, and returns the
// measured throughput.
//
// The window starts at [0, InitialWindow]; each slide moves the lower
// bound to the previous upper bound and shrinks the size by the decay
// factor of Eq. 1 (1 - InitialWindow/100). Throughput is measured at
// each upper bound. After FitPoints measurements, the upward trend is
// fit linearly (Eq. 2); the slide stops at the first measurement whose
// shortfall from the trend exceeds ErrorMargin (Eq. 3).
func DecayWindow(params SearchParams, runner func(nExperts int) (float64, error)) (SearchResult, error) {
	if params.InitialWindow < 1 || params.InitialWindow >= 100 {
		return SearchResult{}, fmt.Errorf("profiler: initial window %d outside [1,100)", params.InitialWindow)
	}
	if params.FitPoints < 2 {
		return SearchResult{}, fmt.Errorf("profiler: need at least 2 fit points")
	}
	if params.MaxExperts <= params.InitialWindow {
		return SearchResult{}, fmt.Errorf("profiler: max experts %d not above initial window %d",
			params.MaxExperts, params.InitialWindow)
	}
	decay := 1 - float64(params.InitialWindow)/100

	var res SearchResult
	lower := 0
	size := float64(params.InitialWindow)
	for {
		upper := lower + int(math.Round(size))
		if upper <= lower {
			upper = lower + 1
		}
		clamped := false
		if upper >= params.MaxExperts {
			upper = params.MaxExperts
			clamped = true
		}
		tp, err := runner(upper)
		if err != nil {
			return res, fmt.Errorf("profiler: sample run at %d experts: %w", upper, err)
		}
		res.Points = append(res.Points, SearchPoint{Experts: upper, Throughput: tp})
		res.WindowLo, res.WindowHi = lower, upper

		if len(res.Points) > params.FitPoints {
			xs := make([]float64, params.FitPoints)
			ys := make([]float64, params.FitPoints)
			for i := 0; i < params.FitPoints; i++ {
				xs[i] = float64(i + 1)
				ys[i] = res.Points[i].Throughput
			}
			fit, err := stats.FitLine(xs, ys)
			if err != nil {
				return res, err
			}
			predicted := fit.Predict(float64(len(res.Points)))
			if predicted > 0 {
				dev := (predicted - tp) / predicted
				if dev > params.ErrorMargin {
					res.Deviation = dev
					break
				}
			}
		}
		if clamped {
			break
		}
		lower = upper
		size *= decay
	}
	res.Selected = (res.WindowLo + res.WindowHi + 1) / 2
	if res.Selected < 1 {
		res.Selected = 1
	}
	return res, nil
}

// TopologyPoint is one executor-count measurement (Figure 17).
type TopologyPoint struct {
	GPUs, CPUs int
	Throughput float64
}

// Fanout runs probe(i) for every i in [0, n) and returns the results in
// index order. The probes are independent simulations, so a Fanout may
// run them concurrently; nil runs them one after another.
type Fanout func(n int, probe func(i int) (float64, error)) ([]float64, error)

// TopologySweep measures throughput across executor topologies through
// fan and returns the measurements plus the best configuration. Ties
// keep the earlier (smaller) config.
func TopologySweep(configs [][2]int, fan Fanout, runner func(gpus, cpus int) (float64, error)) ([]TopologyPoint, int, error) {
	if len(configs) == 0 {
		return nil, 0, fmt.Errorf("profiler: no topologies to sweep")
	}
	probe := func(i int) (float64, error) {
		tp, err := runner(configs[i][0], configs[i][1])
		if err != nil {
			return 0, fmt.Errorf("profiler: topology %dG+%dC: %w", configs[i][0], configs[i][1], err)
		}
		return tp, nil
	}
	var tps []float64
	var err error
	if fan != nil {
		tps, err = fan(len(configs), probe)
	} else {
		tps = make([]float64, len(configs))
		for i := range configs {
			if tps[i], err = probe(i); err != nil {
				break
			}
		}
	}
	if err != nil {
		return nil, 0, err
	}
	points := make([]TopologyPoint, len(configs))
	best := 0
	for i, cfg := range configs {
		points[i] = TopologyPoint{GPUs: cfg[0], CPUs: cfg[1], Throughput: tps[i]}
		if tps[i] > tps[best] {
			best = i
		}
	}
	return points, best, nil
}
