// Quickstart: the minimal end-to-end CoServe session.
//
// It builds a small custom CoE model (three classification experts
// sharing one detection expert), profiles the NUMA device offline,
// serves a burst of requests with CoServe, and prints the report.
//
// Run with: go run ./examples/quickstart
package main

import (
	"fmt"
	"log"
	"time"

	coserve "repro"
)

func main() {
	// 1. Build a CoE model: experts + dependencies + routing rules
	//    (paper §2.1, Figure 2).
	b := coserve.NewModelBuilder("quickstart")
	clsA := b.AddExpert("cls-bolt", coserve.ResNet101, coserve.Preliminary)
	clsB := b.AddExpert("cls-washer", coserve.ResNet101, coserve.Preliminary)
	clsC := b.AddExpert("cls-spring", coserve.ResNet101, coserve.Preliminary)
	det := b.AddExpert("det-align", coserve.YOLOv5m, coserve.Subsequent)
	b.Link(clsA, det) // bolts and washers verify alignment after passing
	b.Link(clsB, det)
	b.AddRule(0, coserve.Rule{Classifier: clsA, Detector: det, PassProb: 0.9})
	b.AddRule(1, coserve.Rule{Classifier: clsB, Detector: det, PassProb: 0.8})
	b.AddRule(2, coserve.Rule{Classifier: clsC})
	model, err := b.Build()
	if err != nil {
		log.Fatal(err)
	}
	// Usage probabilities come straight from the known class mix (§4.5).
	if err := coserve.ComputeUsage(model, map[int]float64{0: 0.5, 1: 0.3, 2: 0.2}); err != nil {
		log.Fatal(err)
	}

	// 2. Offline phase: profile the device once (§4.4–4.5).
	dev := coserve.NUMADevice()
	perf, err := coserve.Profile(dev, coserve.EvalArchitectures())
	if err != nil {
		log.Fatal(err)
	}

	// 3. System initialization: executors, memory allocation, preload.
	//    Zero executor counts and a zero Alloc select the casual layout.
	cfg := coserve.Config{Device: dev, Variant: coserve.CoServe, Perf: perf}
	srv, err := coserve.NewServer(cfg, model)
	if err != nil {
		log.Fatal(err)
	}

	// 4. Online phase: a synthetic stream of 400 component images. The
	//    quickstart reuses a board-like task by wrapping our model in a
	//    trivial workload: requests sampled from the class mix.
	board, err := coserve.NewBoard(model, []float64{0.5, 0.3, 0.2})
	if err != nil {
		log.Fatal(err)
	}
	task := coserve.Task{
		Name: "quickstart", Board: board,
		N: 400, ArrivalPeriod: 4 * time.Millisecond, Seed: 1,
	}
	report, err := srv.RunTask(task)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("served %d requests at %.1f img/s (virtual)\n", report.Completions, report.Throughput)
	fmt.Printf("expert switches: %d (%d SSD, %d host)\n", report.Switches, report.SSDLoads, report.HostHits)
	fmt.Printf("p50 latency: %.0f ms, scheduling cost: %v per decision\n",
		report.Latency.P50*1000, report.SchedPerOp)
}
