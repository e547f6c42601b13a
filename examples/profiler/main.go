// Profiler: a walkthrough of CoServe's offline phase (§4.4–§4.5).
//
// It profiles both devices (performance matrix: K, B, max batch,
// footprints, load latencies), then runs the offline configuration
// search for Circuit Board A on the NUMA device: the executor-count
// sweep, then the decay-window memory-allocation search on the best
// topology. It is the same search (coserve.OfflineSearch) that the
// fig17 and fig18 experiments run, so it prints their Measurement A
// rows on the NUMA device.
//
// Run with: go run ./examples/profiler
package main

import (
	"fmt"
	"log"
	"os"
	"text/tabwriter"
	"time"

	coserve "repro"
	"repro/internal/hw"
	"repro/internal/workload"
)

func main() {
	// 1. Performance matrix for each device (microbenchmarks, §4.5).
	for _, dev := range []*coserve.Device{coserve.NUMADevice(), coserve.UMADevice()} {
		perf, err := coserve.Profile(dev, coserve.EvalArchitectures())
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("== %s performance matrix ==\n", dev.Name)
		w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
		fmt.Fprintln(w, "architecture\tproc\tK\tB\tmax batch\tload(ssd)")
		for _, arch := range coserve.EvalArchitectures() {
			for _, kind := range []hw.ProcKind{hw.GPU, hw.CPU} {
				p, _ := perf.Lookup(arch.Name, kind)
				fmt.Fprintf(w, "%s\t%v\t%v\t%v\t%d\t%v\n", arch.Name, kind,
					p.K.Round(10*time.Microsecond), p.B.Round(time.Millisecond),
					p.MaxBatch, p.LoadSSD.Round(time.Millisecond))
			}
		}
		w.Flush()
		fmt.Println()
	}

	// 2. Offline configuration search on the NUMA device for Board A,
	//    on a 600-request sample of the board's stream.
	dev := coserve.NUMADevice()
	perf, err := coserve.Profile(dev, coserve.EvalArchitectures())
	if err != nil {
		log.Fatal(err)
	}
	board, err := coserve.BoardA().Build()
	if err != nil {
		log.Fatal(err)
	}
	sample := coserve.Task{
		Name: "sample", Board: board, N: 600,
		ArrivalPeriod: workload.DefaultArrivalPeriod, Seed: 777,
	}
	res, err := coserve.OfflineSearch(dev, perf, sample, nil)
	if err != nil {
		log.Fatal(err)
	}
	cfg := res.Config

	fmt.Println("== executor-count sweep (Figure 17) ==")
	for _, p := range res.Topology {
		marker := ""
		if p.GPUs == cfg.GPUExecutors && p.CPUs == cfg.CPUExecutors {
			marker = "  <- best"
		}
		fmt.Printf("  %dG+%dC: %.1f img/s%s\n", p.GPUs, p.CPUs, p.Throughput, marker)
	}

	fmt.Println("\n== decay-window memory search (§4.4, Figure 18) ==")
	w := res.Window
	for _, p := range w.Points {
		fmt.Printf("  load %3d experts -> %.1f img/s\n", p.Experts, p.Throughput)
	}
	fmt.Printf("selected window [%d,%d], loading %d experts (deviation %.1f%%)\n",
		w.WindowLo, w.WindowHi, w.Selected, w.Deviation*100)
	fmt.Printf("chosen config: %dG+%dC, %.1f GB of GPU expert memory\n",
		cfg.GPUExecutors, cfg.CPUExecutors, float64(cfg.Alloc.GPUExpertBytes)/1e9)
}
