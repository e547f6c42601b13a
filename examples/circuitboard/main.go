// Circuitboard: the paper's motivating workload end to end.
//
// It builds Circuit Board A (352 component types, 30 shared detection
// experts, ~68 GB of experts — §5.1), runs Task A1 under Samba-CoE and
// under CoServe on both devices, and prints the head-to-head comparison
// the paper's Figure 13 reports.
//
// Run with: go run ./examples/circuitboard
package main

import (
	"fmt"
	"log"
	"os"
	"text/tabwriter"

	coserve "repro"
)

func main() {
	board, err := coserve.BoardA().Build()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("Circuit Board A: %d component types, %d experts, %.1f GB of weights\n",
		len(board.TypeProbs), board.Model.NumExperts(),
		float64(board.Model.TotalWeightBytes())/1e9)

	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "device\tsystem\tthroughput\tswitches\tmakespan\tp95 latency")
	for _, dev := range []*coserve.Device{coserve.NUMADevice(), coserve.UMADevice()} {
		perf, err := coserve.Profile(dev, coserve.EvalArchitectures())
		if err != nil {
			log.Fatal(err)
		}
		for _, sys := range []struct {
			name    string
			variant coserve.Variant
		}{
			{"Samba-CoE", coserve.Samba},
			{"CoServe", coserve.CoServe},
		} {
			srv, err := coserve.NewServer(coserve.Config{Device: dev, Variant: sys.variant, Perf: perf}, board.Model)
			if err != nil {
				log.Fatal(err)
			}
			rep, err := srv.RunTask(coserve.TaskA1(board))
			if err != nil {
				log.Fatal(err)
			}
			fmt.Fprintf(w, "%s\t%s\t%.1f img/s\t%d\t%.0fs\t%.1fs\n",
				dev.Name, sys.name, rep.Throughput, rep.Switches,
				rep.Makespan.Seconds(), rep.Latency.P95)
		}
	}
	w.Flush()
	fmt.Println("\nCoServe's dependency-aware scheduling groups same-expert requests and")
	fmt.Println("evicts by pre-assessed usage probability, cutting expert switches by an")
	fmt.Println("order of magnitude — the paper's headline result (Figures 13 and 14).")
}
