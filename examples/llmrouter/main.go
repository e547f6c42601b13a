// Llmrouter: a Qihoo-360-style CoE (§2.1) that routes requests across
// domain experts. A rule router sends each request to one of three
// domain expert families (code / math / prose), forty versions each,
// and the CoServe serving layer schedules that expert set on the
// simulated UMA device under a code-heavy request mix. Like the rest of
// the system, it never runs an expert: each one is priced by the
// offline profiler's measured cost.
//
// Run with: go run ./examples/llmrouter
package main

import (
	"fmt"
	"log"
	"time"

	coserve "repro"
)

func main() {
	// Domain experts in production are large (§2.1: code, math, law
	// models); model them with the built-in architectures and serve a
	// skewed request mix through CoServe on the UMA device.
	names := []string{"code-expert", "math-expert", "prose-expert"}
	b := coserve.NewModelBuilder("llm-router")
	var probs []float64
	mix := []float64{0.5, 0.3, 0.2} // code-heavy request mix
	for d, name := range names {
		// Production domain experts: many per domain (versions, sizes).
		for v := 0; v < 40; v++ {
			id := b.AddExpert(fmt.Sprintf("%s-v%d", name, v), coserve.ResNet101, coserve.Preliminary)
			b.AddRule(d*40+v, coserve.Rule{Classifier: id})
			probs = append(probs, mix[d]/40)
		}
	}
	model, err := b.Build()
	if err != nil {
		log.Fatal(err)
	}
	classProbs := make(map[int]float64, len(probs))
	for c, p := range probs {
		classProbs[c] = p
	}
	if err := coserve.ComputeUsage(model, classProbs); err != nil {
		log.Fatal(err)
	}

	dev := coserve.UMADevice()
	perf, err := coserve.Profile(dev, coserve.EvalArchitectures())
	if err != nil {
		log.Fatal(err)
	}
	srv, err := coserve.NewServer(coserve.Config{Device: dev, Variant: coserve.CoServe, Perf: perf}, model)
	if err != nil {
		log.Fatal(err)
	}
	board, err := coserve.NewBoard(model, probs)
	if err != nil {
		log.Fatal(err)
	}
	rep, err := srv.RunTask(coserve.Task{
		Name: "llm-mix", Board: board, N: 1000,
		ArrivalPeriod: 4 * time.Millisecond, Seed: 9,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("served %d domain requests over %d experts on %s\n",
		rep.Completions, model.NumExperts(), dev.Name)
	fmt.Printf("throughput %.1f req/s, %d expert switches, p95 latency %.1fs\n",
		rep.Throughput, rep.Switches, rep.Latency.P95)
}
