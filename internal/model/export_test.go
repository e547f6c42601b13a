package model

import (
	"fmt"
	"time"

	"repro/internal/hw"
)

// Test-only accessors: nothing outside this package's tests needs them.

// ArchByName looks up a built-in architecture.
func ArchByName(name string) (Architecture, error) {
	if a, ok := Architectures()[name]; ok {
		return a, nil
	}
	return Architecture{}, fmt.Errorf("model: unknown architecture %q", name)
}

// AvgLatency reports ExecLatency divided by the batch size — the metric
// whose plateau defines the maximum batch size (§4.5, Figure 5).
func AvgLatency(a Architecture, p hw.Processor, batch int) time.Duration {
	return ExecLatency(a, p, batch) / time.Duration(batch)
}

// PredictExec applies the paper's §4.2 latency prediction: the first
// request in a batch costs K+B, each subsequent request costs K.
func (pf Perf) PredictExec(batch int) time.Duration {
	if batch < 1 {
		return 0
	}
	return pf.K*time.Duration(batch) + pf.B
}

// Architectures returns the built-in architectures keyed by name.
func Architectures() map[string]Architecture {
	return map[string]Architecture{
		ResNet101.Name: ResNet101,
		YOLOv5m.Name:   YOLOv5m,
		YOLOv5l.Name:   YOLOv5l,
	}
}
