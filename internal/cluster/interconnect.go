package cluster

import (
	"fmt"
	"strconv"
	"strings"
	"time"
)

// Interconnect is a minimal model of the dispatch fabric between the
// cluster front end and its nodes: every offer, fold-back
// acknowledgment, and rejection crosses one hop whose latency is the
// shared Dispatch cost plus a topology class — IntraBoard for nodes on
// the front end's board, InterNode for everything else. It is the down
// payment on full hierarchical-interconnect modeling: one latency
// class per board tier, applied at the front-end/node seam only
// (intra-node traffic already runs under the per-device cost model).
//
// Enabled, every hop is a timed message on the fleet's one event
// kernel, delivered one NodeLatency after it is sent. The zero value
// disables the model entirely: the same offers and folds are delivered
// at the instant they are sent.
type Interconnect struct {
	// Dispatch is the base per-hop dispatch latency every offer and
	// acknowledgment pays regardless of destination.
	Dispatch time.Duration
	// IntraBoard is the additional hop cost to nodes sharing the front
	// end's board (node indices below BoardSize).
	IntraBoard time.Duration
	// InterNode is the additional hop cost to nodes on other boards.
	InterNode time.Duration
	// BoardSize is how many nodes share the front end's board; zero (or
	// negative) places every node on the front end's board, so only
	// Dispatch + IntraBoard applies.
	BoardSize int
}

// Enabled reports whether any latency component is configured — the
// switch that makes hops timed.
func (ic Interconnect) Enabled() bool {
	return ic.Dispatch > 0 || ic.IntraBoard > 0 || ic.InterNode > 0
}

// NodeLatency is the one-way hop latency between the front end and
// node i.
func (ic Interconnect) NodeLatency(i int) time.Duration {
	hop := ic.IntraBoard
	if ic.BoardSize > 0 && i >= ic.BoardSize {
		hop = ic.InterNode
	}
	return ic.Dispatch + hop
}

// ParseInterconnect reads the model's text form: dispatch/intra-board/
// inter-node one-way latencies with an optional @board-size suffix, e.g.
// "200us/100us/600us@2". An empty spec is the zero model (interconnect
// disabled). Parsing checks the text only; the cluster validates the
// model (non-negative hops, a positive hop to every node, no hop above
// the ceiling) when it is configured.
func ParseInterconnect(spec string) (Interconnect, error) {
	var ic Interconnect
	if spec == "" {
		return ic, nil
	}
	hops, boardStr, hasBoard := strings.Cut(spec, "@")
	parts := strings.Split(hops, "/")
	if len(parts) != 3 {
		return ic, fmt.Errorf("cluster: bad interconnect %q: want dispatch/intra-board/inter-node durations, e.g. 200us/100us/600us@2", spec)
	}
	for i, dst := range []*time.Duration{&ic.Dispatch, &ic.IntraBoard, &ic.InterNode} {
		d, err := time.ParseDuration(strings.TrimSpace(parts[i]))
		if err != nil {
			return ic, fmt.Errorf("cluster: bad interconnect hop %q: %w", parts[i], err)
		}
		*dst = d
	}
	if hasBoard {
		n, err := strconv.Atoi(strings.TrimSpace(boardStr))
		if err != nil || n < 1 {
			return ic, fmt.Errorf("cluster: bad interconnect board size %q: want a positive node count", boardStr)
		}
		ic.BoardSize = n
	}
	return ic, nil
}

// maxHop is the longest one-way hop validate accepts. Modeled hops are
// microseconds to milliseconds; the ceiling keeps now + hop, the
// instant a hop lands, far from overflowing the simulation clock.
const maxHop = time.Minute

// validate checks the model for a fleet of the given size.
func (ic Interconnect) validate(nodes int) error {
	if ic.Dispatch < 0 || ic.IntraBoard < 0 || ic.InterNode < 0 {
		return fmt.Errorf("cluster: Interconnect latencies must be >= 0 (Dispatch %v, IntraBoard %v, InterNode %v)",
			ic.Dispatch, ic.IntraBoard, ic.InterNode)
	}
	if !ic.Enabled() {
		return nil
	}
	if d := max(ic.Dispatch, ic.IntraBoard, ic.InterNode); d > maxHop {
		// Checked first: a sum of such components can wrap negative.
		return fmt.Errorf("cluster: Interconnect latency %v is above the %v hop ceiling", d, maxHop)
	}
	for i := 0; i < nodes; i++ {
		switch d := ic.NodeLatency(i); {
		case d <= 0:
			return fmt.Errorf("cluster: enabled Interconnect needs a positive hop latency to every node (node %d: %v); give Dispatch or the node's hop class a positive value", i, d)
		case d > maxHop:
			return fmt.Errorf("cluster: Interconnect hop to node %d is %v, above the %v ceiling", i, d, maxHop)
		}
	}
	return nil
}
