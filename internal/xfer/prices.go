package xfer

import (
	"time"

	"repro/internal/memory"
)

// Prices is one store's switch-in price list, the expert-switching
// latency of the §4.2 cost model: each architecture's uncontended load
// latency by source and destination tier, and the source each expert
// would be fetched from now. The store keeps the sources current as its
// host cache fills and drains; the scheduler reads one expert's row per
// decision.
type Prices struct {
	arch []uint8
	src  []uint8 // a Source each
	lat  [][FromHost + 1][memory.TierSSD]time.Duration
}

// NewPrices returns the price list of experts whose architecture
// indexes are arch (coe.Model.Archs), every one fetched from SSD; price
// gives architecture a's latency from src into dst.
func NewPrices(arch []uint8, price func(a int, src Source, dst memory.Tier) time.Duration) *Prices {
	archs := 0
	for _, a := range arch {
		archs = max(archs, int(a)+1)
	}
	p := &Prices{arch: arch, src: make([]uint8, len(arch)), lat: make([][FromHost + 1][memory.TierSSD]time.Duration, archs)}
	for a := range p.lat {
		for src := range FromHost + 1 {
			for dst := range memory.TierSSD {
				p.lat[a][src][dst] = price(a, src, dst)
			}
		}
	}
	return p
}

// Experts reports the number of experts priced.
func (p *Prices) Experts() int { return len(p.arch) }

// Archs reports the number of architectures priced.
func (p *Prices) Archs() int { return len(p.lat) }

// Source reports where expert id would be fetched from.
func (p *Prices) Source(id int) Source { return Source(p.src[id]) }

// SetSource records where expert id would be fetched from.
func (p *Prices) SetSource(id int, s Source) { p.src[id] = uint8(s) }

// Row returns expert id's architecture index and its switch-in latency
// into each tier from its current source. The latencies are read-only,
// and valid until the source changes.
func (p *Prices) Row(id int) (arch int, lat *[memory.TierSSD]time.Duration) {
	a := p.arch[id]
	return int(a), &p.lat[a][p.src[id]]
}
