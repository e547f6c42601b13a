package memory

import "fmt"

// Residency is an expert-major table of which holders hold each expert:
// row id is the expert's stride words, and each holder owns one bit of
// every row (its Slot), so one row answers for all of them. A node's
// Loaded table has a holder per pool, which the pools write and the
// scheduler reads a row of per decision; a fleet's holder table has one
// per node, which the node's pools write and the cluster's router reads
// a row of per pick. A Residency is a view: copies share the table.
type Residency struct {
	words  []uint64
	stride int
}

// Slot is one holder's bit in every row of a Residency: bit Mask of
// word Word.
type Slot struct {
	Word int
	Mask uint64
}

// NewResidency returns an empty table for the given numbers of holders
// and experts.
func NewResidency(holders, experts int) Residency {
	if holders < 1 || experts < 0 {
		panic(fmt.Sprintf("memory: residency of %d holders and %d experts", holders, experts))
	}
	stride := (holders + 63) >> 6
	return Residency{words: make([]uint64, experts*stride), stride: stride}
}

// Slot returns holder i's bit.
func (r Residency) Slot(i int) Slot {
	if i < 0 || i>>6 >= r.stride {
		panic(fmt.Sprintf("memory: holder %d beyond a residency of %d words a row", i, r.stride))
	}
	return Slot{Word: i >> 6, Mask: 1 << (i & 63)}
}

// Experts reports the number of rows.
func (r Residency) Experts() int {
	if r.stride == 0 {
		return 0
	}
	return len(r.words) / r.stride
}

// Row returns expert id's row.
func (r Residency) Row(id int) []uint64 {
	return r.words[id*r.stride : (id+1)*r.stride : (id+1)*r.stride]
}

// Has reports whether the slot's holder holds expert id; an id beyond the
// table is held nowhere.
func (r Residency) Has(id int, s Slot) bool {
	i := uint(id)*uint(r.stride) + uint(s.Word)
	return i < uint(len(r.words)) && r.words[i]&s.Mask != 0
}

// Set records whether the slot's holder holds expert id.
func (r Residency) Set(id int, s Slot, on bool) {
	w := &r.words[id*r.stride+s.Word]
	if on {
		*w |= s.Mask
	} else {
		*w &^= s.Mask
	}
}
