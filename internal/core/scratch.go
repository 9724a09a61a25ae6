package core

// Scratch is the reusable working state of the MatchJoin engines: the
// seeded pair/distance buffers, the per-edge CSR indexes (offset arrays
// built by counting sort), alive bitsets, support and failure counters,
// and the kill worklist. Everything is carved from bump arenas reclaimed
// wholesale between queries, so a pooled engine answers repeated queries
// without allocating working state; only the Result (which outlives the
// call) is heap-allocated. Arenas are single-goroutine, as is every
// MatchJoin call.

import (
	"graphviews/internal/arena"
	"graphviews/internal/bitset"
	"graphviews/internal/graph"
	"graphviews/internal/simulation"
)

// kill records that node match (u, v) lost support and must cascade.
type kill struct {
	u int
	v graph.NodeID
}

// Scratch holds recyclable MatchJoin working state. The zero value is
// ready to use.
type Scratch struct {
	i32   arena.Arena[int32]
	words arena.Arena[uint64]
	pairs arena.Arena[simulation.Pair]
	kills []kill
}

// Reset reclaims the arenas for a new query.
func (sc *Scratch) Reset() {
	sc.i32.Reset()
	sc.words.Reset()
	sc.pairs.Reset()
}

// bits returns a cleared n-bit set from the word arena.
func (sc *Scratch) bits(n int) bitset.Set {
	return bitset.FromWords(sc.words.Make(bitset.Words(n)))
}

// takeKills returns the (empty) kill worklist; giveKills returns it so
// the grown capacity is kept for the next query.
func (sc *Scratch) takeKills() []kill { return sc.kills[:0] }
func (sc *Scratch) giveKills(k []kill) {
	if cap(k) > cap(sc.kills) {
		sc.kills = k
	}
}

// ScratchPool pools Scratches across the queries of one Engine (see
// arena.Pool for the Get/Put and nil-pool contracts), making its
// steady-state answer path allocation-free.
type ScratchPool = arena.Pool[Scratch, *Scratch]

// NewScratchPool returns an empty pool.
func NewScratchPool() *ScratchPool {
	return arena.NewPool[Scratch]()
}
