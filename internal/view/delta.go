package view

// The change-feed stage between graph updates and per-view refresh:
// Coalesce collapses an update stream to its net effect per edge, and
// Feed buffers submitted updates so a caller can batch many small
// writes into one propagation pass. internal/serve needs no buffer: it
// applies each logged update batch at once with Maintained.ApplyBatch,
// which coalesces the same way; the benchmark's trace mirror replays
// the server's writes through a Feed.

import "sync"

// Coalesce reduces an update stream to at most one operation per edge:
// later operations on the same (From,To) pair overwrite earlier ones in
// place (the net slot keeps the first occurrence's position), so an
// insert followed by a delete of the same edge cancels to a single
// no-op-or-delete and duplicate inserts dedup. dropped counts the
// overwritten operations. The net batch leaves any graph in the same
// final state as the original stream; only intermediate states (which
// maintenance never observes) differ.
func Coalesce(updates []EdgeUpdate) (net []EdgeUpdate, dropped int) {
	if len(updates) < 2 {
		return updates, 0
	}
	type edgeKey struct{ from, to uint32 }
	idx := make(map[edgeKey]int, len(updates))
	net = make([]EdgeUpdate, 0, len(updates))
	for _, up := range updates {
		k := edgeKey{uint32(up.From), uint32(up.To)}
		if j, ok := idx[k]; ok {
			net[j].Delete = up.Delete
			dropped++
			continue
		}
		idx[k] = len(net)
		net = append(net, up)
	}
	return net, dropped
}

// Feed buffers edge updates ahead of a Maintained, coalescing as they
// arrive, so propagation cost is paid per flush rather than per write.
// Submit and Backlog are safe for concurrent use; Flush applies the
// buffered batch to the Maintained and must be serialized with every
// other writer of it.
type Feed struct {
	m *Maintained

	mu      sync.Mutex
	pending []EdgeUpdate      // guarded by mu
	index   map[[2]uint32]int // guarded by mu
	dropped int               // guarded by mu
}

// NewFeed returns an empty feed in front of m.
func NewFeed(m *Maintained) *Feed {
	return &Feed{m: m, index: make(map[[2]uint32]int)}
}

// Submit coalesces updates into the pending batch and returns the
// backlog (net pending operations) after them.
func (f *Feed) Submit(updates ...EdgeUpdate) int {
	f.mu.Lock()
	defer f.mu.Unlock()
	for _, up := range updates {
		k := [2]uint32{uint32(up.From), uint32(up.To)}
		if j, ok := f.index[k]; ok {
			f.pending[j].Delete = up.Delete
			f.dropped++
			continue
		}
		f.index[k] = len(f.pending)
		f.pending = append(f.pending, up)
	}
	return len(f.pending)
}

// Backlog reports the number of net pending operations.
func (f *Feed) Backlog() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return len(f.pending)
}

// Flush applies the pending batch to the Maintained in one propagation
// pass and resets the buffer, returning the number of updates that
// changed the graph. The buffered operations are already net-per-edge,
// so they go straight to the apply path; the overwrites Submit absorbed
// are credited to MaintStats.CoalescedAway here.
func (f *Feed) Flush() int {
	f.mu.Lock()
	net := f.pending
	dropped := f.dropped
	f.pending = nil
	f.dropped = 0
	clear(f.index)
	f.mu.Unlock()
	if dropped > 0 {
		f.m.Stats.CoalescedAway += dropped
	}
	if len(net) == 0 {
		return 0
	}
	return f.m.applyNet(net)
}
