package serve

import (
	"sort"
	"sync/atomic"

	"github.com/tintmalloc/tintmalloc/internal/kernel"
	"github.com/tintmalloc/tintmalloc/internal/phys"
	"github.com/tintmalloc/tintmalloc/internal/topology"
)

type serverStats struct {
	allocs, frees                atomic.Uint64
	coloredAllocs, defaultAllocs atomic.Uint64
	borrows                      [kernel.NumRungs]atomic.Uint64
	compactPasses                atomic.Uint64
	compactMoved                 atomic.Uint64
	compactDeclined              atomic.Uint64
}

// Stats is a point-in-time snapshot of serving counters. Counters
// are read individually without a global lock, so a snapshot taken
// under load is approximate; quiesce first for exact numbers.
type Stats struct {
	Allocs        uint64 // successful allocations
	Frees         uint64 // successful frees
	ColoredPages  uint64 // colored allocations at preferred placement
	DefaultAllocs uint64 // uncolored allocations
	Borrows       [kernel.NumRungs]uint64
	Loans         int    // currently outstanding below-preferred frames
	Refills       uint64 // block shatters across all shards
	RefillFrames  uint64 // frames moved zone -> color lists
	Batches       uint64 // refill passes: misses that took the refill path
	BatchedReqs   uint64 // requests served by those passes (one each: a miss refills inline)
	Rejected      uint64 // ErrBusy rejections (backpressure)
	Parked        uint64 // frames currently on color lists
	FreeFrames    uint64 // frames currently in buddy zones

	CompactPasses   uint64 // compaction passes across all shards
	CompactMoved    uint64 // loans migrated home and settled
	CompactDeclined uint64 // swaps refused by client relocators
}

// DegradedAllocs sums the borrow rungs.
func (st Stats) DegradedAllocs() uint64 {
	var n uint64
	for _, b := range st.Borrows {
		n += b
	}
	return n
}

// Stats snapshots the serving counters.
func (s *Server) Stats() Stats {
	st := Stats{
		Allocs:          s.stats.allocs.Load(),
		Frees:           s.stats.frees.Load(),
		ColoredPages:    s.stats.coloredAllocs.Load(),
		DefaultAllocs:   s.stats.defaultAllocs.Load(),
		CompactPasses:   s.stats.compactPasses.Load(),
		CompactMoved:    s.stats.compactMoved.Load(),
		CompactDeclined: s.stats.compactDeclined.Load(),
	}
	for i := range st.Borrows {
		st.Borrows[i] = s.stats.borrows[i].Load()
	}
	for _, sh := range s.shards {
		sh.loanMu.Lock()
		st.Loans += len(sh.loans)
		sh.loanMu.Unlock()
		st.Refills += sh.refills.Load()
		st.RefillFrames += sh.refillFrames.Load()
		passes := sh.refillPasses.Load()
		st.Batches += passes
		st.BatchedReqs += passes
		st.Rejected += sh.rejected.Load()
		st.Parked += uint64(sh.parkedN.Load())
		sh.zoneMu.Lock()
		st.FreeFrames += sh.zone.FreeFrames()
		sh.zoneMu.Unlock()
	}
	return st
}

// The accessors below exist for invariant.AuditServer and tests.
// They take the relevant locks bucket by bucket, so a coherent
// machine-wide snapshot requires the server to be quiescent (no
// concurrent Alloc/Free) — the same contract as kernel.Visit*.

// Mapping returns the physical mapping the server runs over.
func (s *Server) Mapping() *phys.Mapping { return s.mapping }

// Topology returns the machine topology.
func (s *Server) Topology() *topology.Topology { return s.topo }

// NumShards returns the shard count (one per NUMA node).
func (s *Server) NumShards() int { return len(s.shards) }

// ShardNode returns the NUMA node shard i serves.
func (s *Server) ShardNode(i int) int { return s.shards[i].node }

// ShardBankColors returns a copy of the bank colors shard i owns.
func (s *Server) ShardBankColors(i int) []int {
	return append([]int(nil), s.shards[i].banks...)
}

// VisitShardFree visits shard i's buddy free blocks with
// zone-relative heads translated to global frame numbers.
func (s *Server) VisitShardFree(i int, fn func(head phys.Frame, order int)) {
	sh := s.shards[i]
	sh.zoneMu.Lock()
	sh.zone.VisitFreeBlocks(func(head phys.Frame, order int) {
		fn(sh.base+head, order)
	})
	sh.zoneMu.Unlock()
}

// VisitShardParked visits every frame parked on shard i's color
// lists in deterministic bucket-then-LIFO order, with the bucket's
// global bank color and LLC color.
func (s *Server) VisitShardParked(i int, fn func(bc, lc int, f phys.Frame)) {
	sh := s.shards[i]
	// The outer slice is immutable after newShard; each bucket is read
	// under its stripe below.
	for b := range sh.lists { //tintvet:ignore guardedby: outer slice immutable after construction; buckets copied under their stripe
		bc := sh.banks[b/sh.nLLC]
		lc := b % sh.nLLC
		mu := &sh.stripes[b%len(sh.stripes)]
		mu.Lock()
		frames := append([]phys.Frame(nil), sh.lists[b]...)
		mu.Unlock()
		for _, f := range frames {
			fn(bc, lc, f)
		}
	}
}

// ShardOccupied reports shard i's occupancy bit for the bucket of
// global bank color bc (owned by the shard) and LLC color lc. On a
// quiescent server it is set iff that color list is non-empty; the
// auditor checks exactly that against VisitShardParked.
func (s *Server) ShardOccupied(i, bc, lc int) bool {
	sh := s.shards[i]
	w, bit := sh.occBit(sh.localOf[bc]*sh.nLLC + lc)
	return w.Load()&bit != 0
}

// VisitOutstanding visits every handed-out frame in ascending frame
// order with the owning client's ID.
func (s *Server) VisitOutstanding(fn func(f phys.Frame, clientID int)) {
	for f := range s.owners {
		if o := s.owners[f].Load(); o != 0 {
			fn(phys.Frame(f), int(o)-1)
		}
	}
}

// ColoredFrame reports whether the colored allocator owns frame f
// (parked on a color list, or handed out through one).
func (s *Server) ColoredFrame(f phys.Frame) bool { return s.colored[f].Load() }

// VisitLoans visits outstanding loans in ascending frame order. Each
// shard's ledger holds the loans on its own frames, and shards own
// ascending frame ranges, so shard order then frame order is ascending.
func (s *Server) VisitLoans(fn func(f phys.Frame, clientID int, rung kernel.Rung)) {
	type entry struct {
		f phys.Frame
		l Loan
	}
	for _, sh := range s.shards {
		sh.loanMu.Lock()
		loans := make([]entry, 0, len(sh.loans))
		for f, l := range sh.loans {
			loans = append(loans, entry{f, l})
		}
		sh.loanMu.Unlock()
		sort.Slice(loans, func(i, j int) bool { return loans[i].f < loans[j].f })
		for _, e := range loans {
			fn(e.f, e.l.Client.id, e.l.Rung)
		}
	}
}

// Clients returns the registered clients in registration (ID) order.
func (s *Server) Clients() []*Client {
	s.clientMu.Lock()
	out := append([]*Client(nil), s.clients...)
	s.clientMu.Unlock()
	return out
}
