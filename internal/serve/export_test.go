package serve

import (
	"github.com/tintmalloc/tintmalloc/internal/kernel"
	"github.com/tintmalloc/tintmalloc/internal/phys"
)

// FlipOccupancyBit toggles shard i's occupancy bit for (bank color
// bc, LLC color lc) without touching the list, so external tests can
// check that the auditor notices an incoherent bitmap.
func FlipOccupancyBit(s *Server, i, bc, lc int) {
	sh := s.shards[i]
	w, bit := sh.occBit(sh.localOf[bc]*sh.nLLC + lc)
	if w.Load()&bit != 0 {
		w.And(^bit)
	} else {
		w.Or(bit)
	}
}

// LockZone and UnlockZone hold shard i's zone lock, so external tests
// can stop allocating clients inside their refill.
func LockZone(s *Server, i int)   { s.shards[i].zoneMu.Lock() }
func UnlockZone(s *Server, i int) { s.shards[i].zoneMu.Unlock() }

// PendingRefills returns the number of refills running on shard i.
func PendingRefills(s *Server, i int) int { return int(s.shards[i].pending.Load()) }

// DropLoanEntry deletes frame f's loan from its shard's ledger and
// leaves the rung mirror set; SetRungMirror marks f in the mirror
// without a ledger entry. External tests use them to check that the
// auditor's check 7 notices drift in either direction.
func DropLoanEntry(s *Server, f phys.Frame)                { s.shards[s.mapping.NodeOfFrame(f)].settleLoan(f) }
func SetRungMirror(s *Server, f phys.Frame, r kernel.Rung) { s.rungOf[f].Store(int32(r) + 1) }
