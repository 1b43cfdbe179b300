package serve

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
