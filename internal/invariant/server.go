package invariant

import (
	"fmt"

	"github.com/tintmalloc/tintmalloc/internal/kernel"
	"github.com/tintmalloc/tintmalloc/internal/phys"
	"github.com/tintmalloc/tintmalloc/internal/serve"
)

// ownerClient extends the owner set for the serving layer, where
// handed-out frames are tracked per client instead of per page table.
const ownerClient = ownerPCP + 1

func ownerLabel(o uint8) string {
	if o == ownerClient {
		return "client"
	}
	return ownerName[o]
}

// AuditServer cross-checks the sharded front-end's bookkeeping the
// way Audit checks the sequential kernel's, with frame ownership
// spread over shards and clients instead of zones and page tables.
// The server must be quiescent (no in-flight Alloc/Free and no
// pending refills) for the walk to be coherent.
//
// Checks 1-3 mirror Audit: color-hash correctness of every parked
// frame against the bit-gather reference, single ownership of every
// frame among {shard buddy zone, shard color list, client}, and
// colored-mark consistency. Check 5's loan rules apply per client.
// Check 6 is the cross-shard invariant the sequential kernel never
// needed:
//
//  6. The shards partition the machine. Every bank color is owned by
//     exactly one shard — the shard of its node — and the shards
//     together cover all bank colors; every frame parked or free on a
//     shard lies in that shard's node range; and every outstanding
//     frame either matches its owner's color claim or carries a loan
//     recording which ladder rung degraded it. A same-node color
//     borrow never holds a color inside another client's claim — the
//     plan-disjointness rule, enforced across shards.
//
// The occupancy check guards the serving layer's search index: each
// shard's occupancy bit for a (bank, LLC) bucket must be set iff the
// bucket's color list holds a frame. Non-emptiness is recomputed
// from the lists themselves, so the bitmap cannot vouch for itself.
// A clear bit over a non-empty list would hide parked frames from
// every search; a set bit over an empty one costs a wasted probe.
func AuditServer(s *serve.Server) *Report {
	m := s.Mapping()
	r := &Report{Frames: m.Frames()}
	owner := make([]uint8, m.Frames())

	// claim records who as f's owner. what describes the claimant; it
	// is called only to word a violation, so a clean audit formats
	// nothing.
	claim := func(f phys.Frame, who uint8, what func() string) {
		if uint64(f) >= r.Frames {
			r.addf("%s holds out-of-range frame %d", what(), f)
			return
		}
		if owner[f] != ownerNone {
			r.addf("frame %d owned by both %s and %s", f, ownerLabel(owner[f]), what())
			return
		}
		owner[f] = who
	}

	// Check 6: shard bank-color ownership partitions the color space.
	bankOwner := make(map[int]int)
	for i := 0; i < s.NumShards(); i++ {
		node := s.ShardNode(i)
		for _, bc := range s.ShardBankColors(i) {
			if prev, dup := bankOwner[bc]; dup {
				r.addf("bank color %d owned by both shard %d and shard %d", bc, prev, i)
				continue
			}
			bankOwner[bc] = i
			if m.NodeOfBankColor(bc) != node {
				r.addf("shard %d (node %d) owns bank color %d, which maps to node %d",
					i, node, bc, m.NodeOfBankColor(bc))
			}
		}
	}
	if len(bankOwner) != m.NumBankColors() {
		r.addf("shards own %d of %d bank colors; the shard map must cover the machine",
			len(bankOwner), m.NumBankColors())
	}

	framesPerNode := m.Frames() / uint64(m.Nodes())
	for i := 0; i < s.NumShards(); i++ {
		node := s.ShardNode(i)
		lo := phys.Frame(uint64(node) * framesPerNode)
		hi := lo + phys.Frame(framesPerNode)
		s.VisitShardFree(i, func(head phys.Frame, order int) {
			for f := head; f < head+phys.Frame(uint64(1)<<order); f++ {
				claim(f, ownerBuddy, func() string { return fmt.Sprintf("shard %d buddy zone", i) })
				r.BuddyFree++
				if f < lo || f >= hi {
					r.addf("shard %d (node %d) zone holds frame %d outside node range [%d,%d)",
						i, node, f, lo, hi)
				}
				if s.ColoredFrame(f) {
					r.addf("colored frame %d returned to shard %d's buddy zone; colored frames must repark", f, i)
				}
			}
		})
		banks := s.ShardBankColors(i)
		row := make(map[int]int, len(banks)) // bank color -> row of nonEmpty
		for li, bc := range banks {
			row[bc] = li
		}
		nonEmpty := make([]bool, len(banks)*m.NumLLCColors())
		s.VisitShardParked(i, func(bc, lc int, f phys.Frame) {
			claim(f, ownerColorList, func() string { return fmt.Sprintf("shard %d color list [%d][%d]", i, bc, lc) })
			if li, ok := row[bc]; ok && lc >= 0 && lc < m.NumLLCColors() {
				nonEmpty[li*m.NumLLCColors()+lc] = true
			}
			r.Parked++
			if !m.ValidFrame(f) {
				return
			}
			if m.NodeOfFrame(f) != node {
				r.addf("frame %d of node %d parked on shard %d, which serves node %d",
					f, m.NodeOfFrame(f), i, node)
			}
			// Recompute from the bit-gather reference, as Audit does.
			if wantBC, wantLC := m.GatherBankColor(f.Base()), m.GatherLLCColor(f.Base()); wantBC != bc || wantLC != lc {
				r.addf("frame %d parked on shard %d color list [%d][%d] but hashes to (%d,%d) under the mapping",
					f, i, bc, lc, wantBC, wantLC)
			}
			if !s.ColoredFrame(f) {
				r.addf("frame %d parked on shard %d color list [%d][%d] without the colored ownership mark", f, i, bc, lc)
			}
		})
		for li, bc := range banks {
			for lc := 0; lc < m.NumLLCColors(); lc++ {
				if occ, held := s.ShardOccupied(i, bc, lc), nonEmpty[li*m.NumLLCColors()+lc]; occ != held {
					r.addf("shard %d occupancy bit for color list [%d][%d] is %v, but the list holds frames: %v",
						i, bc, lc, occ, held)
				}
			}
		}
	}

	clients := s.Clients()
	holder := make(map[phys.Frame]int)
	var held []phys.Frame // ascending, for deterministic violation order
	s.VisitOutstanding(func(f phys.Frame, clientID int) {
		claim(f, ownerClient, func() string { return fmt.Sprintf("client %d", clientID) })
		r.Mapped++
		if clientID >= len(clients) {
			r.addf("frame %d owned by unknown client %d", f, clientID)
			return
		}
		holder[f] = clientID
		held = append(held, f)
	})

	loanOf := make(map[phys.Frame]kernel.Rung)
	s.VisitLoans(func(f phys.Frame, clientID int, rung kernel.Rung) {
		r.Loans++
		loanOf[f] = rung
		// Check 7, serve side: the flat rung mirror — what Free and the
		// compactor consult — must agree with the ledger entry.
		if rung < 0 || rung >= kernel.NumRungs {
			r.addf("loan of frame %d carries invalid rung %d", f, rung)
		}
		if got := s.LoanRungMirror(f); got != rung {
			r.addf("loan of frame %d at rung %s but the rung mirror holds %s", f, rung, got)
		}
		if got, ok := holder[f]; !ok {
			r.addf("loan of frame %d to client %d (rung %s) is dangling: frame not outstanding", f, clientID, rung)
		} else if got != clientID {
			r.addf("loan of frame %d recorded for client %d but the frame is held by client %d", f, clientID, got)
		}
		if rung != kernel.RungBorrowColor || clientID >= len(clients) {
			return
		}
		// Same rule as Audit check 5: a color borrow must not sit
		// inside another client's private claim. Uncolored borrowers
		// make no color claim and are skipped.
		c := clients[clientID]
		if !c.UsingBank() && !c.UsingLLC() {
			return
		}
		bc, lc := m.FrameBankColor(f), m.FrameLLCColor(f)
		for _, o := range clients {
			if o.ID() == clientID {
				continue
			}
			if c.UsingBank() && o.OwnsBankColor(bc) {
				r.addf("frame %d borrowed by client %d carries bank color %d, which is assigned to client %d",
					f, clientID, bc, o.ID())
			}
			if !c.UsingBank() && c.UsingLLC() && o.OwnsLLCColor(lc) {
				r.addf("frame %d borrowed by client %d carries LLC color %d, which is assigned to client %d",
					f, clientID, lc, o.ID())
			}
		}
	})

	// Check 6, ownership half: every outstanding frame either matches
	// its holder's claim or carries a loan naming the rung that
	// degraded it. This is what makes concurrent placement auditable
	// even though the interleaving is not reproducible.
	for _, f := range held {
		clientID := holder[f]
		if _, onLoan := loanOf[f]; onLoan {
			continue
		}
		c := clients[clientID]
		colored := s.ColoredFrame(f)
		claimed := c.UsingBank() || c.UsingLLC()
		switch {
		case colored && claimed:
			bc, lc := m.FrameBankColor(f), m.FrameLLCColor(f)
			if c.UsingBank() && !c.OwnsBankColor(bc) {
				r.addf("frame %d (bank color %d) held by client %d outside its bank claim with no loan recorded",
					f, bc, clientID)
			}
			if c.UsingLLC() && !c.OwnsLLCColor(lc) {
				r.addf("frame %d (LLC color %d) held by client %d outside its LLC claim with no loan recorded",
					f, lc, clientID)
			}
		case colored && !claimed:
			r.addf("colored frame %d held by uncolored client %d with no loan recorded", f, clientID)
		case !colored && claimed:
			r.addf("zone frame %d held by colored client %d with no loan recorded", f, clientID)
		}
	}

	// Check 7's other direction: no mirror entry without a ledger
	// entry — a stale mirror would settle a nonexistent loan on free.
	for f := phys.Frame(0); uint64(f) < m.Frames(); f++ {
		if rung := s.LoanRungMirror(f); rung != kernel.RungNone {
			if _, ok := loanOf[f]; !ok {
				r.addf("rung mirror marks frame %d at rung %s with no loan on the ledger", f, rung)
			}
		}
	}

	for _, o := range owner {
		if o == ownerNone {
			r.Unaccounted++
		}
	}
	return r
}
