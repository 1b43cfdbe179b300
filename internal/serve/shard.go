package serve

import (
	"fmt"
	"math/bits"
	"sync"
	"sync/atomic"

	"github.com/tintmalloc/tintmalloc/internal/buddy"
	"github.com/tintmalloc/tintmalloc/internal/kernel"
	"github.com/tintmalloc/tintmalloc/internal/phys"
)

// shard is one NUMA node's slice of the serving layer: the node's
// buddy zone plus the node's columns of the color matrix as
// lock-striped LIFO page stacks. Bank colors are node-disjoint
// (phys.NodeOfBankColor), so no two shards ever hold a bucket for
// the same (bank, LLC) pair and a frame always parks on exactly one
// shard — the disjointness that makes sharding safe.
type shard struct {
	node int
	base phys.Frame // global frame number of the zone's first frame

	zoneMu sync.Mutex
	zone   *buddy.Allocator //tintvet:guardedby zoneMu -- frames are zone-relative; add base

	nLLC    int
	banks   []int // global bank colors owned, sorted
	localOf []int // global bank color -> index in banks, -1 if foreign

	// lists[li*nLLC+lc] is the LIFO stack of parked frames with the
	// shard's li-th bank color and LLC color lc — the node's slice of
	// the paper's color_list matrix. Bucket b is guarded by
	// stripes[b%len(stripes)]; lock order is zoneMu before stripeMu,
	// and no path holds two stripes at once.
	stripes []sync.Mutex
	lists   [][]phys.Frame //tintvet:guardedby stripes
	parkedN atomic.Int64

	// occ is the bucket occupancy bitmap: bit b (word b/64) is set iff
	// lists[b] is non-empty. Bit b changes only under bucket b's
	// stripe, on the list's empty<->non-empty transition; buckets of
	// one word sit under different stripes, hence the atomic Or/And.
	// Readers load it without a stripe (DESIGN.md Sec. 11.6). Row li
	// — bank li's nLLC buckets — starts at bit li*nLLC; nLLC is a
	// power of two, so a row never straddles a word boundary unless it
	// spans whole words.
	occ     []atomic.Uint64
	rowMask uint64 // low min(nLLC, 64) bits: one word of a row

	// loans is the ledger of this shard's frames handed out below
	// preferred placement: a loan lives on its frame's home shard.
	// loanMu is a leaf lock.
	loanMu sync.Mutex
	loans  map[phys.Frame]Loan //tintvet:guardedby loanMu

	// pending counts the misses refilling on this shard right now; it
	// is capped at HighWater (see refill).
	pending atomic.Int32

	refills      atomic.Uint64 // block shatters (Algorithm 2 calls)
	refillFrames atomic.Uint64 // frames moved zone -> color lists
	refillPasses atomic.Uint64 // misses that took the refill path
	rejected     atomic.Uint64 // ErrBusy rejections
}

func newShard(node int, base phys.Frame, zone *buddy.Allocator, m *phys.Mapping, cfg Config) (*shard, error) {
	banks := m.BankColorsOfNode(node)
	localOf := make([]int, m.NumBankColors())
	for i := range localOf {
		localOf[i] = -1
	}
	for i, bc := range banks {
		localOf[bc] = i
	}
	buckets := len(banks) * m.NumLLCColors()
	return &shard{
		node:    node,
		base:    base,
		zone:    zone,
		nLLC:    m.NumLLCColors(),
		banks:   banks,
		localOf: localOf,
		stripes: make([]sync.Mutex, cfg.Stripes),
		lists:   make([][]phys.Frame, buckets),
		occ:     make([]atomic.Uint64, (buckets+63)/64),
		loans:   make(map[phys.Frame]Loan),
		rowMask: ^uint64(0) >> uint(64-min(m.NumLLCColors(), 64)),
	}, nil
}

// occBit returns bucket b's occupancy word and bit.
func (sh *shard) occBit(b int) (*atomic.Uint64, uint64) {
	return &sh.occ[b>>6], 1 << uint(b&63)
}

// rowWord returns word w of row li's occupancy, shifted so bit j is
// bucket li*nLLC + 64*w + j. Bits past the row's end belong to later
// rows: callers mask with rowMask or a row-sized color mask.
func (sh *shard) rowWord(li, w int) uint64 {
	b := li*sh.nLLC + w<<6
	return sh.occ[b>>6].Load() >> uint(b&63)
}

// addLoan records a loan on one of the shard's frames.
func (sh *shard) addLoan(f phys.Frame, l Loan) {
	sh.loanMu.Lock()
	sh.loans[f] = l
	sh.loanMu.Unlock()
}

// settleLoan removes frame f's loan from the ledger.
func (sh *shard) settleLoan(f phys.Frame) {
	sh.loanMu.Lock()
	delete(sh.loans, f)
	sh.loanMu.Unlock()
}

// park pushes a colored frame onto its (bank, LLC) bucket. The frame
// must belong to this shard's node.
func (sh *shard) park(f phys.Frame, s *Server) {
	bc := s.mapping.FrameBankColor(f)
	lc := s.mapping.FrameLLCColor(f)
	b := sh.localOf[bc]*sh.nLLC + lc
	mu := &sh.stripes[b%len(sh.stripes)]
	mu.Lock()
	if len(sh.lists[b]) == 0 {
		w, bit := sh.occBit(b)
		w.Or(bit)
	}
	sh.lists[b] = append(sh.lists[b], f)
	mu.Unlock()
	sh.parkedN.Add(1)
}

// popBucket pops the most recently parked frame of bucket b (the
// kernel's LIFO order, so a lone client sees identical placement to
// the sequential simulator). A clear occupancy bit answers "empty"
// without taking the stripe.
func (sh *shard) popBucket(b int) (phys.Frame, bool) {
	if w, bit := sh.occBit(b); w.Load()&bit == 0 {
		return 0, false
	}
	return sh.takeBucket(b)
}

// takeBucket is popBucket's locked half: the stripe decides, and the
// pop that empties the bucket clears its occupancy bit.
func (sh *shard) takeBucket(b int) (phys.Frame, bool) {
	mu := &sh.stripes[b%len(sh.stripes)]
	mu.Lock()
	l := sh.lists[b]
	if len(l) == 0 {
		mu.Unlock()
		return 0, false
	}
	f := l[len(l)-1]
	sh.lists[b] = l[:len(l)-1]
	if len(l) == 1 {
		w, bit := sh.occBit(b)
		w.And(^bit)
	}
	mu.Unlock()
	sh.parkedN.Add(-1)
	return f, true
}

// popRow pops from the first occupied bucket of row li whose LLC color
// is set in m (every color when m is nil, else a row-sized mask),
// probing in ascending LLC order — the order the per-cell loops it
// replaced visited. A set bit whose pop loses a race is skipped like
// an empty bucket.
func (sh *shard) popRow(li int, m []uint64) (phys.Frame, bool) {
	for w := 0; w<<6 < sh.nLLC; w++ {
		word := sh.rowWord(li, w) & sh.rowMask
		if m != nil {
			word &= m[w]
		}
		for word != 0 {
			j := bits.TrailingZeros64(word)
			word &= word - 1
			if f, ok := sh.popBucket(li*sh.nLLC + w<<6 + j); ok {
				return f, true
			}
		}
	}
	return 0, false
}

// popMasked pops from the first occupied bucket set in mask (one bit
// per bucket, over the shard's occupancy words) at or after bucket
// b0, wrapping to the buckets below b0. A set bit whose pop loses a
// race is skipped like an empty bucket.
func (sh *shard) popMasked(mask []uint64, b0 int) (phys.Frame, bool) {
	w0, low := b0>>6, uint64(1)<<uint(b0&63)-1
	for i := 0; i <= len(mask); i++ {
		w := w0 + i
		if w >= len(mask) {
			w -= len(mask)
		}
		word := sh.occ[w].Load() & mask[w]
		switch i {
		case 0:
			word &^= low
		case len(mask):
			word &= low
		}
		for word != 0 {
			j := bits.TrailingZeros64(word)
			word &= word - 1
			if f, ok := sh.takeBucket(w<<6 + j); ok {
				return f, true
			}
		}
	}
	return 0, false
}

// popMatch pops a parked frame matching the client's color claim,
// rotating the starting combination by seq so successive allocations
// spread across the claim exactly as the kernel's comboCursor does.
func (sh *shard) popMatch(c *Client, seq uint64) (phys.Frame, bool) {
	switch {
	case c.usingBank && c.usingLLC:
		// Bucket index grows with the combination index k (DESIGN.md
		// Sec. 11.6): probing k = start, start+1, ... with wrap-around
		// is scanning the claim's mask from start's bucket on, then
		// wrapping below it.
		cl := &c.claim.shards[sh.node]
		if len(cl.starts) == 0 {
			return 0, false
		}
		return sh.popMasked(cl.mask, int(cl.starts[seq%uint64(len(cl.starts))]))
	case c.usingBank:
		banks := c.banksOn(sh.node)
		if len(banks) == 0 {
			return 0, false
		}
		start := int(seq % uint64(len(banks)))
		for i := range banks {
			li := sh.localOf[banks[(start+i)%len(banks)]]
			ls := int(seq % uint64(sh.nLLC))
			for j := 0; j < sh.nLLC; j++ {
				if f, ok := sh.popBucket(li*sh.nLLC + (ls+j)%sh.nLLC); ok {
					return f, true
				}
			}
		}
	default: // LLC-only claim, served on the client's local shard
		nl := len(c.llcColors)
		ls := int(seq % uint64(nl))
		for i := 0; i < nl; i++ {
			lc := c.llcColors[(ls+i)%nl]
			bs := int(seq % uint64(len(sh.banks)))
			for j := range sh.banks {
				li := (bs + j) % len(sh.banks)
				if f, ok := sh.popBucket(li*sh.nLLC + lc); ok {
					return f, true
				}
			}
		}
	}
	return 0, false
}

// popUnassigned pops a parked frame whose color no client claims —
// the ladder's borrow-a-color rung. Bank-unassigned buckets are
// preferred with the client's own LLC colors first (keeping its
// cache slice), mirroring kernel.popUnassigned; then LLC-unassigned
// columns, column by column.
func (sh *shard) popUnassigned(c *Client, s *Server) (phys.Frame, bool) {
	for li, bc := range sh.banks {
		if s.assignedBank[bc].Load() != 0 {
			continue
		}
		if f, ok := sh.popRow(li, c.llcMask); ok {
			return f, true
		}
		if f, ok := sh.popRow(li, nil); ok {
			return f, true
		}
	}
	// Column pass, 64 LLC colors at a time: OR the rows together to
	// find the occupied columns, then probe each unassigned one bank
	// by bank.
	for w := 0; w<<6 < sh.nLLC; w++ {
		var cols uint64
		for li := range sh.banks {
			cols |= sh.rowWord(li, w)
		}
		cols &= sh.rowMask
		for cols != 0 {
			lc := w<<6 + bits.TrailingZeros64(cols)
			cols &= cols - 1
			if s.assignedLLC[lc].Load() != 0 {
				continue
			}
			for li := range sh.banks {
				if f, ok := sh.popBucket(li*sh.nLLC + lc); ok {
					return f, true
				}
			}
		}
	}
	return 0, false
}

// popAnyParked pops any parked frame regardless of color — the
// ladder's uncolored rungs, spending a colored page when the zones
// are dry — from the lowest occupied bucket.
func (sh *shard) popAnyParked(s *Server) (phys.Frame, bool) {
	if sh.parkedN.Load() == 0 {
		return 0, false
	}
	for w := range sh.occ {
		for word := sh.occ[w].Load(); word != 0; word &= word - 1 {
			if f, ok := sh.popBucket(w<<6 + bits.TrailingZeros64(word)); ok {
				return f, true
			}
		}
	}
	return 0, false
}

// refill serves a miss inline on the allocating goroutine: Algorithm
// 1 calling create_color_list (Algorithm 2) itself, as the kernel's
// allocPagesFor does. Past the high-water mark of concurrent refills
// on the shard it rejects with ErrBusy. Under zoneMu it re-tries the
// color lists before each shatter — a refill the caller queued behind
// may already have parked its color — and breaks one more block only
// while still empty-handed. The borrow ladder runs after zoneMu is
// released, since it locks other shards.
func (sh *shard) refill(c *Client, seq uint64, s *Server) (phys.Frame, kernel.Rung, error) {
	if sh.pending.Add(1) > int32(s.cfg.HighWater) {
		sh.pending.Add(-1)
		sh.rejected.Add(1)
		return 0, kernel.RungNone, ErrBusy
	}
	defer sh.pending.Add(-1)
	sh.refillPasses.Add(1)
	sh.zoneMu.Lock()
	f, ok := sh.popMatch(c, seq)
	for !ok && sh.shatterLocked(s) {
		f, ok = sh.popMatch(c, seq)
	}
	sh.zoneMu.Unlock()
	if ok {
		return f, kernel.RungNone, nil
	}
	if f, rung, ok := s.borrow(c, sh); ok {
		return f, rung, nil
	}
	return 0, kernel.RungNone, ErrNoMemory
}

// reclaim returns an unowned frame to its home shard: parked if the
// colored allocator owns it, buddy zone otherwise. The frame is held
// exclusively by the caller, so a buddy rejection can only mean the
// server's ownership bookkeeping is corrupt — fail loudly rather
// than leak the frame silently.
func (s *Server) reclaim(f phys.Frame) {
	sh := s.shards[s.mapping.NodeOfFrame(f)]
	if s.colored[f].Load() {
		sh.park(f, s)
		return
	}
	sh.zoneMu.Lock()
	err := sh.zone.Free(f-sh.base, 0)
	sh.zoneMu.Unlock()
	if err != nil {
		panic(fmt.Sprintf("serve: reclaim of exclusively-held frame %d rejected: %v", f, err))
	}
}

// shatterLocked (zoneMu held) breaks the smallest free block into
// single pages on their color lists — one create_color_list step of
// Algorithm 2, walking orders low to high exactly as the kernel's
// refill loop does. Reports false when the zone is dry.
func (sh *shard) shatterLocked(s *Server) bool {
	for ord := 0; ord <= buddy.MaxOrder; ord++ {
		head, ok := sh.zone.AllocExact(ord)
		if !ok {
			continue
		}
		sh.refills.Add(1)
		n := phys.Frame(1) << uint(ord)
		for f := sh.base + head; f < sh.base+head+n; f++ {
			s.colored[f].Store(true)
			sh.park(f, s)
		}
		sh.refillFrames.Add(uint64(n))
		return true
	}
	return false
}
