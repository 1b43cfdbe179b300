package serve

import (
	"math/rand"
	"slices"
	"testing"

	"github.com/tintmalloc/tintmalloc/internal/phys"
	"github.com/tintmalloc/tintmalloc/internal/topology"
)

// Reference models for the occupancy-bitmap searches: the per-cell
// loops popMatch, popUnassigned and popAnyParked ran before the
// bitmap. They probe every candidate (bank, LLC) bucket in order
// through its stripe (takeBucket, which never reads the bitmap) and
// ask the mapping's ComboCompatible per cell, so they define the pick
// order the word scans must reproduce.

func popMatchModel(sh *shard, c *Client, seq uint64, s *Server) (phys.Frame, bool) {
	switch {
	case c.usingBank && c.usingLLC:
		banks := c.banksOn(sh.node)
		nb, nl := len(banks), len(c.llcColors)
		if nb == 0 {
			return 0, false
		}
		total := nb * nl
		start := int(seq % uint64(total))
		for i := 0; i < total; i++ {
			k := (start + i) % total
			bc := banks[k/nl]
			lc := c.llcColors[k%nl]
			if !s.mapping.ComboCompatible(bc, lc) {
				continue
			}
			if f, ok := sh.takeBucket(sh.localOf[bc]*sh.nLLC + lc); ok {
				return f, true
			}
		}
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
				if f, ok := sh.takeBucket(li*sh.nLLC + (ls+j)%sh.nLLC); ok {
					return f, true
				}
			}
		}
	default:
		nl := len(c.llcColors)
		ls := int(seq % uint64(nl))
		for i := 0; i < nl; i++ {
			lc := c.llcColors[(ls+i)%nl]
			bs := int(seq % uint64(len(sh.banks)))
			for j := range sh.banks {
				li := (bs + j) % len(sh.banks)
				if f, ok := sh.takeBucket(li*sh.nLLC + lc); ok {
					return f, true
				}
			}
		}
	}
	return 0, false
}

func popUnassignedModel(sh *shard, c *Client, s *Server) (phys.Frame, bool) {
	for li, bc := range sh.banks {
		if s.assignedBank[bc].Load() != 0 {
			continue
		}
		for _, lc := range c.llcColors {
			if f, ok := sh.takeBucket(li*sh.nLLC + lc); ok {
				return f, true
			}
		}
		for lc := 0; lc < sh.nLLC; lc++ {
			if f, ok := sh.takeBucket(li*sh.nLLC + lc); ok {
				return f, true
			}
		}
	}
	for lc := 0; lc < sh.nLLC; lc++ {
		if s.assignedLLC[lc].Load() != 0 {
			continue
		}
		for li := range sh.banks {
			if f, ok := sh.takeBucket(li*sh.nLLC + lc); ok {
				return f, true
			}
		}
	}
	return 0, false
}

func popAnyParkedModel(sh *shard) (phys.Frame, bool) {
	for b := range sh.lists {
		if f, ok := sh.takeBucket(b); ok {
			return f, true
		}
	}
	return 0, false
}

// checkOccupancy fails unless every shard's occupancy bit is set iff
// its bucket's list is non-empty (the test runs single-threaded).
func checkOccupancy(t *testing.T, s *Server) {
	t.Helper()
	for _, sh := range s.shards {
		for b := range sh.lists {
			w, bit := sh.occBit(b)
			if set, nonEmpty := w.Load()&bit != 0, len(sh.lists[b]) > 0; set != nonEmpty {
				t.Fatalf("shard %d bucket %d: occupancy bit %v, list length %d", sh.node, b, set, len(sh.lists[b]))
			}
		}
		for w := range sh.occ {
			if hi := len(sh.lists) - w<<6; hi < 64 && sh.occ[w].Load()>>uint(hi) != 0 {
				t.Fatalf("shard %d: occupancy word %d has bits past the last bucket", sh.node, w)
			}
		}
	}
}

// occupancyMappings are the mapping shapes the equivalence tests run
// under: every combination populated, Opteron-sparse compatibility,
// and 7 LLC bits (128 colors, so an occupancy row spans two words)
// with a bank bit shared with an LLC bit.
func occupancyMappings(t *testing.T, nodes int) map[string]*phys.Mapping {
	t.Helper()
	const mem = 64 << 20
	out := map[string]*phys.Mapping{}
	add := func(name string, m *phys.Mapping, err error) {
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		out[name] = m
	}
	m, err := phys.DefaultSeparable(mem, nodes)
	add("separable", m, err)
	m, err = phys.OpteronOverlapped(mem, nodes)
	add("overlapped", m, err)
	m, err = phys.NewMapping(phys.MappingConfig{
		MemBytes: mem, Nodes: nodes,
		ChannelBits: []uint{23}, RankBits: []uint{22}, BankBits: []uint{16, 19, 20},
		LLCBits:  []uint{12, 13, 14, 15, 16, 17, 18},
		RowShift: 14,
	})
	add("llc7", m, err)
	return out
}

// randomSubset returns k random draws from [lo, hi), duplicates
// included on purpose: SetColors must normalize them.
func randomSubset(rng *rand.Rand, lo, hi, k int) []int {
	out := make([]int, k)
	for i := range out {
		out[i] = lo + rng.Intn(hi-lo)
	}
	return out
}

// TestOccupancyScanMatchesModel drives two identical servers through
// the same random sequence of parks and pops, one searching with the
// occupancy-bitmap scans and one with the per-cell reference loops,
// and requires the identical frame (or the identical miss) at every
// pop: all three claim shapes through popMatch at random cursors and
// shards, plus popUnassigned and popAnyParked, with some colors left
// unclaimed so the borrow rungs have something to find.
func TestOccupancyScanMatchesModel(t *testing.T) {
	top := topology.Opteron6128()
	for name, m := range occupancyMappings(t, top.Nodes()) {
		t.Run(name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(7))
			scan, err := New(top, m, Config{})
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(scan.Close)
			model, err := New(top, m, Config{})
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(model.Close)

			perNode := m.BanksPerNode()
			nLLC := m.NumLLCColors()
			// edges are the LLC colors whose buckets sit at an
			// occupancy word's first or last bit (with 128 colors a
			// row spans two words), so scans start on word edges.
			edges := []int{0, 63 % nLLC, 64 % nLLC, nLLC - 1}
			var scanC, modelC []*Client
			var firstBank, firstLLC []int
			for i := 0; i < 12; i++ {
				node := rng.Intn(top.Nodes())
				core := top.CoresOfNode(topology.NodeID(node))[0]
				var bank, llc []int
				switch {
				case i == 9: // client 0's claim, reversed and repeated: the same interned claim
					bank = append(slices.Clone(firstBank), firstBank[0])
					slices.Reverse(bank)
					llc = append(slices.Clone(firstLLC), firstLLC...)
					slices.Reverse(llc)
				case i >= 10: // word-edge claims; clients 10 and 11 share one
					bank = []int{perNode - 1, 0, 1, 2, 5}
					llc = edges
				case i%3 == 0: // MEM+LLC, occasionally spanning two nodes
					bank = randomSubset(rng, node*perNode, (node+1)*perNode, 1+rng.Intn(6))
					if rng.Intn(3) == 0 {
						other := (node + 1) % top.Nodes()
						bank = append(bank, randomSubset(rng, other*perNode, (other+1)*perNode, 2)...)
					}
					llc = randomSubset(rng, 0, nLLC/2, 1+rng.Intn(8))
					if i == 0 {
						firstBank, firstLLC = bank, llc
					}
				case i%3 == 1: // bank only
					bank = randomSubset(rng, node*perNode, node*perNode+perNode/2, 1+rng.Intn(4))
				default: // LLC only
					llc = randomSubset(rng, 0, nLLC/2, 1+rng.Intn(6))
				}
				for _, pair := range []struct {
					s  *Server
					cs *[]*Client
				}{{scan, &scanC}, {model, &modelC}} {
					c, err := pair.s.NewClient(core)
					if err != nil {
						t.Fatal(err)
					}
					if err := c.SetColors(bank, llc); err != nil {
						t.Fatal(err)
					}
					*pair.cs = append(*pair.cs, c)
				}
			}

			// matching[i] lists the frames client i's claim covers, so
			// parks keep its buckets from running dry under its pops.
			matching := make([][]phys.Frame, len(scanC))
			for f := phys.Frame(0); uint64(f) < m.Frames(); f++ {
				bc, lc := m.FrameBankColor(f), m.FrameLLCColor(f)
				for i, c := range scanC {
					bankOK := !c.usingBank || c.OwnsBankColor(bc)
					llcOK := !c.usingLLC || c.OwnsLLCColor(lc)
					local := c.usingBank || m.NodeOfFrame(f) == c.nodeOrder[0]
					if bankOK && llcOK && local {
						matching[i] = append(matching[i], f)
					}
				}
			}
			parked := make(map[phys.Frame]bool)
			var pops, hits int
			for op := 0; op < 40000; op++ {
				ci := rng.Intn(len(scanC))
				if rng.Intn(2) == 0 {
					// Park, half the time onto the client's claim. The
					// per-shard cap keeps occupancy sparse, so buckets
					// keep emptying and refilling across the run.
					f := phys.Frame(rng.Int63n(int64(m.Frames())))
					if rng.Intn(2) == 0 && len(matching[ci]) > 0 {
						f = matching[ci][rng.Intn(len(matching[ci]))]
					}
					node := m.NodeOfFrame(f)
					if !parked[f] && scan.shards[node].parkedN.Load() < 400 {
						parked[f] = true
						scan.shards[node].park(f, scan)
						model.shards[node].park(f, model)
					}
					continue
				}
				// Pop on the shard the allocation would be routed to,
				// or now and then on any shard (claims with no bank
				// there included).
				seq := rng.Uint64() % 4096
				node := scan.routeShard(scanC[ci], seq).node
				if rng.Intn(4) == 0 {
					node = rng.Intn(top.Nodes())
				}
				rs, ms := scan.shards[node], model.shards[node]
				var got, want phys.Frame
				var gotOK, wantOK bool
				kind := rng.Intn(4)
				switch kind {
				case 0, 1:
					got, gotOK = rs.popMatch(scanC[ci], seq)
					want, wantOK = popMatchModel(ms, modelC[ci], seq, model)
				case 2:
					got, gotOK = rs.popUnassigned(scanC[ci], scan)
					want, wantOK = popUnassignedModel(ms, modelC[ci], model)
				default:
					got, gotOK = rs.popAnyParked(scan)
					want, wantOK = popAnyParkedModel(ms)
				}
				if got != want || gotOK != wantOK {
					t.Fatalf("op %d (kind %d, client %d %v/%v, seq %d, shard %d): scan popped (%d,%v), model (%d,%v)",
						op, kind, ci, scanC[ci].bankColors, scanC[ci].llcColors, seq, node, got, gotOK, want, wantOK)
				}
				pops++
				if gotOK {
					hits++
					delete(parked, got)
				}
				if op%1000 == 0 {
					checkOccupancy(t, scan)
					checkOccupancy(t, model)
				}
			}
			if scanC[9].claim != scanC[0].claim || scanC[11].claim != scanC[10].claim {
				t.Fatal("equal claims were not interned as one claimSet")
			}
			checkOccupancy(t, scan)
			if hits < pops/4 || hits == pops {
				t.Fatalf("%d of %d pops hit: the sequence did not mix hits and misses", hits, pops)
			}
		})
	}
}

// rowMaskOf returns the row-sized mask of LLC colors [lo, hi).
func rowMaskOf(nLLC, lo, hi int) []uint64 {
	m := make([]uint64, (nLLC+63)/64)
	for lc := lo; lc < hi; lc++ {
		m[lc>>6] |= 1 << uint(lc&63)
	}
	return m
}

// parkRow parks one frame on every bucket of shard sh's row li that
// can hold one.
func parkRow(s *Server, sh *shard, li int) {
	m := s.mapping
	for f := phys.Frame(0); uint64(f) < m.Frames(); f++ {
		if m.NodeOfFrame(f) == sh.node && sh.localOf[m.FrameBankColor(f)] == li {
			if b := li*sh.nLLC + m.FrameLLCColor(f); len(sh.lists[b]) == 0 {
				sh.park(f, s)
			}
		}
	}
}

// TestPopRowWordBoundaries pins popRow's color mask on rows that share
// a word (32 LLC colors) and rows that span two (128 colors): one
// frame parked on every bucket of the row that can hold one, and
// every window of colors, as a mask, must pop the lowest such color
// inside it; a nil mask is the whole row.
func TestPopRowWordBoundaries(t *testing.T) {
	top := topology.Opteron6128()
	for name, m := range occupancyMappings(t, top.Nodes()) {
		t.Run(name, func(t *testing.T) {
			nLLC := m.NumLLCColors()
			windows := [][2]int{{0, nLLC}, {1, nLLC}, {nLLC - 1, nLLC}, {5, 6}, {0, 1}, {3, 3},
				{nLLC/2 - 1, nLLC/2 + 2}, {63 % nLLC, nLLC}, {17, 29}, {-1, -1}}
			for _, w := range windows {
				s, err := New(top, m, Config{})
				if err != nil {
					t.Fatal(err)
				}
				sh := s.shards[1]
				li := 1 // an odd row: with 32 colors it sits in the word's upper half
				parkRow(s, sh, li)
				mask := rowMaskOf(nLLC, w[0], w[1])
				if w[0] < 0 {
					w, mask = [2]int{0, nLLC}, nil
				}
				want := -1
				for lc := w[0]; lc < w[1]; lc++ {
					if len(sh.lists[li*nLLC+lc]) > 0 {
						want = lc
						break
					}
				}
				f, ok := sh.popRow(li, mask)
				switch {
				case want < 0:
					if ok {
						t.Errorf("window %v popped frame %d, but no bucket in it is occupied", w, f)
					}
				case !ok:
					t.Errorf("window %v popped nothing, want LLC color %d", w, want)
				case m.FrameLLCColor(f) != want:
					t.Errorf("window %v popped LLC color %d, want %d", w, m.FrameLLCColor(f), want)
				}
				checkOccupancy(t, s)
				s.Close()
			}
		})
	}
}

// TestPopMaskedWordBoundaries pins popMasked's start and wrap: with
// one frame parked on every bucket of three rows that can hold one,
// a scan from every start bucket at or next to a word edge, under a
// full mask and under a sparse one, must pop the first occupied
// masked bucket at or after the start, wrapping to the buckets below.
func TestPopMaskedWordBoundaries(t *testing.T) {
	top := topology.Opteron6128()
	for name, m := range occupancyMappings(t, top.Nodes()) {
		t.Run(name, func(t *testing.T) {
			nLLC := m.NumLLCColors()
			s, err := New(top, m, Config{})
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			sh := s.shards[1]
			for _, li := range []int{0, 1, 3} {
				parkRow(s, sh, li)
			}
			buckets := len(sh.lists)
			full := make([]uint64, len(sh.occ))
			sparse := make([]uint64, len(sh.occ))
			for b := 0; b < buckets; b++ {
				full[b>>6] |= 1 << uint(b&63)
				if b%nLLC%3 == 0 && b/nLLC != 1 {
					sparse[b>>6] |= 1 << uint(b&63)
				}
			}
			var starts []int
			for b := 0; b < buckets; b++ {
				if e := b & 63; e <= 1 || e >= 62 {
					starts = append(starts, b)
				}
			}
			for _, mask := range [][]uint64{full, sparse} {
				for _, b0 := range starts {
					want := -1
					for i := 0; i < buckets; i++ {
						b := (b0 + i) % buckets
						if mask[b>>6]>>uint(b&63)&1 != 0 && len(sh.lists[b]) > 0 {
							want = b
							break
						}
					}
					f, ok := sh.popMasked(mask, b0)
					if want < 0 {
						if ok {
							t.Fatalf("start %d popped frame %d, but no masked bucket is occupied", b0, f)
						}
						continue
					}
					if !ok {
						t.Fatalf("start %d popped nothing, want bucket %d", b0, want)
					}
					got := sh.localOf[m.FrameBankColor(f)]*nLLC + m.FrameLLCColor(f)
					if got != want {
						t.Fatalf("start %d popped bucket %d, want %d", b0, got, want)
					}
					sh.park(f, s)
				}
			}
			checkOccupancy(t, s)
		})
	}
}

// TestClaimInterning checks SetColors' claim interning: equal MEM+LLC
// claims, however ordered or repeated, share one claimSet; different
// claims do not; bank-only and LLC-only claims get none; and each
// shard's combination buckets ascend in comboCursor order and its mask
// matches the claim and ComboCompatible bucket by bucket.
func TestClaimInterning(t *testing.T) {
	top := topology.Opteron6128()
	for name, m := range occupancyMappings(t, top.Nodes()) {
		t.Run(name, func(t *testing.T) {
			s, err := New(top, m, Config{})
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			per, nLLC := m.BanksPerNode(), m.NumLLCColors()
			claims := [][2][]int{
				{{0, 1, per + 2}, {0, nLLC - 1, 5}},
				{{per + 2, 1, 0, 1}, {5, 5, nLLC - 1, 0}}, // claim 0, reordered and repeated
				{{0, 1, per + 2}, {0, 5}},
				{{0, 1}, {0, nLLC - 1, 5}},
				{{0, 1, per + 2, 3 * per}, {0, 1, 2, 3, 63 % nLLC, 64 % nLLC, nLLC - 1}},
				{{3}, nil},
				{nil, {3}},
			}
			var cs []*Client
			for _, cl := range claims {
				c, err := s.NewClient(0)
				if err != nil {
					t.Fatal(err)
				}
				if err := c.SetColors(cl[0], cl[1]); err != nil {
					t.Fatal(err)
				}
				cs = append(cs, c)
			}
			if cs[0].claim == nil || cs[1].claim != cs[0].claim {
				t.Fatal("equal claims do not share one claimSet")
			}
			for i := 2; i < 5; i++ {
				for j := 0; j < i; j++ {
					if cs[i].claim == cs[j].claim {
						t.Fatalf("claims %d and %d differ but share a claimSet", i, j)
					}
				}
			}
			if cs[5].claim != nil || cs[6].claim != nil {
				t.Fatal("a bank-only or LLC-only claim was interned")
			}
			if len(s.claims) != 4 {
				t.Fatalf("%d interned claims, want 4", len(s.claims))
			}
			for ci, c := range cs[:5] {
				for n, sh := range s.shards {
					cl := c.claim.shards[n]
					var starts []int32
					for _, bc := range c.bankColors {
						if m.NodeOfBankColor(bc) != n {
							continue
						}
						for _, lc := range c.llcColors {
							starts = append(starts, int32(sh.localOf[bc]*nLLC+lc))
						}
					}
					if !slices.Equal(cl.starts, starts) {
						t.Fatalf("client %d shard %d: starts %v, want %v", ci, n, cl.starts, starts)
					}
					if !slices.IsSorted(starts) {
						t.Fatalf("client %d shard %d: combination buckets %v do not ascend", ci, n, starts)
					}
					if len(starts) == 0 {
						continue
					}
					if len(cl.mask) != len(sh.occ) {
						t.Fatalf("client %d shard %d: mask has %d words, want %d", ci, n, len(cl.mask), len(sh.occ))
					}
					for b := 0; b < 64*len(sh.occ); b++ {
						want := false
						if b < len(sh.lists) {
							bc, lc := sh.banks[b/nLLC], b%nLLC
							want = c.OwnsBankColor(bc) && c.OwnsLLCColor(lc) && m.ComboCompatible(bc, lc)
						}
						if got := cl.mask[b>>6]>>uint(b&63)&1 != 0; got != want {
							t.Fatalf("client %d shard %d bucket %d: mask bit %v, want %v", ci, n, b, got, want)
						}
					}
				}
			}
		})
	}
}
