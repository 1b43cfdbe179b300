package serve

import (
	"errors"
	"testing"

	"github.com/tintmalloc/tintmalloc/internal/kernel"
	"github.com/tintmalloc/tintmalloc/internal/phys"
	"github.com/tintmalloc/tintmalloc/internal/topology"
)

const testMem = 64 << 20

func testServer(t testing.TB, cfg Config) (*Server, *phys.Mapping, *topology.Topology) {
	t.Helper()
	top := topology.Opteron6128()
	m, err := phys.DefaultSeparable(testMem, top.Nodes())
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(top, m, cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	return s, m, top
}

func coloredClient(t testing.TB, s *Server, m *phys.Mapping, top *topology.Topology, node int) *Client {
	t.Helper()
	c, err := s.NewClient(top.CoresOfNode(topology.NodeID(node))[0])
	if err != nil {
		t.Fatal(err)
	}
	// 8 banks x 8 LLC colors x 4 frames per combo = 256 matching
	// frames on the home node; tests that must stay at preferred
	// placement allocate fewer than that.
	banks := m.BankColorsOfNode(node)
	if err := c.SetColors(banks[:8], []int{0, 1, 2, 3, 4, 5, 6, 7}); err != nil {
		t.Fatal(err)
	}
	return c
}

func TestConfigDefaults(t *testing.T) {
	c := Config{}.withDefaults()
	if c.Stripes != 16 {
		t.Errorf("defaults = %+v", c)
	}
	if c.HighWater != 192 {
		t.Errorf("HighWater = %d, want 192", c.HighWater)
	}
	// Explicit settings survive defaulting.
	c = Config{HighWater: 999, Stripes: 2}.withDefaults()
	if c.HighWater != 999 || c.Stripes != 2 {
		t.Errorf("explicit config rewritten: %+v", c)
	}
}

func TestColoredAllocMatchesClaim(t *testing.T) {
	s, m, top := testServer(t, Config{})
	c := coloredClient(t, s, m, top, 0)
	var frames []phys.Frame
	for i := 0; i < 200; i++ {
		f, err := c.Alloc()
		if err != nil {
			t.Fatalf("alloc %d: %v", i, err)
		}
		if !c.OwnsBankColor(m.FrameBankColor(f)) {
			t.Fatalf("frame %d has bank color %d outside claim %v", f, m.FrameBankColor(f), c.BankColors())
		}
		if !c.OwnsLLCColor(m.FrameLLCColor(f)) {
			t.Fatalf("frame %d has LLC color %d outside claim %v", f, m.FrameLLCColor(f), c.LLCColors())
		}
		if m.NodeOfFrame(f) != 0 {
			t.Fatalf("frame %d on node %d, want home node 0", f, m.NodeOfFrame(f))
		}
		frames = append(frames, f)
	}
	st := s.Stats()
	if st.ColoredPages != 200 || st.DegradedAllocs() != 0 {
		t.Errorf("stats = %+v", st)
	}
	if st.Refills == 0 {
		t.Error("no block shatters recorded for colored allocations")
	}
	for _, f := range frames {
		if err := c.Free(f); err != nil {
			t.Fatalf("free %d: %v", f, err)
		}
	}
	if st := s.Stats(); st.Frees != 200 || st.Loans != 0 {
		t.Errorf("after frees: %+v", st)
	}
}

func TestUncoloredAllocStaysLocal(t *testing.T) {
	s, m, top := testServer(t, Config{})
	c, err := s.NewClient(top.CoresOfNode(2)[0])
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		f, err := c.Alloc()
		if err != nil {
			t.Fatal(err)
		}
		if m.NodeOfFrame(f) != 2 {
			t.Fatalf("uncolored frame %d on node %d, want local node 2", f, m.NodeOfFrame(f))
		}
	}
	if st := s.Stats(); st.DefaultAllocs != 100 {
		t.Errorf("DefaultAllocs = %d, want 100", st.DefaultAllocs)
	}
}

// Per-shard determinism: the same single-client request sequence on
// two fresh servers hands out the same frames in the same order.
func TestSingleClientDeterministic(t *testing.T) {
	run := func() []phys.Frame {
		s, m, top := testServer(t, Config{})
		c := coloredClient(t, s, m, top, 1)
		var out []phys.Frame
		for i := 0; i < 300; i++ {
			f, err := c.Alloc()
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, f)
			if i%3 == 0 {
				if err := c.Free(f); err != nil {
					t.Fatal(err)
				}
			}
		}
		return out
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("alloc %d differs between identical runs: %d vs %d", i, a[i], b[i])
		}
	}
}

func TestBackpressureErrBusy(t *testing.T) {
	s, m, top := testServer(t, Config{HighWater: 4})
	c := coloredClient(t, s, m, top, 0)
	// Saturate the home shard's refill counter by hand: the next miss
	// must be rejected without taking the zone lock.
	sh := s.routeShard(c, 0)
	sh.pending.Store(int32(s.cfg.HighWater))
	_, err := c.Alloc()
	if !errors.Is(err, ErrBusy) {
		t.Fatalf("Alloc under saturation = %v, want ErrBusy", err)
	}
	if got := s.Stats().Rejected; got != 1 {
		t.Errorf("Rejected = %d, want 1", got)
	}
	sh.pending.Store(0)
	if _, err := c.Alloc(); err != nil {
		t.Fatalf("Alloc after drain: %v", err)
	}
	// Rejection left the counter balanced: pending returns to zero
	// once the successful request completes.
	if got := sh.pending.Load(); got != 0 {
		t.Errorf("pending = %d after quiesce, want 0", got)
	}
}

func TestFreeErrors(t *testing.T) {
	s, m, top := testServer(t, Config{})
	c := coloredClient(t, s, m, top, 0)
	other, err := s.NewClient(top.CoresOfNode(0)[1])
	if err != nil {
		t.Fatal(err)
	}
	f, err := c.Alloc()
	if err != nil {
		t.Fatal(err)
	}
	if err := other.Free(f); !errors.Is(err, ErrNotOwner) {
		t.Errorf("foreign free = %v, want ErrNotOwner", err)
	}
	if err := c.Free(f); err != nil {
		t.Fatalf("owner free: %v", err)
	}
	if err := c.Free(f); !errors.Is(err, ErrNotOwner) {
		t.Errorf("double free = %v, want ErrNotOwner", err)
	}
	if err := c.Free(phys.Frame(m.Frames())); err == nil {
		t.Error("out-of-range free succeeded")
	}
}

func TestSetColorsValidation(t *testing.T) {
	s, m, top := testServer(t, Config{})
	c, err := s.NewClient(top.CoresOfNode(0)[0])
	if err != nil {
		t.Fatal(err)
	}
	if err := c.SetColors([]int{m.NumBankColors()}, nil); err == nil {
		t.Error("out-of-range bank color accepted")
	}
	if err := c.SetColors(nil, []int{-1}); err == nil {
		t.Error("negative LLC color accepted")
	}
	if err := c.SetColors([]int{0}, []int{0}); err != nil {
		t.Fatal(err)
	}
	if err := c.SetColors([]int{1}, nil); err == nil {
		t.Error("second SetColors accepted")
	}
}

// A claim listing a color twice is the claim listing it once: same
// owned colors, same assignment counts for the borrow ladder, and the
// same frame at every allocation (duplicates used to inflate the
// combination count, so the rotating cursor drifted by the fourth
// allocation).
func TestSetColorsDeduplicates(t *testing.T) {
	run := func(bank, llc []int) (*Server, *Client, []phys.Frame) {
		s, _, top := testServer(t, Config{})
		c, err := s.NewClient(top.CoresOfNode(0)[0])
		if err != nil {
			t.Fatal(err)
		}
		if err := c.SetColors(bank, llc); err != nil {
			t.Fatal(err)
		}
		var out []phys.Frame
		for i := 0; i < 16; i++ {
			f, err := c.Alloc()
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, f)
		}
		return s, c, out
	}
	sd, cd, dup := run([]int{2, 1, 2}, []int{0, 2, 1, 2, 2})
	_, _, plain := run([]int{1, 2}, []int{0, 1, 2})
	for i := range plain {
		if dup[i] != plain[i] {
			t.Fatalf("alloc %d: duplicate claim placed frame %d, plain claim %d", i, dup[i], plain[i])
		}
	}
	if got := cd.BankColors(); len(got) != 2 || got[0] != 1 || got[1] != 2 {
		t.Errorf("BankColors = %v, want [1 2]", got)
	}
	if got := cd.LLCColors(); len(got) != 3 {
		t.Errorf("LLCColors = %v, want [0 1 2]", got)
	}
	if n := sd.assignedBank[2].Load(); n != 1 {
		t.Errorf("bank color 2 counted %d times, want 1", n)
	}
	if n := sd.assignedLLC[2].Load(); n != 1 {
		t.Errorf("LLC color 2 counted %d times, want 1", n)
	}
}

// DisableBorrow is the paper-faithful fail-hard mode: once the home
// shard runs out of claim-matching pages the client gets ErrNoMemory,
// even though other shards still hold free frames.
func TestDisableBorrowFailsHard(t *testing.T) {
	s, m, top := testServer(t, Config{DisableBorrow: true})
	c := coloredClient(t, s, m, top, 0)
	var got int
	for {
		_, err := c.Alloc()
		if err != nil {
			if !errors.Is(err, ErrNoMemory) {
				t.Fatalf("alloc %d: %v", got, err)
			}
			break
		}
		got++
		if uint64(got) > m.Frames() {
			t.Fatal("allocated more frames than the machine has")
		}
	}
	if got == 0 {
		t.Fatal("no allocations before exhaustion")
	}
	// The rest of the machine still has memory; only borrowing was off.
	if st := s.Stats(); st.FreeFrames+st.Parked == 0 {
		t.Error("machine fully drained despite DisableBorrow")
	} else if st.DegradedAllocs() != 0 {
		t.Errorf("borrows recorded with DisableBorrow: %+v", st.Borrows)
	}
}

// With borrowing on, the ladder keeps serving past the claim: first
// unassigned local colors, then local uncolored, then remote shards;
// every below-preferred frame carries a loan until freed.
func TestBorrowLadderServesPastClaim(t *testing.T) {
	s, m, top := testServer(t, Config{})
	c := coloredClient(t, s, m, top, 0)
	var frames []phys.Frame
	for {
		f, err := c.Alloc()
		if err != nil {
			if !errors.Is(err, ErrNoMemory) {
				t.Fatal(err)
			}
			break
		}
		frames = append(frames, f)
		if uint64(len(frames)) > m.Frames() {
			t.Fatal("allocated more frames than the machine has")
		}
	}
	if uint64(len(frames)) != m.Frames() {
		t.Fatalf("served %d frames before ErrNoMemory, want all %d", len(frames), m.Frames())
	}
	// A single client exercises the borrow-unassigned-color rung (the
	// home node past the claim) and the remote rung (other nodes).
	// RungLocalUncolored needs a bucket whose bank and LLC colors are
	// both claimed by *different* clients, which one client cannot
	// produce — the hammer test covers it.
	st := s.Stats()
	if st.Borrows[kernel.RungBorrowColor] == 0 || st.Borrows[kernel.RungRemote] == 0 {
		t.Errorf("ladder rungs unused: %+v", st.Borrows)
	}
	if st.Loans == 0 {
		t.Error("no loans recorded for degraded allocations")
	}
	for _, f := range frames {
		if err := c.Free(f); err != nil {
			t.Fatal(err)
		}
	}
	if st := s.Stats(); st.Loans != 0 {
		t.Errorf("loans outstanding after freeing everything: %d", st.Loans)
	}
}

// TestLoanLedgerPerShard checks that each loan lives on its frame's
// home shard: Stats.Loans sums the shard ledgers, VisitLoans runs in
// ascending frame order across shards, and CompactShard(i) works from
// shard i's ledger alone.
func TestLoanLedgerPerShard(t *testing.T) {
	s, m, top := testServer(t, Config{})
	clients := []*Client{coloredClient(t, s, m, top, 0), coloredClient(t, s, m, top, 1)}
	held := make([][]phys.Frame, len(clients))
	for i, c := range clients {
		for range 320 { // 256 preferred frames, then the ladder
			f, err := c.Alloc()
			if err != nil {
				t.Fatal(err)
			}
			held[i] = append(held[i], f)
		}
	}
	ledger := func(sh *shard) map[phys.Frame]Loan {
		sh.loanMu.Lock()
		defer sh.loanMu.Unlock()
		out := make(map[phys.Frame]Loan, len(sh.loans))
		for f, l := range sh.loans {
			out[f] = l
		}
		return out
	}
	total := 0
	for _, sh := range s.shards {
		for f, l := range ledger(sh) {
			if n := m.NodeOfFrame(f); n != sh.node {
				t.Fatalf("loan of frame %d (node %d) on shard %d's ledger", f, n, sh.node)
			}
			if s.LoanRungMirror(f) != l.Rung {
				t.Fatalf("loan of frame %d at rung %v, mirror %v", f, l.Rung, s.LoanRungMirror(f))
			}
			total++
		}
	}
	if n0, n1 := len(ledger(s.shards[0])), len(ledger(s.shards[1])); n0 == 0 || n1 == 0 {
		t.Fatalf("loans on shards 0 and 1: %d and %d, want both > 0", n0, n1)
	}
	if got := s.Stats().Loans; got != total {
		t.Fatalf("Stats.Loans = %d, shard ledgers hold %d", got, total)
	}
	visited, prev := 0, phys.Frame(0)
	s.VisitLoans(func(f phys.Frame, clientID int, rung kernel.Rung) {
		if visited > 0 && f <= prev {
			t.Fatalf("VisitLoans visited frame %d after %d", f, prev)
		}
		l, ok := ledger(s.shards[m.NodeOfFrame(f)])[f]
		if !ok || l.Client.id != clientID || l.Rung != rung {
			t.Fatalf("VisitLoans reported frame %d (client %d, rung %v), ledger has %+v", f, clientID, rung, l)
		}
		visited++
		prev = f
	})
	if visited != total {
		t.Fatalf("VisitLoans visited %d loans, want %d", visited, total)
	}

	// With no relocator a pass skips every loan it sees: exactly shard
	// 1's. Then, with relocators and four preferred frames of each
	// client freed, a pass on shard 1 moves four of client 1's loans and
	// leaves shard 0's ledger as it was.
	loans0, loans1 := ledger(s.shards[0]), ledger(s.shards[1])
	if res := s.CompactShard(1, 1000); res.Skipped != len(loans1) || res.Moved+res.Declined != 0 {
		t.Fatalf("CompactShard(1) = %+v, want %d skipped", res, len(loans1))
	}
	for i, c := range clients {
		c.SetRelocator(func(old, new phys.Frame) bool { return true })
		for _, f := range held[i][:4] {
			if err := c.Free(f); err != nil {
				t.Fatal(err)
			}
		}
	}
	if res := s.CompactShard(1, 1000); res.Moved != 4 {
		t.Fatalf("CompactShard(1) = %+v, want 4 moved", res)
	}
	if got := ledger(s.shards[1]); len(got) != len(loans1)-4 {
		t.Fatalf("shard 1 holds %d loans after moving 4 of %d", len(got), len(loans1))
	}
	if got := ledger(s.shards[0]); len(got) != len(loans0) {
		t.Fatalf("shard 0's ledger went from %d to %d loans on a shard 1 pass", len(loans0), len(got))
	}
	for f := range loans0 {
		if _, ok := ledger(s.shards[0])[f]; !ok {
			t.Fatalf("loan of frame %d left shard 0's ledger on a shard 1 pass", f)
		}
	}
}

func TestClosedServerRejects(t *testing.T) {
	s, m, top := testServer(t, Config{})
	c := coloredClient(t, s, m, top, 0)
	s.Close()
	if _, err := c.Alloc(); !errors.Is(err, ErrClosed) {
		t.Errorf("Alloc after Close = %v, want ErrClosed", err)
	}
	if _, err := s.NewClient(top.CoresOfNode(0)[2]); !errors.Is(err, ErrClosed) {
		t.Errorf("NewClient after Close = %v, want ErrClosed", err)
	}
	s.Close() // idempotent
}

// A block shatter parks many pages at once, so the allocations after
// a refill hit the color lists: shatters never outnumber refill
// requests.
func TestRefillAmortizes(t *testing.T) {
	s, m, top := testServer(t, Config{})
	c := coloredClient(t, s, m, top, 3)
	for i := 0; i < 400; i++ {
		if _, err := c.Alloc(); err != nil {
			t.Fatal(err)
		}
	}
	st := s.Stats()
	if st.Batches == 0 || st.BatchedReqs != st.Batches {
		t.Errorf("refill pass counters inconsistent: %+v", st)
	}
	if st.RefillFrames < st.Refills {
		t.Errorf("refill counters inconsistent: %+v", st)
	}
	// A shatter parks 2^order frames at once, so misses per shatter
	// amortize well below one-to-one.
	if st.Refills > st.BatchedReqs {
		t.Errorf("refills %d exceed refill requests %d: no amortization", st.Refills, st.BatchedReqs)
	}
}
