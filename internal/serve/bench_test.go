package serve

import (
	"runtime"
	"testing"

	"github.com/tintmalloc/tintmalloc/internal/phys"
	"github.com/tintmalloc/tintmalloc/internal/policy"
	"github.com/tintmalloc/tintmalloc/internal/topology"
)

// Layer benchmarks for the serve alloc/free paths. Each one checks the
// shard counters after the timed loop, so it fails rather than quietly
// measuring a different path than its name says.

// fastPathBatch stays under coloredClient's 256-frame claim supply, so
// every timed Alloc is a color-list pop with no refill.
const fastPathBatch = 128

// warmFastPath parks enough of the claim's frames that the next
// fastPathBatch allocations all hit the color lists.
func warmFastPath(b *testing.B) (*Server, *Client) {
	s, m, top := testServer(b, Config{})
	c := coloredClient(b, s, m, top, 0)
	held := make([]phys.Frame, 0, fastPathBatch)
	for i := 0; i < fastPathBatch; i++ {
		f, err := c.Alloc()
		if err != nil {
			b.Fatal(err)
		}
		held = append(held, f)
	}
	freeAll(b, c, held)
	return s, c
}

func freeAll(b *testing.B, c *Client, held []phys.Frame) {
	for _, f := range held {
		if err := c.Free(f); err != nil {
			b.Fatal(err)
		}
	}
}

// requireNoRefills fails the benchmark if a refill pass ran after
// before was read: the timed loop left the fast path.
func requireNoRefills(b *testing.B, s *Server, before uint64) {
	b.Helper()
	if got := s.Stats().Batches; got != before {
		b.Fatalf("%d refill passes during the timed loop; it left the fast path", got-before)
	}
}

// BenchmarkAllocFast times one colored Alloc served from the color
// lists (the striped pop), with the frees that refill the lists
// outside the timer.
func BenchmarkAllocFast(b *testing.B) {
	s, c := warmFastPath(b)
	before := s.Stats().Batches
	held := make([]phys.Frame, 0, fastPathBatch)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if len(held) == fastPathBatch {
			b.StopTimer()
			freeAll(b, c, held)
			held = held[:0]
			b.StartTimer()
		}
		f, err := c.Alloc()
		if err != nil {
			b.Fatal(err)
		}
		held = append(held, f)
	}
	b.StopTimer()
	requireNoRefills(b, s, before)
}

// BenchmarkFree times one Free of a colored frame (the repark), with
// the allocations that supply the frames outside the timer.
func BenchmarkFree(b *testing.B) {
	s, c := warmFastPath(b)
	before := s.Stats().Batches
	held := make([]phys.Frame, 0, fastPathBatch)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if len(held) == 0 {
			b.StopTimer()
			for len(held) < fastPathBatch {
				f, err := c.Alloc()
				if err != nil {
					b.Fatal(err)
				}
				held = append(held, f)
			}
			b.StartTimer()
		}
		if err := c.Free(held[len(held)-1]); err != nil {
			b.Fatal(err)
		}
		held = held[:len(held)-1]
	}
	b.StopTimer()
	requireNoRefills(b, s, before)
}

// BenchmarkAllocBorrowDry times the regime past a client's colored
// supply on a dry zone, as serve_churn drives it: the serve_churn
// machine and MEM+LLC plan, with the node-0 client grown until the
// ladder serves it. Each op is one Alloc that misses the color lists,
// fails the inline shatter and walks the borrow ladder, plus the Free that reparks the borrowed frame — the fast
// repark BenchmarkFree times alone — so every op starts from the same
// state.
func BenchmarkAllocBorrowDry(b *testing.B) {
	top := topology.Opteron6128()
	m, err := phys.DefaultSeparable(256<<20, top.Nodes())
	if err != nil {
		b.Fatal(err)
	}
	s, err := New(top, m, Config{})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(s.Close)
	cores := []topology.CoreID{top.CoresOfNode(0)[0], top.CoresOfNode(1)[0]}
	asn, err := policy.Plan(policy.MEMLLC, m, top, cores)
	if err != nil {
		b.Fatal(err)
	}
	var c *Client
	for i, core := range cores {
		cl, err := s.NewClient(core)
		if err != nil {
			b.Fatal(err)
		}
		if err := cl.SetColors(asn[i].BankColors, asn[i].LLCColors); err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			c = cl
		}
	}
	for s.Stats().DegradedAllocs() == 0 {
		if _, err := c.Alloc(); err != nil {
			b.Fatal(err)
		}
	}
	st := s.Stats()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f, err := c.Alloc()
		if err != nil {
			b.Fatal(err)
		}
		if err := c.Free(f); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	after := s.Stats()
	if got := after.DegradedAllocs() - st.DegradedAllocs(); got != uint64(b.N) {
		b.Fatalf("%d of %d timed allocations borrowed; the loop left the dry regime", got, b.N)
	}
	if after.Refills != st.Refills {
		b.Fatalf("%d block shatters during the timed loop; the zone was not dry", after.Refills-st.Refills)
	}
}

// BenchmarkAllocRefill times the inline refill: each op is one colored
// Alloc whose lists are empty while the zone is not, so it shatters a
// block under zoneMu and pops the page that shatter parked, plus the
// Free that reparks the page. The client claims every color of node 0
// and the zone is cut into single free pages, so every shatter parks
// exactly one page. Outside the timer, each batch's reparked pages go
// back to the zone as single free pages, so every op starts from the
// same state.
func BenchmarkAllocRefill(b *testing.B) {
	s, m, top := testServer(b, Config{})
	sh := s.shards[0]
	half := int(m.Frames()) / m.Nodes() / 2
	grab := func(c *Client, n int) []phys.Frame {
		held := make([]phys.Frame, 0, n)
		for len(held) < n {
			f, err := c.Alloc()
			if err != nil {
				b.Fatal(err)
			}
			held = append(held, f)
		}
		return held
	}
	// An uncolored client takes node 0's whole zone and returns the
	// lower half; the colored client shatters that half and keeps it,
	// so every bucket has held a page (its stack has capacity). Then
	// every other page of the upper half goes back: only single pages
	// stay free.
	u, err := s.NewClient(top.CoresOfNode(0)[1])
	if err != nil {
		b.Fatal(err)
	}
	pages := grab(u, 2*half)
	freeIf := func(keep func(rel int) bool) {
		for _, f := range pages {
			if !keep(int(f - sh.base)) {
				if err := u.Free(f); err != nil {
					b.Fatal(err)
				}
			}
		}
	}
	freeIf(func(rel int) bool { return rel >= half })
	c, err := s.NewClient(top.CoresOfNode(0)[0])
	if err != nil {
		b.Fatal(err)
	}
	if err := c.SetColors(m.BankColorsOfNode(0), allLLC(m)); err != nil {
		b.Fatal(err)
	}
	grab(c, half)
	if sh.parkedN.Load() != 0 {
		b.Fatal("pages left parked after the warm-up")
	}
	freeIf(func(rel int) bool { return rel < half || rel%2 == 1 })
	held := make([]phys.Frame, 0, fastPathBatch)
	// unpark pops the pages the timed Frees reparked and returns them
	// to the zone as free single pages, undoing the batch's shatters.
	unpark := func() {
		for range held {
			f, ok := sh.popMatch(c, 0)
			if !ok {
				b.Fatal("reparked page missing")
			}
			s.colored[f].Store(false)
			sh.zoneMu.Lock()
			err := sh.zone.Free(f-sh.base, 0)
			sh.zoneMu.Unlock()
			if err != nil {
				b.Fatal(err)
			}
		}
		held = held[:0]
	}
	before := s.Stats().Refills
	var ms runtime.MemStats
	var mallocs uint64
	b.ReportAllocs()
	b.ResetTimer()
	for done := 0; done < b.N; {
		b.StopTimer()
		runtime.ReadMemStats(&ms)
		start := ms.Mallocs
		b.StartTimer()
		for n := min(fastPathBatch, b.N-done); len(held) < n; {
			f, err := c.Alloc()
			if err != nil {
				b.Fatal(err)
			}
			held = append(held, f)
		}
		for _, f := range held {
			if err := c.Free(f); err != nil {
				b.Fatal(err)
			}
		}
		b.StopTimer()
		runtime.ReadMemStats(&ms)
		mallocs += ms.Mallocs - start
		done += len(held)
		unpark()
		b.StartTimer()
	}
	b.StopTimer()
	if got := s.Stats().Refills - before; got != uint64(b.N) {
		b.Fatalf("%d block shatters for %d ops; the loop left the one-page refill", got, b.N)
	}
	if !raceEnabled && mallocs != 0 {
		b.Fatalf("%d heap allocations over %d ops, want 0", mallocs, b.N)
	}
}
