package serve

import (
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

// requireNoBatches fails the benchmark if a refill batch ran after
// before was read: the timed loop left the fast path.
func requireNoBatches(b *testing.B, s *Server, before uint64) {
	b.Helper()
	if got := s.Stats().Batches; got != before {
		b.Fatalf("%d refill batches during the timed loop; it left the fast path", got-before)
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
	requireNoBatches(b, s, before)
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
	requireNoBatches(b, s, before)
}

// BenchmarkAllocBorrowDry times the regime past a client's colored
// supply on a dry zone, as serve_churn drives it: the serve_churn
// machine and MEM+LLC plan, with the node-0 client grown until the
// ladder serves it. Each op is one Alloc that misses the color lists,
// crosses the refill queue, fails the shatter and walks the borrow
// ladder, plus the Free that reparks the borrowed frame — the fast
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
