package dram

import (
	"math"
	"testing"

	"github.com/tintmalloc/tintmalloc/internal/clock"
	"github.com/tintmalloc/tintmalloc/internal/phys"
)

// Layer benchmarks for the DRAM model. Each checks the counters after
// the timed loop, so it fails rather than quietly measuring a
// different path than its name says, and requires 0 allocations per
// access.

// requireNoAllocs fails b if fn allocates.
func requireNoAllocs(b *testing.B, fn func()) {
	b.Helper()
	if n := testing.AllocsPerRun(100, fn); n != 0 {
		b.Fatalf("%v allocations per access, want 0", n)
	}
}

// BenchmarkControllerAccess times one Controller.Access per op on one
// bank, closed loop (each arrival is the previous completion). Refresh
// is pushed out of reach so every timed access takes the row outcome
// the sub-benchmark names.
func BenchmarkControllerAccess(b *testing.B) {
	tm := DefaultTiming()
	tm.RefreshEvery = math.MaxUint64
	for _, bc := range []struct {
		name string
		rows [2]uint64 // rows of even and odd ops
		got  func(Stats) uint64
	}{
		{"row-hit", [2]uint64{7, 7}, func(st Stats) uint64 { return st.RowHits }},
		{"row-conflict", [2]uint64{7, 8}, func(st Stats) uint64 { return st.RowConflicts }},
	} {
		b.Run(bc.name, func(b *testing.B) {
			c, err := NewController(2, 2, 8, tm)
			if err != nil {
				b.Fatal(err)
			}
			t := c.Access(0, 0, 0, bc.rows[1], 0, false)
			c.ResetStats()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				t = c.Access(0, 0, 0, bc.rows[i&1], t, false)
			}
			b.StopTimer()
			if got := bc.got(c.Stats()); got != uint64(b.N) {
				b.Fatalf("%d of %d accesses were %s", got, b.N, bc.name)
			}
			requireNoAllocs(b, func() { t = c.Access(0, 0, 0, bc.rows[0], t, false) })
		})
	}
}

// BenchmarkSystemAccess times System.Access — the address decode plus
// the home controller's access — over a strided sweep of the standard
// 4-node machine's addresses, closed loop.
func BenchmarkSystemAccess(b *testing.B) {
	m, err := phys.DefaultSeparable(256<<20, 4)
	if err != nil {
		b.Fatal(err)
	}
	s, err := NewSystem(m, DefaultTiming())
	if err != nil {
		b.Fatal(err)
	}
	// 4099 lines: a prime stride, so the sweep visits every node, bank
	// and row in scattered order.
	const stride = 4099 << phys.LineShift
	var a uint64
	var t clock.Time
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t, _ = s.Access(phys.Addr(a), t, false)
		a = (a + stride) % m.MemBytes()
	}
	b.StopTimer()
	if got := s.TotalStats().Accesses; got != uint64(b.N) {
		b.Fatalf("%d controller accesses for %d ops", got, b.N)
	}
	requireNoAllocs(b, func() { t, _ = s.Access(phys.Addr(a), t, false) })
}
