package serve

import (
	"errors"
	"testing"

	"github.com/tintmalloc/tintmalloc/internal/phys"
)

// Zero-allocation gates for the serving hot paths (DESIGN.md Sec. 14).
// Both tests drive the public Alloc/Free surface to a deterministic
// steady state and then require exactly 0 allocs/op from
// testing.AllocsPerRun, which counts mallocs from every goroutine.
// The measured loops are repeated manually first because AllocsPerRun
// performs only one warmup run, and one-time amortized costs (such as
// color-bucket capacity) need a few rounds to settle.
//
// The gates assert the shard's refill-pass counter too, so each test
// proves it exercised the path it claims to gate: the fast-path test
// must never refill, the refill test must refill every iteration.

// mustZeroAllocs runs AllocsPerRun and fails unless the loop is
// allocation-free. Under the race detector the instrumentation itself
// allocates, so the gate is skipped (raceEnabled is set by build tag).
func mustZeroAllocs(t *testing.T, name string, loop func()) {
	t.Helper()
	if raceEnabled {
		t.Skipf("%s: AllocsPerRun is meaningless under -race", name)
	}
	// Settle amortized one-time costs before measuring.
	for i := 0; i < 64; i++ {
		loop()
	}
	if n := testing.AllocsPerRun(200, loop); n != 0 {
		t.Errorf("%s: %v allocs/op, want 0", name, n)
	}
}

// TestZeroAllocColoredFastPath gates the colored fast path: a striped
// color-list pop (Alloc) and the matching repark (Free) must not
// allocate once the lists are warm.
func TestZeroAllocColoredFastPath(t *testing.T) {
	s, m, top := testServer(t, Config{})
	c := coloredClient(t, s, m, top, 0)
	sh := s.shards[0]

	// Warm the color lists: a burst of allocations forces refills to
	// park frames across the claim's buckets, and freeing them leaves
	// every bucket at its high-water capacity.
	warm := make([]phys.Frame, 0, 128)
	for i := 0; i < cap(warm); i++ {
		f, err := c.Alloc()
		if err != nil {
			t.Fatalf("warmup alloc %d: %v", i, err)
		}
		warm = append(warm, f)
	}
	for _, f := range warm {
		if err := c.Free(f); err != nil {
			t.Fatalf("warmup free: %v", err)
		}
	}

	passesBefore := sh.refillPasses.Load()
	mustZeroAllocs(t, "colored alloc/free", func() {
		f, err := c.Alloc()
		if err != nil {
			t.Fatalf("alloc: %v", err)
		}
		if err := c.Free(f); err != nil {
			t.Fatalf("free: %v", err)
		}
	})
	if d := sh.refillPasses.Load() - passesBefore; d != 0 {
		t.Fatalf("fast-path loop took %d refill passes; lists were not warm", d)
	}
}

// TestZeroAllocRefillMiss gates the miss path: the high-water check,
// the zone lock, the re-try of the color lists and the failed shatter
// must not allocate at steady state. Node 0 is drained completely under
// DisableBorrow so the first Alloc of every iteration is a guaranteed
// popMatch miss that runs the whole inline refill (and comes back
// ErrNoMemory — the zone is dry and borrowing is off); the iteration
// then frees and re-allocates one held frame so the state entering the
// next iteration is identical. No drift, no ladder, no loan-map
// insert.
func TestZeroAllocRefillMiss(t *testing.T) {
	s, m, top := testServer(t, Config{DisableBorrow: true})
	c, err := s.NewClient(top.CoresOfNode(0)[0])
	if err != nil {
		t.Fatal(err)
	}
	// Claim every bank color of node 0 and every LLC color, so the
	// claim covers all of the node's frames: once the held set below
	// absorbs them, no future shatter can repark a match.
	if err := c.SetColors(m.BankColorsOfNode(0), allLLC(m)); err != nil {
		t.Fatal(err)
	}
	var held []phys.Frame
	for {
		f, err := c.Alloc()
		if errors.Is(err, ErrNoMemory) {
			break
		}
		if err != nil {
			t.Fatalf("drain alloc %d: %v", len(held), err)
		}
		held = append(held, f)
	}
	if len(held) == 0 {
		t.Fatal("drained zero frames")
	}
	f := held[0]

	sh := s.shards[0]
	passesBefore := sh.refillPasses.Load()
	iters := 0
	mustZeroAllocs(t, "refill miss", func() {
		iters++
		// Guaranteed miss: nothing matching is parked and the zone is
		// dry, so this request takes the refill path, fails
		// shatterLocked, and returns ErrNoMemory.
		if _, err := c.Alloc(); !errors.Is(err, ErrNoMemory) {
			t.Fatalf("want ErrNoMemory from drained shard, got %v", err)
		}
		// Restore the pre-iteration state through the fast path.
		if err := c.Free(f); err != nil {
			t.Fatalf("free: %v", err)
		}
		got, err := c.Alloc()
		if err != nil {
			t.Fatalf("re-alloc: %v", err)
		}
		f = got
	})
	if d := int(sh.refillPasses.Load() - passesBefore); d < iters {
		t.Fatalf("only %d refill passes over %d iterations; misses did not refill", d, iters)
	}
}

// allLLC returns every LLC color of the mapping.
func allLLC(m *phys.Mapping) []int {
	out := make([]int, m.NumLLCColors())
	for i := range out {
		out[i] = i
	}
	return out
}
