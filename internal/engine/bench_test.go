package engine

import (
	"testing"
)

// BenchmarkRunPhase times the engine's own per-op cost — the body to
// engine handoff plus one event-queue step — on compute-only ops, so
// no translation or memory access is inside the timed loop. Four
// threads share b.N ops in one phase; ns/op is per engine op.
func BenchmarkRunPhase(b *testing.B) {
	const threads = 4
	for _, bc := range []struct {
		name      string
		batched   bool
		syncEvery int // yield Sync after every syncEvery ops; 0 never
	}{
		{"per-op", false, 0},
		{"batched", true, 0},
		{"batched-sync2", true, 2},
	} {
		b.Run(bc.name, func(b *testing.B) {
			e := newComputeEngine(b, threads)
			per := (b.N + threads - 1) / threads
			bodies := make([]Work, threads)
			for i := range bodies {
				bodies[i] = func(yield func(Op) bool) {
					for k := 1; k <= per; k++ {
						if !yield(Op{Compute: 1}) {
							return
						}
						if bc.syncEvery > 0 && k%bc.syncEvery == 0 && !yield(Sync) {
							return
						}
					}
				}
			}
			ph := Parallel(bc.name, bodies)
			ph.Batched = bc.batched
			b.ReportAllocs()
			b.ResetTimer()
			res, err := e.Run([]Phase{ph})
			b.StopTimer()
			if err != nil {
				b.Fatal(err)
			}
			if want := uint64(per * threads); res.Ops != want {
				b.Fatalf("Ops = %d, want %d", res.Ops, want)
			}
		})
	}
}
