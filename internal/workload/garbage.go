package workload

import (
	"github.com/tintmalloc/tintmalloc/internal/engine"
)

// garbage driver sizing at Scale 1.
const (
	garbageFootprint = 2 << 20 // live heap bytes per thread
	garbageBlock     = 2048    // allocation size
	garbageAllocs    = 24000   // churn allocations per thread
	garbageCompute   = 2
)

// GarbageSpec tunes the garbage driver; zero fields take the
// defaults above.
type GarbageSpec struct {
	Footprint uint64 // live-set bytes per thread
	Block     uint64 // bytes per allocation
	Allocs    uint64 // churn allocations per thread
}

// Garbage ports the shape of golang.org/x/benchmarks' `garbage`
// benchmark: an allocation-churn-heavy steady state. Each thread
// ramps up a live set of heap blocks, then continuously replaces
// random live blocks — free one, allocate one, write the newcomer,
// read another survivor — so the allocator (and the coloring ladder
// behind it) stays on the critical path for the whole run instead of
// only during init. Block addresses recycle through the size-class
// free lists, which keeps the page working set stable while the
// object population churns.
func Garbage(s GarbageSpec) Workload {
	return Workload{
		Name:        "garbage",
		Suite:       "ported",
		Description: "allocation-churn steady state over a fixed live set (x/benchmarks garbage shape)",
		Build: func(threads []engine.Thread, p Params) ([]engine.Phase, error) {
			return buildGarbage(threads, p, s)
		},
	}
}

func buildGarbage(threads []engine.Thread, p Params, s GarbageSpec) ([]engine.Phase, error) {
	footprint := s.Footprint
	if footprint == 0 {
		footprint = p.scaled(garbageFootprint)
	}
	block := s.Block
	if block == 0 {
		block = garbageBlock
	}
	allocs := s.Allocs
	if allocs == 0 {
		allocs = p.scaled(garbageAllocs)
	}
	liveN := int(footprint / block)
	if liveN < 2 {
		liveN = 2
	}
	n := len(threads)

	// live[i] holds thread i's live block addresses.
	live := make([][]uint64, n)

	// Ramp: build the live set.
	rampBodies := make([]engine.Work, n)
	for i := range threads {
		th, i := threads[i], i
		rampBodies[i] = func(yield func(engine.Op) bool) {
			live[i] = make([]uint64, 0, liveN)
			for k := 0; k < liveN; k++ {
				if !yield(engine.Sync) {
					return
				}
				va, err := th.Heap.Malloc(block)
				if err != nil {
					return
				}
				live[i] = append(live[i], va)
				if !yield(engine.Op{VA: va, Write: true, Compute: garbageCompute}) {
					return
				}
			}
		}
	}
	phases := []engine.Phase{engine.Parallel("ramp", rampBodies).Batch()}

	churnBodies := make([]engine.Work, n)
	for i := range threads {
		th, i := threads[i], i
		churnBodies[i] = func(yield func(engine.Op) bool) {
			rng := rngFor(p, 700000+i)
			blocks := live[i]
			if len(blocks) == 0 {
				return
			}
			for k := uint64(0); k < allocs; k++ {
				// Replace a random victim: free, allocate, write the
				// newcomer (the address usually recycles through the
				// size-class free list).
				v := rng.Intn(len(blocks))
				if !yield(engine.Sync) {
					return
				}
				if th.Heap.Free(blocks[v]) != nil {
					return
				}
				va, err := th.Heap.Malloc(block)
				if err != nil {
					return
				}
				blocks[v] = va
				if !yield(engine.Op{VA: va, Write: true, Compute: garbageCompute}) {
					return
				}
				// Read a surviving block: the scan share of the
				// original benchmark's work.
				if !yield(engine.Op{VA: blocks[rng.Intn(len(blocks))], Compute: garbageCompute}) {
					return
				}
			}
		}
	}
	phases = append(phases, engine.Parallel("churn", churnBodies).Batch())
	return phases, nil
}
