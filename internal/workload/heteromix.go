package workload

import (
	"fmt"

	"github.com/tintmalloc/tintmalloc/internal/engine"
)

// heteromix sizing at Scale 1.
const (
	heteroEpochs      = 6         // barrier phases = adaptive decision points
	heteroStreamBytes = 8 << 20   // per-streamer total stream, grown epoch by epoch
	heteroHotBytes    = 512 << 10 // per-reuser hot array (LLC resident set)
	heteroSweeps      = 8         // reuser hot-array sweeps per epoch
	heteroChurnBlock  = 1024      // churner allocation size
	heteroChurnLive   = 24        // churner live blocks (tiny footprint)
	heteroChurnAllocs = 1500      // churner replacements per epoch
	heteroCompute     = 2
)

// HeteroSpec tunes the heterogeneous mix; zero fields take the
// defaults above.
type HeteroSpec struct {
	// Pattern assigns roles round-robin by thread index: 's' streamer,
	// 'r' reuser, 'c' churner. Default "srcs". A homogeneous pattern
	// ("ssss", "rrrr") turns the mix into a differential-test control.
	Pattern string
	// StreamBytes is each streamer's total footprint.
	StreamBytes uint64
	// Epochs is the number of barrier-separated work phases.
	Epochs int
}

// HeteroMix is the adaptive policy engine's showcase workload
// (EXPERIMENTS.md): one program whose threads want *different*
// policies. Streamers grow a footprint no static per-thread color
// budget can hold and sweep all of it every epoch — under a colored
// policy their overflow lives on degradation-ladder loans, streamed
// remotely forever. Reusers hammer a small hot array that wants
// exactly the LLC partition the streamers would waste. Churners turn
// over a tiny heap live set that never repays private colors. Epochs
// end at barriers, so an adaptive engine gets one decision point per
// epoch; no single static policy fits all three roles at once.
func HeteroMix(s HeteroSpec) Workload {
	return Workload{
		Name:        "heteromix",
		Suite:       "synthetic",
		Description: "streamers + reusers + churners; per-role policy wants (adaptive showcase)",
		Build: func(threads []engine.Thread, p Params) ([]engine.Phase, error) {
			return buildHeteroMix(threads, p, s)
		},
	}
}

func buildHeteroMix(threads []engine.Thread, p Params, s HeteroSpec) ([]engine.Phase, error) {
	pattern := s.Pattern
	if pattern == "" {
		pattern = "srcs"
	}
	for i := 0; i < len(pattern); i++ {
		switch pattern[i] {
		case 's', 'r', 'c':
		default:
			return nil, fmt.Errorf("workload: heteromix: role %q in pattern %q (want s, r or c)",
				pattern[i], pattern)
		}
	}
	epochs := s.Epochs
	if epochs == 0 {
		epochs = heteroEpochs
	}
	if epochs < 1 {
		return nil, fmt.Errorf("workload: heteromix: %d epochs", epochs)
	}
	streamTotal := s.StreamBytes
	if streamTotal == 0 {
		streamTotal = p.scaled(heteroStreamBytes)
	}
	// Per-epoch growth chunk, page-aligned so every epoch faults fresh
	// pages and the footprint crosses color-capacity mid-run.
	chunk := pageAlign(streamTotal / uint64(epochs))
	hotBytes := pageAlign(p.scaled(heteroHotBytes))
	churnAllocs := p.scaled(heteroChurnAllocs)
	n := len(threads)
	role := func(i int) byte { return pattern[i%len(pattern)] }

	// Per-thread state, each entry touched only by its own thread.
	streamChunks := make([][]uint64, n) // streamer chunk base VAs
	hotVA := make([]uint64, n)
	live := make([][]uint64, n) // churner live block VAs

	initBodies := make([]engine.Work, n)
	for i := range threads {
		th, i := threads[i], i
		switch role(i) {
		case 'r':
			initBodies[i] = func(yield func(engine.Op) bool) {
				var err error
				if hotVA[i], err = mmapChunk(th, hotBytes); err != nil {
					return
				}
				streamTouch(yield, hotVA[i], hotBytes, true, heteroCompute)
			}
		case 'c':
			initBodies[i] = func(yield func(engine.Op) bool) {
				live[i] = make([]uint64, 0, heteroChurnLive)
				for b := 0; b < heteroChurnLive; b++ {
					if !yield(engine.Sync) {
						return
					}
					va, err := th.Heap.Malloc(heteroChurnBlock)
					if err != nil {
						return
					}
					live[i] = append(live[i], va)
					if !yield(engine.Op{VA: va, Write: true, Compute: heteroCompute}) {
						return
					}
				}
			}
		default: // streamers allocate lazily, epoch by epoch
			initBodies[i] = func(yield func(engine.Op) bool) {}
		}
	}
	phases := []engine.Phase{engine.Parallel("init", initBodies).Batch()}

	for e := 0; e < epochs; e++ {
		bodies := make([]engine.Work, n)
		for i := range threads {
			th, i := threads[i], i
			switch role(i) {
			case 's':
				bodies[i] = func(yield func(engine.Op) bool) {
					// Grow by one chunk (fresh faults under whatever
					// policy the task runs RIGHT NOW)...
					va, err := mmapChunk(th, chunk)
					if err != nil {
						return
					}
					streamChunks[i] = append(streamChunks[i], va)
					if !streamTouch(yield, va, chunk, true, heteroCompute) {
						return
					}
					// ...then sweep the whole footprint: placement of
					// every past epoch's pages is paid for again, which
					// is what makes compaction worth its cost.
					for _, base := range streamChunks[i] {
						if !streamTouch(yield, base, chunk, false, heteroCompute) {
							return
						}
					}
				}
			case 'r':
				bodies[i] = func(yield func(engine.Op) bool) {
					for sweep := 0; sweep < heteroSweeps; sweep++ {
						if !streamTouch(yield, hotVA[i], hotBytes, sweep == 0, heteroCompute) {
							return
						}
					}
				}
			default: // 'c'
				bodies[i] = func(yield func(engine.Op) bool) {
					rng := rngFor(p, 900000+i*31+e)
					blocks := live[i]
					if len(blocks) == 0 {
						return
					}
					for a := uint64(0); a < churnAllocs; a++ {
						v := rng.Intn(len(blocks))
						if !yield(engine.Sync) {
							return
						}
						if th.Heap.Free(blocks[v]) != nil {
							return
						}
						va, err := th.Heap.Malloc(heteroChurnBlock)
						if err != nil {
							return
						}
						blocks[v] = va
						if !yield(engine.Op{VA: va, Write: true, Compute: heteroCompute}) {
							return
						}
						if !yield(engine.Op{VA: blocks[rng.Intn(len(blocks))], Compute: heteroCompute}) {
							return
						}
					}
					// End-of-epoch trim: hand empty slabs back and give
					// the kernel its reclaim window, like a GC cycle.
					if !yield(engine.Sync) {
						return
					}
					if _, err := th.Heap.Trim(); err != nil {
						return
					}
				}
			}
		}
		phases = append(phases, engine.Parallel(fmt.Sprintf("epoch%02d", e), bodies).Batch())
	}
	return phases, nil
}
