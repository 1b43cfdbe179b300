package bench

import (
	"encoding/binary"
	"hash/fnv"
	"testing"

	"github.com/tintmalloc/tintmalloc/internal/engine"
	"github.com/tintmalloc/tintmalloc/internal/kernel"
	"github.com/tintmalloc/tintmalloc/internal/phys"
	"github.com/tintmalloc/tintmalloc/internal/policy"
	"github.com/tintmalloc/tintmalloc/internal/workload"
)

// perOp returns w with every phase's Batched flag cleared, so the
// engine pulls each body one op at a time: the reference schedule a
// Batched body must reproduce.
func perOp(w workload.Workload) workload.Workload {
	build := w.Build
	w.Build = func(threads []engine.Thread, p workload.Params) ([]engine.Phase, error) {
		phases, err := build(threads, p)
		for i := range phases {
			phases[i].Batched = false
		}
		return phases, err
	}
	return w
}

// traceHash runs spec with a tracer that hashes every executed access
// and returns the hash with the run's metrics folded in.
func traceHash(t *testing.T, mach *Machine, spec RunSpec) uint64 {
	t.Helper()
	h := fnv.New64a()
	var b []byte
	m, err := RunInstrumented(mach, spec, func(_ *kernel.Kernel, e *engine.Engine) {
		e.SetTracer(func(ev engine.TraceEvent) {
			b = b[:0]
			b = binary.LittleEndian.AppendUint64(b, uint64(ev.Thread))
			b = append(b, ev.Phase...)
			b = binary.LittleEndian.AppendUint64(b, ev.VA)
			b = binary.LittleEndian.AppendUint64(b, uint64(ev.PA))
			if ev.Write {
				b = append(b, 1)
			} else {
				b = append(b, 0)
			}
			b = binary.LittleEndian.AppendUint64(b, uint64(ev.Start))
			b = binary.LittleEndian.AppendUint64(b, uint64(ev.Done))
			b = binary.LittleEndian.AppendUint64(b, uint64(ev.Level))
			b = binary.LittleEndian.AppendUint64(b, uint64(ev.FaultCycles))
			h.Write(b)
		})
	})
	if err != nil {
		t.Fatal(err)
	}
	b = binary.LittleEndian.AppendUint64(b[:0], uint64(m.Runtime))
	b = binary.LittleEndian.AppendUint64(b, uint64(m.TotalIdle))
	b = binary.LittleEndian.AppendUint64(b, m.Ops)
	h.Write(b)
	return h.Sum64()
}

// Batching is a pure host-side optimization: every built-in workload
// must produce the same access trace — thread, phase, addresses,
// timing, serving level, fault cycles — whether its phases are pulled
// in blocks or one op at a time. Coarse results are too weak for this:
// a body that mallocs without yielding engine.Sync first reorders the
// process-wide VA bump pointer across threads, which moves addresses
// and timings in the trace while leaving most summary metrics alone.
func TestBatchedTraceMatchesPerOp(t *testing.T) {
	mach, err := NewMachine(MachineOptions{MemBytes: 512 << 20})
	if err != nil {
		t.Fatal(err)
	}
	cfg, err := ConfigByName(mach.Topo, "4_threads_4_nodes")
	if err != nil {
		t.Fatal(err)
	}
	// Past the registry, a garbage instance whose blocks exceed a page:
	// every churn Malloc and Free then maps or unmaps pages through
	// the process-wide VA allocator, where the default instance only
	// recycles blocks through its thread's own free list.
	loads := append(workload.Registry(), workload.Garbage(workload.GarbageSpec{Block: 3 * phys.PageSize}))
	for _, w := range loads {
		for _, pol := range []policy.Policy{policy.Buddy, policy.MEMLLC} {
			spec := RunSpec{
				Workload: w, Config: cfg, Policy: pol,
				Params: workload.Params{Seed: 7, Scale: 0.02},
			}
			batched := traceHash(t, mach, spec)
			spec.Workload = perOp(w)
			if ref := traceHash(t, mach, spec); batched != ref {
				t.Errorf("%s/%s: batched trace hash %#x, per-op %#x", w.Name, pol, batched, ref)
			}
		}
	}
}
