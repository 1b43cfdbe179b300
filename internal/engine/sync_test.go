package engine

import (
	"errors"
	"reflect"
	"runtime"
	"testing"

	"github.com/tintmalloc/tintmalloc/internal/clock"
	"github.com/tintmalloc/tintmalloc/internal/kernel"
	"github.com/tintmalloc/tintmalloc/internal/phys"
	"github.com/tintmalloc/tintmalloc/internal/topology"
)

// withBatched returns ph with Batched set to b.
func withBatched(ph Phase, b bool) Phase {
	ph.Batched = b
	return ph
}

// Leading, consecutive and trailing Syncs take no time, are not ops,
// are never traced and do not count against the op budget, whether
// the phase is Batched or not.
func TestSyncIsNotAnOp(t *testing.T) {
	for _, batched := range []bool{false, true} {
		r := newRig(t, []topology.CoreID{0})
		va, err := r.e.Threads()[0].Task.Mmap(0, phys.PageSize, 0)
		if err != nil {
			t.Fatal(err)
		}
		traced := 0
		r.e.SetTracer(func(TraceEvent) { traced++ })
		// Three ops plus the pull that finds the body exhausted: a
		// budget of 4 passes only if none of the six Syncs count.
		r.e.SetOpBudget(4)
		body := func(yield func(Op) bool) {
			for _, op := range []Op{Sync, Sync, {VA: va, Write: true, Compute: 3},
				Sync, Sync, {Compute: 5}, {VA: va + 64}, Sync} {
				if !yield(op) {
					return
				}
			}
		}
		idle := func(yield func(Op) bool) { yield(Sync) }
		res, err := r.e.Run([]Phase{
			withBatched(Parallel("p", []Work{body}), batched),
			withBatched(Parallel("only-sync", []Work{idle}), batched),
		})
		if err != nil {
			t.Fatalf("batched=%v: %v", batched, err)
		}
		if res.Ops != 3 || traced != 2 {
			t.Errorf("batched=%v: Ops = %d, traced = %d; want 3 and 2", batched, res.Ops, traced)
		}
		if p := res.Phases[1]; p.End != p.Start {
			t.Errorf("batched=%v: a body of Syncs took %d cycles", batched, p.End-p.Start)
		}
	}
}

// countingRun runs two threads whose bodies read and bump a shared
// counter between yields, and returns every read tagged with its
// thread. With sync set the bodies yield Sync before each read.
func countingRun(t *testing.T, batched, sync bool) []int {
	t.Helper()
	e := newComputeEngine(t, 2)
	counter := 0
	var seen []int
	bodies := make([]Work, 2)
	for i := range bodies {
		bodies[i] = func(yield func(Op) bool) {
			for k := 0; k < 40; k++ {
				if sync && !yield(Sync) {
					return
				}
				seen = append(seen, i*1000+counter)
				counter++
				if !yield(Op{Compute: clock.Dur(3 + 2*i)}) {
					return
				}
			}
		}
	}
	if _, err := e.Run([]Phase{withBatched(Parallel("count", bodies), batched)}); err != nil {
		t.Fatal(err)
	}
	return seen
}

// A shared counter read right after a Sync sees exactly what the
// op-at-a-time engine shows at that point; without the Sync a Batched
// body runs ahead of the other thread and reads too early.
func TestSyncOrdersSideEffects(t *testing.T) {
	want := countingRun(t, false, false)
	if got := countingRun(t, false, true); !reflect.DeepEqual(got, want) {
		t.Errorf("Sync in an unbatched phase changed the schedule:\n got %v\nwant %v", got, want)
	}
	if got := countingRun(t, true, true); !reflect.DeepEqual(got, want) {
		t.Errorf("batched reads after Sync:\n got %v\nwant %v", got, want)
	}
	if got := countingRun(t, true, false); reflect.DeepEqual(got, want) {
		t.Error("batched reads without Sync matched the per-op schedule; the test has no teeth")
	}
}

// An abort while Batched bodies are mid-block — a segfault, or a
// runaway body over the op budget — returns the error and leaves every
// body returned, with no coroutine left behind.
func TestAbortMidBlockStopsBodies(t *testing.T) {
	before := runtime.NumGoroutine()
	tracked := func(exited *bool, w Work) Work {
		return func(yield func(Op) bool) {
			defer func() { *exited = true }()
			w(yield)
		}
	}
	infinite := func(yield func(Op) bool) {
		for yield(Op{Compute: 1}) {
		}
	}
	faulting := func(yield func(Op) bool) {
		for k := 0; k < 100; k++ {
			op := Op{Compute: 1}
			if k == 10 {
				op.VA = 0xDEAD0000
			}
			if !yield(op) {
				return
			}
		}
	}
	for _, tc := range []struct {
		name   string
		budget uint64
		body   Work
		want   func(error) bool
	}{
		{"segfault", 0, faulting, func(err error) bool { return errors.Is(err, kernel.ErrSegfault) }},
		{"op-budget", 5000, infinite, func(err error) bool { return err != nil }},
	} {
		e := newComputeEngine(t, 2)
		e.SetOpBudget(tc.budget)
		var exited [2]bool
		_, err := e.Run([]Phase{Parallel(tc.name, []Work{
			tracked(&exited[0], tc.body), tracked(&exited[1], infinite),
		}).Batch()})
		if !tc.want(err) {
			t.Errorf("%s: err = %v", tc.name, err)
		}
		if !exited[0] || !exited[1] {
			t.Errorf("%s: bodies returned = %v, want both", tc.name, exited)
		}
	}
	if after := runtime.NumGoroutine(); after > before {
		t.Errorf("goroutines grew from %d to %d", before, after)
	}
}
