// Package engine executes simulated multi-threaded programs against
// the machine model: a conservative discrete-event simulator in which
// every thread owns a virtual clock, advances through its memory
// accesses in global time order, and synchronizes with the other
// threads at the implicit barrier ending each parallel phase —
// OpenMP-style fork-join execution.
//
// Idle time is measured exactly as in the paper's Algorithm 3: for
// each parallel phase the engine records every thread's completion
// instant end[tid]; the barrier releases at max(end), and thread tid
// accumulates idle[tid] += max(end) - end[tid].
//
// Thread bodies are ordinary Go functions written in range-over-func
// style (Work); the engine executes one operation at a time from the
// thread whose clock is earliest, so kernel and memory-system state
// always mutate in virtual-time order and runs are deterministic.
// Ops travel from a body to the engine in blocks (see Phase.Batched
// and Sync); a body's own side effects still run at the virtual
// instant the op-at-a-time schedule gives them.
package engine

import (
	"fmt"
	"iter"
	"sync"

	"github.com/tintmalloc/tintmalloc/internal/clock"
	"github.com/tintmalloc/tintmalloc/internal/heap"
	"github.com/tintmalloc/tintmalloc/internal/kernel"
	"github.com/tintmalloc/tintmalloc/internal/mem"
	"github.com/tintmalloc/tintmalloc/internal/phys"
)

// Op is one step of a simulated thread: optional compute cycles
// followed by at most one memory access.
type Op struct {
	Compute clock.Dur // compute cycles before the access
	VA      uint64    // virtual address; 0 means compute-only
	Write   bool
	sync    bool // set only in Sync
}

// Sync is not an operation but a handoff point: a Batched body yields
// it before a side effect — a heap or kernel call, or a read or write
// of state shared with other bodies — so that the ops it has yielded
// so far execute before the side effect runs. The engine resumes the
// body past a Sync only once the thread is again the earliest in
// virtual time with all of those ops done, which is exactly the
// instant an op-at-a-time pull would have run the side effect. A Sync
// takes no time, is not counted in Result.Ops or the op budget, is
// never traced, and is a no-op when no yielded op is pending (always
// so in a phase that is not Batched).
var Sync = Op{sync: true}

// Work is a thread body: it yields Ops in program order. The yield
// function returns false when the engine aborts the run; the body
// must then return promptly.
type Work func(yield func(Op) bool)

// Thread couples a kernel task (whose pinned core issues the
// accesses and whose colors govern its page faults) with its heap
// arena.
type Thread struct {
	Task *kernel.Task
	Heap *heap.Heap
}

// Phase is one program section. Entry i of Work is thread i's body; a
// nil entry means the thread does not participate (it waits at the
// phase boundary without accumulating barrier idle unless the phase
// is parallel, i.e. has two or more participants).
//
// NoWait removes the implicit barrier at the END of the phase, like
// `#pragma omp for nowait` (which the paper's Algorithm 3 uses):
// each thread flows into the next phase at its own completion
// instant, and no idle time is charged for this phase. The final
// phase of a run always synchronizes so the program has a defined
// end time.
type Phase struct {
	Name   string
	Work   []Work
	NoWait bool
	// Batched lets the engine pull ops from each body in blocks of
	// up to opBatch per coroutine switch instead of one at a time. The
	// scheduler still interleaves threads op-by-op in (time, id)
	// order — only the body<->engine handoff is chunked — so results
	// are unchanged PROVIDED the body yields Sync before any later
	// call that reads or writes state outside the body (a Malloc, a
	// Free, a shared cursor). Work before the first yield needs no
	// Sync: the first block is pulled exactly when the unbatched
	// engine would have run the body for the first time. Bodies that
	// cannot mark their side effects (public-API bodies, DynamicFor,
	// trace replay) leave this off and are pulled one op per block.
	Batched bool
}

// Batch marks the phase as safe for chunked op pulling (see Batched).
func (p Phase) Batch() Phase {
	p.Batched = true
	return p
}

// NoWaitParallel builds a barrier-less parallel phase.
func NoWaitParallel(name string, bodies []Work) Phase {
	return Phase{Name: name, Work: bodies, NoWait: true}
}

// Serial builds a phase where only the master (thread 0 of n) runs.
func Serial(name string, n int, master Work) Phase {
	w := make([]Work, n)
	w[0] = master
	return Phase{Name: name, Work: w}
}

// Parallel builds a phase from one body per thread.
func Parallel(name string, bodies []Work) Phase {
	return Phase{Name: name, Work: bodies}
}

// PhaseResult captures one phase's timing.
type PhaseResult struct {
	Name     string
	Start    clock.Time
	End      clock.Time // barrier release = max thread end
	Parallel bool       // two or more participants
	// ThreadEnd[i] is thread i's completion instant (its phase
	// start for non-participants).
	ThreadEnd []clock.Time
}

// Result aggregates a full program run.
type Result struct {
	Runtime clock.Dur // total program runtime (all phases)
	// ThreadRuntime[i] is the busy time thread i spent inside
	// parallel phases (paper Fig. 13).
	ThreadRuntime []clock.Dur
	// ThreadIdle[i] is the barrier wait accumulated by thread i
	// across parallel phases (paper Fig. 14, Algorithm 3).
	ThreadIdle []clock.Dur
	// TotalIdle is the sum over threads (paper Fig. 12).
	TotalIdle clock.Dur
	// FaultCycles[i] is the simulated time thread i spent in page
	// faults (included in its runtime).
	FaultCycles []clock.Dur
	// Ops is the number of thread operations executed across all
	// phases (compute steps and memory accesses), the work unit
	// behind the benchmark harness's ops/sec figures.
	Ops    uint64
	Phases []PhaseResult
}

// MaxThreadRuntime returns the slowest thread's parallel-phase time.
func (r *Result) MaxThreadRuntime() clock.Dur { return maxDur(r.ThreadRuntime) }

// MinThreadRuntime returns the fastest thread's parallel-phase time.
func (r *Result) MinThreadRuntime() clock.Dur {
	if len(r.ThreadRuntime) == 0 {
		return 0
	}
	min := r.ThreadRuntime[0]
	for _, d := range r.ThreadRuntime[1:] {
		if d < min {
			min = d
		}
	}
	return min
}

func maxDur(ds []clock.Dur) clock.Dur {
	var m clock.Dur
	for _, d := range ds {
		if d > m {
			m = d
		}
	}
	return m
}

// TraceEvent describes one executed memory access, delivered to the
// engine's tracer in virtual-time order.
type TraceEvent struct {
	Thread      int
	Phase       string
	VA          uint64
	PA          phys.Addr
	Write       bool
	Start       clock.Time // instant the access was issued
	Done        clock.Time // completion instant
	Level       mem.Level  // where the access was served
	FaultCycles clock.Dur  // page-fault overhead included in Done-Start
}

// Tracer receives every executed access. Must not retain the event
// past the call.
type Tracer func(TraceEvent)

// Engine runs programs on one memory system. Create a fresh Engine
// (and memory system) per experiment run.
type Engine struct {
	mem     *mem.System
	threads []Thread
	now     clock.Time
	tracer  Tracer
	// hookMu guards the audit hook: SetAuditHook may race with a Run
	// driven from another goroutine (tests wire auditors while a
	// server-backed run is in flight), and a torn function-value read
	// is undefined behaviour. The event loop itself stays lock-free —
	// the hook is read once per phase barrier, never per access.
	//tintvet:ignore cycleclock: hookMu guards the test-installed audit hook, not event-loop state
	hookMu   sync.Mutex
	audit    func() error //tintvet:guardedby hookMu
	barrier  BarrierHook  //tintvet:guardedby hookMu
	opBudget uint64
	// release[i] is thread i's personal start time for the next
	// phase (diverges from `now` after a NoWait phase).
	release []clock.Time
}

// SetTracer installs (or, with nil, removes) an access tracer.
func (e *Engine) SetTracer(t Tracer) { e.tracer = t }

// SetAuditHook installs a function the engine calls after every phase
// (and nil removes it). Tests hook the invariant auditor
// (internal/invariant) here so kernel bookkeeping is cross-checked at
// every barrier of every simulated program; a non-nil return aborts
// the run with that error. The hook is a plain function value — no
// build tags — and is never set outside tests.
func (e *Engine) SetAuditHook(h func() error) {
	e.hookMu.Lock() //tintvet:ignore cycleclock: hook installation, outside the event loop
	defer e.hookMu.Unlock()
	e.audit = h
}

// auditHook snapshots the installed hook for one barrier call.
func (e *Engine) auditHook() func() error {
	e.hookMu.Lock() //tintvet:ignore cycleclock: once-per-barrier hook read, not per-access state
	defer e.hookMu.Unlock()
	return e.audit
}

// BarrierHook is phase-barrier daemon work (see SetBarrierHook): it
// runs while every thread is parked at the barrier and returns the
// simulated cycles the work cost, which the engine charges to the
// whole program by extending the barrier — all threads resume that
// much later, exactly as if a kernel daemon had held them. A non-nil
// error aborts the run.
type BarrierHook func(phase string) (clock.Dur, error)

// SetBarrierHook installs a hook the engine calls at every phase
// BARRIER — after the phase's threads have synchronized, before the
// audit hook — and nil removes it. NoWait phases have no barrier and
// do not trigger it (except the final phase, which always
// synchronizes). The adaptive policy engine hooks Task.Repolicy and
// CompactStep here: the barrier is the one instant no thread holds a
// translation mid-flight, so a recolor's TLB flush and the compaction
// daemon's page moves are safe without extra synchronization.
func (e *Engine) SetBarrierHook(h BarrierHook) {
	e.hookMu.Lock() //tintvet:ignore cycleclock: hook installation, outside the event loop
	defer e.hookMu.Unlock()
	e.barrier = h
}

// barrierHook snapshots the installed hook for one barrier call.
func (e *Engine) barrierHook() BarrierHook {
	e.hookMu.Lock() //tintvet:ignore cycleclock: once-per-barrier hook read, not per-access state
	defer e.hookMu.Unlock()
	return e.barrier
}

// defaultOpBudget guards against runaway thread bodies (an infinite
// yield loop would otherwise hang the simulation silently).
// Overridable through SetOpBudget for genuinely enormous runs.
var defaultOpBudget uint64 = 1 << 33

// SetOpBudget caps the ops a single thread may execute within one
// phase (0 restores the default of 2^33). The budget is per thread,
// not per phase: a phase with many threads each under the budget is
// fine, and only a genuinely runaway body — one thread yielding more
// than the budget — trips it.
func (e *Engine) SetOpBudget(n uint64) {
	if n == 0 {
		n = defaultOpBudget
	}
	e.opBudget = n
}

// New creates an engine for the given threads.
func New(ms *mem.System, threads []Thread) (*Engine, error) {
	if len(threads) == 0 {
		return nil, fmt.Errorf("engine: no threads")
	}
	for i, th := range threads {
		if th.Task == nil {
			return nil, fmt.Errorf("engine: thread %d has no task", i)
		}
	}
	return &Engine{mem: ms, threads: threads, opBudget: defaultOpBudget}, nil
}

// Mem returns the engine's memory system.
func (e *Engine) Mem() *mem.System { return e.mem }

// Threads returns the engine's thread table.
func (e *Engine) Threads() []Thread { return e.threads }

// Now returns the global virtual clock (the last barrier release).
func (e *Engine) Now() clock.Time { return e.now }

// opBatch is how many ops a Batched phase hands the engine per
// coroutine switch at most. The body-side adapter (blockify)
// accumulates its yields into a block and performs one real iter.Pull
// handoff per full block or Sync, so the goroutine-switch cost is paid
// once per block instead of once per op.
const opBatch = 1024

// blockify adapts a per-op body into a per-block iterator: the body's
// yields append to buf, which is surfaced to the consumer when it
// holds size ops, at a Sync, or at body exit. A block is never empty
// and never holds a Sync. The consumer must finish with a block before
// requesting the next one — iter.Pull's strict alternation guarantees
// that, which is what makes reusing buf safe.
func blockify(w Work, buf []Op, size int) iter.Seq[[]Op] {
	return func(yield func([]Op) bool) {
		buf := buf[:0]
		stopped := false
		w(func(op Op) bool {
			if !op.sync {
				buf = append(buf, op)
				if len(buf) < size {
					return true
				}
			} else if len(buf) == 0 {
				return true
			}
			if !yield(buf) {
				stopped = true
				return false
			}
			buf = buf[:0]
			return true
		})
		if !stopped && len(buf) > 0 {
			yield(buf)
		}
	}
}

// runnerState is one live thread within a phase.
type runnerState struct {
	id        int
	time      clock.Time
	ops       uint64 // ops this thread executed in the current phase
	nextBlock func() ([]Op, bool)
	stop      func()
	// buf[bufPos:] holds the ops of the current block that have not
	// executed yet.
	buf    []Op
	bufPos int
}

// nextOp returns the thread's next op, pulling the next block from
// the body when the current one is spent.
func (r *runnerState) nextOp() (Op, bool) {
	if r.bufPos < len(r.buf) {
		op := r.buf[r.bufPos]
		r.bufPos++
		return op, true
	}
	buf, ok := r.nextBlock()
	if !ok {
		return Op{}, false
	}
	r.buf = buf
	r.bufPos = 1
	return buf[0], true
}

// Run executes the phases in order and returns the aggregated
// result. On error (e.g. a thread ran out of colored memory) the
// partial result is returned alongside the error.
func (e *Engine) Run(phases []Phase) (*Result, error) {
	n := len(e.threads)
	res := &Result{
		ThreadRuntime: make([]clock.Dur, n),
		ThreadIdle:    make([]clock.Dur, n),
		FaultCycles:   make([]clock.Dur, n),
	}
	if e.release == nil {
		e.release = make([]clock.Time, n)
		for i := range e.release {
			e.release[i] = e.now
		}
	}
	// blocks[i] is thread i's block buffer, reused by every phase of
	// this run and dropped with it.
	blocks := make([][]Op, n)
	for pi, ph := range phases {
		if len(ph.Work) != n {
			return res, fmt.Errorf("engine: phase %q has %d bodies for %d threads",
				ph.Name, len(ph.Work), n)
		}
		barrier := !ph.NoWait || pi == len(phases)-1
		pr, err := e.runPhase(ph, res, barrier, blocks)
		res.Phases = append(res.Phases, pr)
		if err != nil {
			return res, fmt.Errorf("engine: phase %q: %w", ph.Name, err)
		}
		if hook := e.barrierHook(); barrier && hook != nil {
			cost, err := hook(ph.Name)
			if err != nil {
				return res, fmt.Errorf("engine: barrier hook after phase %q: %w", ph.Name, err)
			}
			if cost > 0 {
				// Daemon work extends the barrier: every thread resumes
				// after it, and the program as a whole pays for it.
				e.now += clock.Time(cost)
				for i := range e.release {
					e.release[i] = e.now
				}
			}
		}
		if audit := e.auditHook(); audit != nil {
			if err := audit(); err != nil {
				return res, fmt.Errorf("engine: audit after phase %q: %w", ph.Name, err)
			}
		}
	}
	res.Runtime = clock.Dur(e.now)
	for _, d := range res.ThreadIdle {
		res.TotalIdle += d
	}
	return res, nil
}

func (e *Engine) runPhase(ph Phase, res *Result, barrier bool, blocks [][]Op) (PhaseResult, error) {
	start := e.now
	pr := PhaseResult{
		Name:      ph.Name,
		Start:     start,
		ThreadEnd: make([]clock.Time, len(e.threads)),
	}
	for i := range pr.ThreadEnd {
		pr.ThreadEnd[i] = e.release[i]
	}

	// Materialize pull-iterators for every participant. Each thread
	// begins at its personal release time (== the last barrier, or
	// its own previous completion after a NoWait phase).
	var live []*runnerState
	participants := 0
	size := 1 // an unbatched body hands over every op as it yields it
	if ph.Batched {
		size = opBatch
	}
	for i, w := range ph.Work {
		if w == nil {
			continue
		}
		participants++
		if blocks[i] == nil {
			blocks[i] = make([]Op, 0, opBatch)
		}
		r := &runnerState{id: i, time: e.release[i]}
		r.nextBlock, r.stop = iter.Pull(blockify(w, blocks[i], size))
		live = append(live, r)
	}
	pr.Parallel = participants >= 2
	defer func() {
		for _, r := range live {
			r.stop()
		}
	}()

	// The conservative discrete-event loop: always step the earliest
	// thread (ties by id). The indexed min-heap makes each step
	// O(log n); because (time, id) is a strict total order it selects
	// exactly the thread the former linear scan did.
	q := newEventQueue(append([]*runnerState(nil), live...))
	var runErr error
	for q.Len() > 0 && runErr == nil {
		r := q.Min()
		if r.ops++; r.ops > e.opBudget {
			runErr = fmt.Errorf("thread %d exceeded the per-thread op budget of %d (runaway thread body?)",
				r.id, e.opBudget)
			break
		}
		op, ok := r.nextOp()
		if !ok {
			pr.ThreadEnd[r.id] = r.time
			r.stop()
			q.PopMin()
			continue
		}
		res.Ops++
		r.time += op.Compute
		if op.VA != 0 {
			th := e.threads[r.id]
			start := r.time
			pa, faultCost, err := th.Task.Translate(op.VA)
			if err != nil {
				runErr = fmt.Errorf("thread %d at %#x: %w", r.id, op.VA, err)
				pr.ThreadEnd[r.id] = r.time
				break
			}
			r.time += faultCost
			res.FaultCycles[r.id] += faultCost
			done, level := e.mem.AccessLevel(th.Task.Core(), pa, op.Write, r.time)
			r.time = done
			if e.tracer != nil {
				e.tracer(TraceEvent{
					Thread: r.id, Phase: ph.Name,
					VA: op.VA, PA: pa, Write: op.Write,
					Start: start, Done: done, Level: level,
					FaultCycles: faultCost,
				})
			}
		}
		q.FixMin()
	}

	end := start
	for _, t := range pr.ThreadEnd {
		if t > end {
			end = t
		}
	}
	pr.End = end
	if pr.Parallel {
		for i, w := range ph.Work {
			if w == nil {
				continue
			}
			res.ThreadRuntime[i] += clock.Dur(pr.ThreadEnd[i] - e.release[i])
			if barrier {
				res.ThreadIdle[i] += clock.Dur(end - pr.ThreadEnd[i])
			}
		}
	}
	if barrier {
		// Implicit barrier: everyone waits for the slowest
		// participant, then starts the next phase together.
		for i := range e.release {
			e.release[i] = end
		}
		e.now = end
	} else {
		// nowait: each participant flows on from its own end;
		// non-participants keep their previous release.
		for i, w := range ph.Work {
			if w != nil {
				e.release[i] = pr.ThreadEnd[i]
			}
		}
		e.now = end
	}
	return pr, runErr
}
