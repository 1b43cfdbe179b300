package main

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"time"

	"github.com/tintmalloc/tintmalloc/internal/invariant"
	"github.com/tintmalloc/tintmalloc/internal/kernel"
	"github.com/tintmalloc/tintmalloc/internal/phys"
	"github.com/tintmalloc/tintmalloc/internal/policy"
	"github.com/tintmalloc/tintmalloc/internal/serve"
	"github.com/tintmalloc/tintmalloc/internal/topology"
)

// serveMemBytes sizes serve_churn's machine: 64 MiB per node, so each
// client's colored supply (its node's bank colors times half the LLC
// colors, 8192 frames) is crossed about once a second.
const serveMemBytes = 256 << 20

// allocator is the client surface the op-stream driver needs; the
// in-process serve.Client and the wire client both provide it.
type allocator interface {
	Alloc() (phys.Frame, error)
	Free(phys.Frame) error
}

// churner is one closed-loop client's generated op stream and live
// set. The stream alternates alloc-biased and free-biased phases
// between low and high water marks; which op comes next depends only
// on the seed and the live-set size, never on what the server did.
type churner struct {
	rng       *splitmix
	live      []phys.Frame
	low, high int
	up        bool

	ops, busy     uint64
	allocH, freeH Hist // per-call wall latency in ns

	// With logging on, log holds every op (0 for an alloc, opFree|j
	// for a free of live index j) and frames the frame each moved.
	log    []uint32
	frames []phys.Frame
}

// opFree marks a logged op as a free of live-set index (op &^ opFree).
const opFree = 1 << 31

// nextIsFree draws the next op: true for a free of index j.
func (c *churner) nextIsFree() (bool, int) {
	n := len(c.live)
	if n >= c.high {
		c.up = false
	} else if n <= c.low {
		c.up = true
	}
	allocPct := 30
	if c.up {
		allocPct = 70
	}
	v := c.rng.next()
	if n == 0 || int(v%100) < allocPct && n < c.high {
		return false, 0
	}
	return true, int((v >> 32) % uint64(n))
}

// step performs one generated op, retrying ErrBusy, and records the
// call's latency. With logging set it appends the op to the log.
func (c *churner) step(a allocator, logging bool) error {
	free, j := c.nextIsFree()
	if free {
		f := c.live[j]
		t0 := time.Now()
		if err := a.Free(f); err != nil {
			return fmt.Errorf("free %d: %w", f, err)
		}
		c.freeH.Record(uint64(time.Since(t0)))
		last := len(c.live) - 1
		c.live[j] = c.live[last]
		c.live = c.live[:last]
		c.ops++
		if logging {
			c.log = append(c.log, opFree|uint32(j))
			c.frames = append(c.frames, f)
		}
		return nil
	}
	for {
		t0 := time.Now()
		f, err := a.Alloc()
		if errors.Is(err, serve.ErrBusy) {
			c.busy++
			runtime.Gosched()
			continue
		}
		if err != nil {
			return fmt.Errorf("alloc: %w", err)
		}
		c.allocH.Record(uint64(time.Since(t0)))
		c.live = append(c.live, f)
		c.ops++
		if logging {
			c.log = append(c.log, 0)
			c.frames = append(c.frames, f)
		}
		return nil
	}
}

// cycle runs ops until the live set has gone past the high water mark
// and back down to the low one.
func (c *churner) cycle(a allocator, logging bool) error {
	for crossed := false; !crossed || len(c.live) > c.low; {
		if err := c.step(a, logging); err != nil {
			return err
		}
		crossed = crossed || len(c.live) >= c.high
	}
	return nil
}

// lockstep holds the load goroutines at the end of every cycle, so all
// of them start each cycle together and the steady phase ends on a
// cycle boundary: every steady phase is then made of whole, alike
// cycles, whatever the relative speed of the clients.
type lockstep struct {
	mu      sync.Mutex
	cond    *sync.Cond
	n       int
	arrived int
	gen     uint64
	stop    bool
}

func newLockstep(n int) *lockstep {
	l := &lockstep{n: n}
	l.cond = sync.NewCond(&l.mu)
	return l
}

// wait blocks until all n goroutines have arrived and reports whether
// the phase is over: the deadline had passed when the last one
// arrived, or one of them aborted.
func (l *lockstep) wait(deadline time.Time) bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.stop {
		return true
	}
	l.arrived++
	if l.arrived == l.n {
		l.arrived = 0
		l.gen++
		l.stop = !time.Now().Before(deadline)
		l.cond.Broadcast()
		return l.stop
	}
	for gen := l.gen; gen == l.gen && !l.stop; {
		l.cond.Wait()
	}
	return l.stop
}

// abort ends the phase for every goroutine.
func (l *lockstep) abort() {
	l.mu.Lock()
	l.stop = true
	l.cond.Broadcast()
	l.mu.Unlock()
}

// drain frees the live set.
func (c *churner) drain(a allocator) error {
	for _, f := range c.live {
		if err := a.Free(f); err != nil {
			return fmt.Errorf("drain free %d: %w", f, err)
		}
	}
	c.live = c.live[:0]
	return nil
}

// colorSupply counts the frames a MEM+LLC claim can be served from at
// preferred placement.
func colorSupply(m *phys.Mapping, a policy.Assignment) int {
	bank := make(map[int]bool)
	for _, b := range a.BankColors {
		bank[b] = true
	}
	llc := make(map[int]bool)
	for _, l := range a.LLCColors {
		llc[l] = true
	}
	n := 0
	for f := phys.Frame(0); uint64(f) < m.Frames(); f++ {
		if bank[m.FrameBankColor(f)] && llc[m.FrameLLCColor(f)] {
			n++
		}
	}
	return n
}

// serveSetup is one booted serve_churn instance.
type serveSetup struct {
	srv     *serve.Server
	clients []*serve.Client
	supply  []int
}

// bootServe boots the machine and server with the clients' claims and
// returns the CPU time of the mapping build and of the server boot.
func bootServe(r *Run, topo *topology.Topology, cores []topology.CoreID) (serveSetup, time.Duration, time.Duration, error) {
	var s serveSetup
	t0 := r.markNow()
	endPhys := r.Tr.Begin("phys.boot")
	m, err := phys.DefaultSeparable(serveMemBytes, topo.Nodes())
	endPhys()
	if err != nil {
		return s, 0, 0, err
	}
	t1 := r.markNow()
	endServe := r.Tr.Begin("serve.boot")
	defer endServe()
	s.srv, err = serve.New(topo, m, serve.Config{})
	if err != nil {
		return s, 0, 0, err
	}
	asn, err := policy.Plan(policy.MEMLLC, m, topo, cores)
	if err != nil {
		s.srv.Close()
		return s, 0, 0, err
	}
	for i, core := range cores {
		c, err := s.srv.NewClient(core)
		if err == nil {
			err = c.SetColors(asn[i].BankColors, asn[i].LLCColors)
		}
		if err != nil {
			s.srv.Close()
			return s, 0, 0, err
		}
		s.clients = append(s.clients, c)
		s.supply = append(s.supply, colorSupply(m, asn[i]))
	}
	return s, t1.sub(t0).cpu, r.since(t1).cpu, nil
}

// runServeChurn drives serve_churn: an in-process server with two
// closed-loop clients pinned to nodes 0 and 1 under MEM+LLC, each
// repeatedly growing its live set past its colored supply and
// shrinking it again.
func runServeChurn(r *Run) error {
	topo := topology.Opteron6128()
	cores := []topology.CoreID{topo.CoresOfNode(0)[0], topo.CoresOfNode(1)[0]}

	var s serveSetup
	var physT, bootT []float64
	for i, start := 0, time.Now(); moreSetup(i, start); i++ {
		endSetup := r.Tr.Begin("setup")
		next, p, b, err := bootServe(r, topo, cores)
		endSetup()
		if err != nil {
			return err
		}
		if s.srv != nil {
			s.srv.Close()
		}
		s = next
		physT = append(physT, p.Seconds())
		bootT = append(bootT, b.Seconds())
	}
	defer s.srv.Close()

	churners := make([]*churner, len(s.clients))
	for i := range churners {
		churners[i] = &churner{rng: newSplitmix(r.Seed, uint64(i)), low: s.supply[i] / 2, high: s.supply[i] * 3 / 2}
	}
	r.Note("colored supply per client %v frames; live set cycles between 1/2 and 3/2 of it", s.supply)

	// Warm-up, untimed: each client runs one cycle, so refill batches
	// and borrow paths are exercised before the steady phase starts.
	endWarm := r.Tr.Begin("warmup")
	for i, c := range churners {
		if err := c.cycle(s.clients[i], false); err != nil {
			endWarm()
			r.Attempted++
			r.Fail("warm-up client %d: %v", i, err)
			return nil
		}
		c.ops, c.busy = 0, 0
		c.allocH, c.freeH = Hist{}, Hist{}
	}
	endWarm()

	before := s.srv.Stats()
	allocs0 := heapAllocs()
	errs := make([]error, len(churners))
	step := newLockstep(len(churners))
	st := steadyLoad(r, "serve.churn", len(churners), func(i int, deadline time.Time) {
		for {
			if err := churners[i].cycle(s.clients[i], false); err != nil {
				errs[i] = err
				step.abort()
				return
			}
			if step.wait(deadline) {
				return
			}
		}
	})
	heapAllocsSteady := heapAllocs() - allocs0
	after := s.srv.Stats()

	var ops, busy uint64
	var allocH, freeH Hist
	for i, c := range churners {
		ops += c.ops
		busy += c.busy
		allocH.Merge(&c.allocH)
		freeH.Merge(&c.freeH)
		r.Attempted += c.ops
		if errs[i] != nil {
			r.Fail("client %d: %v", i, errs[i])
		}
	}

	endTeardown := r.Tr.Begin("teardown")
	for i, c := range churners {
		r.Attempted++
		if err := c.drain(s.clients[i]); err != nil {
			r.Fail("client %d: %v", i, err)
		}
	}
	auditT := auditServer(r, s.srv)
	endTeardown()

	allocs := after.Allocs - before.Allocs
	borrows := after.DegradedAllocs() - before.DegradedAllocs()
	r.Note("steady: %d ops (%d allocs) in %.3f s (%.3f CPU s), %d borrows, %d ErrBusy retries",
		ops, allocs, st.elapsed.wall.Seconds(), st.elapsed.cpu.Seconds(), borrows, busy)
	// The workload's op is an Alloc call: frees are a separate, faster
	// population, and the median of both together falls in the gap
	// between them.
	opH := &allocH
	if !r.Traced {
		r.E2E("setup_s", median(physT)+median(bootT))
		r.E2E("ops_per_cpu_s", st.perCPU(ops))
		r.E2E("op_p50_us", p50us(r, opH))
		r.E2E("placed_frac", 1-ratio(float64(borrows), float64(allocs)))
		r.E2E("host_mem_mb", st.mem)
		return nil
	}
	r.Layer("wall.ops_per_s", st.perWall(ops))
	r.Layer("phys.boot_s", median(physT))
	r.Layer("serve.boot_s", median(bootT))
	r.Layer("invariant.audits", 1)
	r.Layer("invariant.audit_s", auditT.Seconds())
	reportLatency(r, "op.p50_us", "op.p99_us", opH, 1e-3)
	r.Layer("op.samples", float64(opH.Count()))
	reportLatency(r, "serve.alloc_p50_ns", "serve.alloc_p99_ns", &allocH, 1)
	reportLatency(r, "serve.free_p50_ns", "serve.free_p99_ns", &freeH, 1)
	reportServeStats(r, before, after, ops, heapAllocsSteady)
	return nil
}

// reportServeStats writes the serve layer's counters over the steady
// phase.
func reportServeStats(r *Run, before, after serve.Stats, ops, heapAllocs uint64) {
	allocs := float64(after.Allocs - before.Allocs)
	batched := float64(after.BatchedReqs - before.BatchedReqs)
	r.Layer("serve.fast_frac", 1-ratio(batched, allocs))
	r.Layer("serve.refills", float64(after.Refills-before.Refills))
	r.Layer("serve.reqs_per_batch", ratio(batched, float64(after.Batches-before.Batches)))
	r.Layer("serve.rejected", float64(after.Rejected-before.Rejected))
	r.Layer("serve.borrow_color", float64(after.Borrows[kernel.RungBorrowColor]-before.Borrows[kernel.RungBorrowColor]))
	r.Layer("serve.borrow_uncolored", float64(after.Borrows[kernel.RungLocalUncolored]-before.Borrows[kernel.RungLocalUncolored]))
	r.Layer("serve.borrow_remote", float64(after.Borrows[kernel.RungRemote]-before.Borrows[kernel.RungRemote]))
	r.Layer("serve.allocs_per_op", ratio(float64(heapAllocs), float64(ops)))
}

// reportLatency writes a histogram's p50 and p99, scaled from ns by
// scale, with the samples beyond each. A percentile the histogram
// refuses is noted and left unset, which fails a traced run.
func reportLatency(r *Run, p50Name, p99Name string, h *Hist, scale float64) {
	for _, q := range []struct {
		name string
		q    float64
	}{{p50Name, 0.5}, {p99Name, 0.99}} {
		v, beyond, err := h.Quantile(q.q)
		if err != nil {
			r.Note("%s: %v", q.name, err)
			continue
		}
		r.Layer(q.name, v*scale)
		r.Note("%s = %.4f (%d samples, %d beyond)", q.name, v*scale, h.Count(), beyond)
	}
}

// p50us returns the median of a latency histogram in µs, failing the
// run when the histogram refuses it.
func p50us(r *Run, h *Hist) float64 {
	v, beyond, err := h.Quantile(0.5)
	r.Check(err == nil, "op latency: %v", err)
	r.Note("op_p50_us = %.4f (%d samples, %d beyond)", v*1e-3, h.Count(), beyond)
	return v * 1e-3
}

// auditServer runs the cross-shard auditor on a quiesced server and
// checks that the drain left nothing outstanding.
func auditServer(r *Run, s *serve.Server) time.Duration {
	endAudit := r.Tr.Begin("invariant.audit")
	t0 := time.Now()
	rep := invariant.AuditServer(s)
	d := time.Since(t0)
	endAudit()
	err := rep.Err()
	r.Check(err == nil, "audit at quiesce: %v", err)
	r.Check(rep.Mapped == 0 && rep.Loans == 0 && rep.Unaccounted == 0,
		"dirty state after drain: %d outstanding, %d loans, %d unaccounted", rep.Mapped, rep.Loans, rep.Unaccounted)
	return d
}

// steadyResult is what the steady phase measured.
type steadyResult struct {
	elapsed dur     // the phase on both clocks
	mem     float64 // peak live heap, MiB
}

// perCPU returns ops per process CPU second of the phase.
func (st steadyResult) perCPU(ops uint64) float64 {
	return ratio(float64(ops), st.elapsed.cpu.Seconds())
}

// perWall returns ops per wall second of the phase.
func (st steadyResult) perWall(ops uint64) float64 {
	return ratio(float64(ops), st.elapsed.wall.Seconds())
}

// steadyLoad runs n load goroutines for the steady phase. Each calls
// body with the deadline and returns when it has decided the phase is
// over; the phase lasts until the last one returns.
func steadyLoad(r *Run, span string, n int, body func(i int, deadline time.Time)) steadyResult {
	runtime.GC() // garbage left by setup must not count as steady-phase heap
	endSteady := r.Tr.Begin("steady")
	defer endSteady()
	r.mem.TakePeak()
	start := r.markNow()
	deadline := start.wall.Add(r.Steady())
	var wg sync.WaitGroup
	spans := make([][2]time.Time, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			t0 := time.Now()
			body(i, deadline)
			spans[i] = [2]time.Time{t0, time.Now()}
		}(i)
	}
	wg.Wait()
	elapsed := r.since(start)
	runtime.GC() // counts the steady phase's final state in host_mem_mb
	peak := r.mem.TakePeak()
	for i, sp := range spans {
		r.Tr.Add(fmt.Sprintf("%s.%d", span, i), sp[0], sp[1])
	}
	return steadyResult{elapsed: elapsed, mem: peak}
}
