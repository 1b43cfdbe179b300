package main

import (
	"fmt"
	"reflect"
	"runtime"
	"time"

	"github.com/tintmalloc/tintmalloc/internal/bench"
	"github.com/tintmalloc/tintmalloc/internal/clock"
	"github.com/tintmalloc/tintmalloc/internal/engine"
	"github.com/tintmalloc/tintmalloc/internal/invariant"
	"github.com/tintmalloc/tintmalloc/internal/kernel"
	"github.com/tintmalloc/tintmalloc/internal/mem"
	"github.com/tintmalloc/tintmalloc/internal/phys"
	"github.com/tintmalloc/tintmalloc/internal/policy"
	"github.com/tintmalloc/tintmalloc/internal/topology"
	"github.com/tintmalloc/tintmalloc/internal/workload"
)

// simCounts are the per-layer counters of one or more simulator cells.
type simCounts struct {
	ops, accesses             uint64
	mem                       mem.CoreStats
	l3Accesses, l3Misses      uint64
	dramAcc, rowHits, rowConf uint64
	queueWait                 clock.Dur
	kern                      kernel.Stats
	degraded                  uint64
	faultCycles               clock.Dur
	mallocs, slabsTrimmed     uint64
}

func (c *simCounts) add(o simCounts) {
	c.ops += o.ops
	c.accesses += o.accesses
	c.mem.L1Hits += o.mem.L1Hits
	c.mem.L2Hits += o.mem.L2Hits
	c.mem.L3Hits += o.mem.L3Hits
	c.mem.DRAMReads += o.mem.DRAMReads
	c.mem.RemoteDRAM += o.mem.RemoteDRAM
	c.l3Accesses += o.l3Accesses
	c.l3Misses += o.l3Misses
	c.dramAcc += o.dramAcc
	c.rowHits += o.rowHits
	c.rowConf += o.rowConf
	c.queueWait += o.queueWait
	c.kern.Faults += o.kern.Faults
	c.kern.Refills += o.kern.Refills
	c.kern.RefillFrames += o.kern.RefillFrames
	c.kern.TLBHits += o.kern.TLBHits
	c.kern.TLBMisses += o.kern.TLBMisses
	c.kern.LoansRegistered += o.kern.LoansRegistered
	c.kern.CompactMoved += o.kern.CompactMoved
	c.kern.Repolicies += o.kern.Repolicies
	c.degraded += o.degraded
	c.faultCycles += o.faultCycles
	c.mallocs += o.mallocs
	c.slabsTrimmed += o.slabsTrimmed
}

// kernelCounts fills the kernel and heap counters of a finished cell.
func kernelCounts(k *kernel.Kernel, threads []engine.Thread) simCounts {
	var c simCounts
	c.kern = k.Stats()
	for _, n := range c.kern.DegradedAllocs {
		c.degraded += n
	}
	for _, th := range threads {
		hs := th.Heap.Stats()
		c.mallocs += hs.Mallocs
		c.slabsTrimmed += hs.SlabsTrimmed
	}
	return c
}

// memCounts fills the memory-system counters of a finished cell.
func memCounts(c *simCounts, ms *mem.System) {
	c.mem = ms.TotalStats()
	l3 := ms.L3Stats()
	c.l3Accesses, c.l3Misses = l3.Accesses, l3.Misses
	d := ms.DRAM().TotalStats()
	c.dramAcc, c.rowHits, c.rowConf, c.queueWait = d.Accesses, d.RowHits, d.RowConflicts, d.QueueWait
}

// report writes the engine, kernel and heap layers' per-layer metrics.
func (c *simCounts) report(r *Run) {
	r.Layer("engine.ops", float64(c.ops))
	r.Layer("kernel.faults", float64(c.kern.Faults))
	r.Layer("kernel.refills", float64(c.kern.Refills))
	r.Layer("kernel.refill_frames", float64(c.kern.RefillFrames))
	r.Layer("kernel.tlb_miss_frac", ratio(float64(c.kern.TLBMisses), float64(c.kern.TLBHits+c.kern.TLBMisses)))
	r.Layer("kernel.degraded", float64(c.degraded))
	r.Layer("kernel.loans_registered", float64(c.kern.LoansRegistered))
	r.Layer("kernel.compact_moved", float64(c.kern.CompactMoved))
	r.Layer("kernel.repolicies", float64(c.kern.Repolicies))
	r.Layer("kernel.fault_cycles", float64(c.faultCycles))
	r.Layer("heap.mallocs", float64(c.mallocs))
	r.Layer("heap.slabs_trimmed", float64(c.slabsTrimmed))
}

// reportMem writes the memory-system layers' per-layer metrics, for
// cells whose mem.System the benchmark could read.
func (c *simCounts) reportMem(r *Run) {
	r.Layer("engine.accesses", float64(c.accesses))
	r.Layer("mem.l1_hits", float64(c.mem.L1Hits))
	r.Layer("mem.l2_hits", float64(c.mem.L2Hits))
	r.Layer("mem.l3_hits", float64(c.mem.L3Hits))
	r.Layer("mem.dram_reads", float64(c.mem.DRAMReads))
	r.Layer("mem.remote_dram_frac", ratio(float64(c.mem.RemoteDRAM), float64(c.mem.DRAMReads)))
	r.Layer("cache.l3_miss_rate", ratio(float64(c.l3Misses), float64(c.l3Accesses)))
	r.Layer("dram.accesses", float64(c.dramAcc))
	r.Layer("dram.row_hit_frac", ratio(float64(c.rowHits), float64(c.dramAcc)))
	r.Layer("dram.row_conflict_frac", ratio(float64(c.rowConf), float64(c.dramAcc)))
	r.Layer("dram.queue_wait_cycles", float64(c.queueWait))
}

// simTimes accumulates host time per simulator layer. Build and run
// are read on both clocks; the replays and audits on the wall clock.
type simTimes struct {
	build, run                        dur
	replayMem, replayTranslate, audit time.Duration
	audits                            int
	replayed, translated              uint64
}

func (t *simTimes) add(o simTimes) {
	t.build.add(o.build)
	t.run.add(o.run)
	t.replayMem += o.replayMem
	t.replayTranslate += o.replayTranslate
	t.audit += o.audit
	t.audits += o.audits
	t.replayed += o.replayed
	t.translated += o.translated
}

// simBoot runs the simulator setup phase repeatedly — machine boot
// (mapping, PCI round trip) and the aged-zone build that the machine
// caches for every later kernel — and returns the last machine with
// the median CPU time of each part.
func simBoot(r *Run, build func() (*bench.Machine, error)) (mach *bench.Machine, physT, kernT float64, err error) {
	var physS, kernS []float64
	for i, start := 0, time.Now(); moreSetup(i, start); i++ {
		end := r.Tr.Begin("setup")
		t0 := r.markNow()
		endPhys := r.Tr.Begin("phys.boot")
		m, err := build()
		endPhys()
		if err != nil {
			end()
			return nil, 0, 0, err
		}
		t1 := r.markNow()
		endKern := r.Tr.Begin("kernel.boot")
		_, err = m.NewKernel(0)
		endKern()
		end()
		if err != nil {
			return nil, 0, 0, err
		}
		physS = append(physS, t1.sub(t0).cpu.Seconds())
		kernS = append(kernS, r.since(t1).cpu.Seconds())
		mach = m
	}
	return mach, median(physS), median(kernS), nil
}

// timedBuild wraps a workload's Build so the benchmark can time the
// build and mark where engine.Run begins: *runStart reads the instant
// Build returned and *endRun closes the engine.run span.
func timedBuild(r *Run, w workload.Workload, times *simTimes, threads *[]engine.Thread, runStart *mark, endRun *func()) workload.Workload {
	orig := w.Build
	w.Build = func(th []engine.Thread, p workload.Params) ([]engine.Phase, error) {
		endBuild := r.Tr.Begin("workload.build")
		t0 := r.markNow()
		ph, err := orig(th, p)
		*runStart = r.markNow()
		endBuild()
		times.build.add(runStart.sub(t0))
		*threads = th
		*endRun = r.Tr.Begin("engine.run")
		return ph, err
	}
	return w
}

// lbmCell is one finished RunInstrumented cell.
type lbmCell struct {
	m      bench.RunMetrics
	counts simCounts
}

// runLBMCell runs one cell through bench.RunInstrumented. With a
// non-nil log it records the access stream and replays it through a
// fresh memory system and the quiesced kernel's Translate.
func runLBMCell(r *Run, mach *bench.Machine, spec bench.RunSpec, times *simTimes, log *accessLog) (lbmCell, error) {
	var (
		k        *kernel.Kernel
		e        *engine.Engine
		threads  []engine.Thread
		runStart mark
		endRun   = func() {}
	)
	endCell := r.Tr.Begin("cell")
	defer endCell()
	spec.Workload = timedBuild(r, spec.Workload, times, &threads, &runStart, &endRun)
	m, err := bench.RunInstrumented(mach, spec, func(kk *kernel.Kernel, ee *engine.Engine) {
		k, e = kk, ee
		if log != nil {
			log.reset(ee)
			ee.SetTracer(log.record)
		}
	})
	run := r.since(runStart)
	endRun()
	if err != nil {
		return lbmCell{}, err
	}
	times.run.add(run)
	runtime.GC() // counts the cell's machine state, still live here, in host_mem_mb
	r.mem.sample()

	c := lbmCell{m: m, counts: kernelCounts(k, threads)}
	memCounts(&c.counts, e.Mem())
	c.counts.ops = m.Ops
	c.counts.accesses = c.counts.mem.Accesses
	c.counts.faultCycles = m.FaultCycles

	endAudit := r.Tr.Begin("invariant.audit")
	t0 := time.Now()
	aerr := invariant.Audit(k).Err()
	times.audit += time.Since(t0)
	times.audits++
	endAudit()
	r.Check(aerr == nil, "%s/%s: audit at quiesce: %v", spec.Workload.Name, spec.Policy, aerr)

	if log != nil {
		if err := log.replay(r, mach, times); err != nil {
			return lbmCell{}, err
		}
	}
	return c, nil
}

// accessLog is the traced access stream of one cell, packed to keep a
// 4M-access cell near 130 MB.
type accessLog struct {
	cores  []uint8 // thread -> core
	tasks  []*kernel.Task
	events []accessEvent
	bad    int // events whose latency did not fit the packing
}

type accessEvent struct {
	va, pa uint64
	t      clock.Time // instant the access reached the memory system
	lat    uint32     // done - t
	thread uint8
	flags  uint8 // level | write<<7
}

func (l *accessLog) reset(e *engine.Engine) {
	l.events = l.events[:0] // keeps the capacity a previous cell grew
	l.cores, l.tasks, l.bad = l.cores[:0], l.tasks[:0], 0
	for _, th := range e.Threads() {
		l.cores = append(l.cores, uint8(th.Task.Core()))
		l.tasks = append(l.tasks, th.Task)
	}
}

func (l *accessLog) record(ev engine.TraceEvent) {
	t := ev.Start + clock.Time(ev.FaultCycles)
	lat := uint64(ev.Done - t)
	if lat > 1<<32-1 {
		l.bad++
	}
	flags := uint8(ev.Level)
	if ev.Write {
		flags |= 1 << 7
	}
	l.events = append(l.events, accessEvent{va: ev.VA, pa: uint64(ev.PA), t: t, lat: uint32(lat), thread: uint8(ev.Thread), flags: flags})
}

// replay re-runs the recorded accesses through a fresh memory system
// (which must return every traced completion instant and level) and
// through Task.Translate on the quiesced kernel (which must return
// every traced physical address).
func (l *accessLog) replay(r *Run, mach *bench.Machine, times *simTimes) error {
	r.Check(l.bad == 0, "access log: %d latencies overflowed the packing", l.bad)
	ms, err := mem.New(mach.Topo, mach.Mapping, mach.MemCfg)
	if err != nil {
		return err
	}
	mismatch := 0
	endMem := r.Tr.Begin("mem.replay")
	t0 := time.Now()
	for i := range l.events {
		ev := &l.events[i]
		done, level := ms.AccessLevel(topology.CoreID(l.cores[ev.thread]), phys.Addr(ev.pa), ev.flags&(1<<7) != 0, ev.t)
		if done != ev.t+clock.Time(ev.lat) || level != mem.Level(ev.flags&0x7f) {
			mismatch++
		}
	}
	times.replayMem += time.Since(t0)
	endMem()
	r.Check(mismatch == 0, "mem replay: %d of %d accesses returned a different (done, level)", mismatch, len(l.events))

	mismatch = 0
	endTr := r.Tr.Begin("kernel.translate_replay")
	t0 = time.Now()
	for i := range l.events {
		ev := &l.events[i]
		pa, _, err := l.tasks[ev.thread].Translate(ev.va)
		if err != nil || uint64(pa) != ev.pa {
			mismatch++
		}
	}
	times.replayTranslate += time.Since(t0)
	endTr()
	r.Check(mismatch == 0, "translate replay: %d of %d translations returned a different PA", mismatch, len(l.events))
	times.replayed += uint64(len(l.events))
	times.translated += uint64(len(l.events))
	return nil
}

// runSimLBM drives sim_lbm: lbm on 16_threads_4_nodes of the standard
// aged 2 GiB machine, under buddy and then MEM+LLC, repeated for the
// steady phase.
func runSimLBM(r *Run) error {
	mach, physT, kernT, err := simBoot(r, func() (*bench.Machine, error) {
		return bench.NewMachine(bench.MachineOptions{})
	})
	if err != nil {
		return err
	}
	cfg, err := bench.ConfigByName(mach.Topo, "16_threads_4_nodes")
	if err != nil {
		return err
	}
	params := workload.Params{Seed: r.Seed, Scale: 1}
	specs := []bench.RunSpec{
		{Workload: workload.LBM(), Config: cfg, Policy: policy.Buddy, Params: params},
		{Workload: workload.LBM(), Config: cfg, Policy: policy.MEMLLC, Params: params},
	}
	var log *accessLog
	var base simTimes
	if r.Traced {
		// One untraced pair first: its engine time is the baseline the
		// tracing overhead is measured against.
		for _, spec := range specs {
			if _, err := runLBMCell(r, mach, spec, &base, nil); err != nil {
				return err
			}
		}
		log = &accessLog{}
	}
	times, reps, first := simSteady(r, len(specs), func(i int, t *simTimes) (any, uint64, error) {
		c, err := runLBMCell(r, mach, specs[i], t, log)
		return c, c.m.Ops, err
	})
	if len(first) < len(specs) {
		return nil // the failure is recorded
	}
	cells := make([]lbmCell, 0, len(specs))
	for _, m := range first {
		cells = append(cells, m.(lbmCell))
	}
	buddy, colored := cells[0], cells[1]
	speedup := ratio(float64(buddy.m.Runtime), float64(colored.m.Runtime))
	r.Note("sim_speedup %.6f (buddy %d / MEM+LLC %d simulated cycles)", speedup, buddy.m.Runtime, colored.m.Runtime)
	build := times.build.cpu.Seconds() / float64(reps*len(specs))
	if !r.Traced {
		r.E2E("setup_s", physT+kernT+build)
		r.E2E("placed_frac", 1-ratio(float64(colored.counts.degraded), float64(colored.counts.kern.Faults)))
		return nil
	}
	var c simCounts
	for _, cell := range cells {
		c.add(cell.counts)
	}
	c.report(r)
	c.reportMem(r)
	perRep := func(d time.Duration) float64 { return d.Seconds() / float64(reps) }
	r.Layer("phys.boot_s", physT)
	r.Layer("kernel.boot_s", kernT)
	r.Layer("workload.build_s", build)
	r.Layer("engine.run_s", perRep(times.run.wall))
	r.Layer("engine.self_s", perRep(times.run.wall-times.replayMem-times.replayTranslate))
	r.Layer("mem.access_ns", ratio(float64(times.replayMem.Nanoseconds()), float64(times.replayed)))
	r.Layer("mem.replay_s", perRep(times.replayMem))
	r.Layer("kernel.translate_ns", ratio(float64(times.replayTranslate.Nanoseconds()), float64(times.translated)))
	r.Layer("invariant.audits", float64(times.audits))
	r.Layer("invariant.audit_s", times.audit.Seconds())
	r.Layer("trace.overhead_frac", perRep(times.run.wall)/base.run.wall.Seconds()-1)
	r.Layer("sim.speedup", speedup)
	return nil
}

// simSteady is the simulator steady phase: it repeats the workload's
// cells (cell(i) runs cell i and returns its comparable outcome and
// engine ops) until the phase ends, at least once, and checks every
// repetition against the first. It sets ops_per_cpu_s and op_p50_us
// from the process CPU time of each repetition's engine intervals, as
// medians over repetitions; op_p50_us is CPU µs per engine op, so it
// is the reciprocal of ops_per_cpu_s, not a second measurement. It also
// sets host_mem_mb. A failed cell ends the phase early.
func simSteady(r *Run, cells int, cell func(i int, t *simTimes) (any, uint64, error)) (simTimes, int, []any) {
	var total simTimes
	var first []any
	var rates, cpuPerOp, wallRates []float64
	runtime.GC() // garbage left by setup must not count as steady-phase heap
	r.mem.TakePeak()
	endSteady := r.Tr.Begin("steady")
	defer endSteady()
	deadline := time.Now().Add(r.Steady())
	reps := 0
	for ; reps == 0 || time.Now().Before(deadline); reps++ {
		var t simTimes
		var ops uint64
		for i := 0; i < cells; i++ {
			r.Attempted++
			out, n, err := cell(i, &t)
			if err != nil {
				r.Fail("%s cell %d: %v", r.Workload, i, err)
				return total, reps + 1, first
			}
			ops += n
			if reps == 0 {
				first = append(first, out)
				continue
			}
			r.Check(reflect.DeepEqual(out, first[i]), "%s cell %d repetition %d differs from the first", r.Workload, i, reps)
		}
		rates = append(rates, float64(ops)/t.run.cpu.Seconds())
		wallRates = append(wallRates, float64(ops)/t.run.wall.Seconds())
		cpuPerOp = append(cpuPerOp, float64(t.run.cpu.Nanoseconds())/1e3/float64(ops))
		total.add(t)
	}
	r.E2E("ops_per_cpu_s", median(rates))
	r.E2E("op_p50_us", median(cpuPerOp))
	r.E2E("host_mem_mb", r.mem.TakePeak())
	r.Layer("wall.ops_per_s", median(wallRates))
	r.Note("%d repetitions; engine ops per CPU second %.0f, per wall second %.0f", reps, rates, wallRates)
	return total, reps, first
}

// runSimHeteroMix drives sim_heteromix: the adaptive machine running
// heteromix on 4_threads_1_nodes as buddy, static MEM and adaptive(MEM)
// cells through bench.RunAdaptive, with the audit at every barrier.
func runSimHeteroMix(r *Run) error {
	mach, physT, kernT, err := simBoot(r, func() (*bench.Machine, error) {
		return bench.NewAdaptiveMachine(false)
	})
	if err != nil {
		return err
	}
	cfg, err := bench.ConfigByName(mach.Topo, "4_threads_1_nodes")
	if err != nil {
		return err
	}
	params := workload.Params{Seed: r.Seed, Scale: 1}
	opts := []bench.AdaptiveOptions{
		{Initial: policy.Buddy},
		{Initial: policy.MEMOnly},
		{Initial: policy.MEMOnly, Adaptive: true, CompactBudget: bench.AdaptiveCompactBudget},
	}
	for i := range opts {
		opts[i].Workload, opts[i].Config, opts[i].Params = bench.AdaptiveWorkload(), cfg, params
	}
	times, reps, first := simSteady(r, len(opts), func(i int, t *simTimes) (any, uint64, error) {
		c, err := runAdaptiveCell(r, mach, opts[i], t)
		return c, c.row.Metrics.Ops, err
	})
	if len(first) < len(opts) {
		return nil // the failure is recorded
	}
	cells := make([]adaptiveCell, 0, len(opts))
	for _, c := range first {
		cells = append(cells, c.(adaptiveCell))
	}
	buddy, static, adaptive := cells[0].row, cells[1].row, cells[2].row
	r.Note("buddy %d, MEM %d, adaptive(MEM) %d simulated cycles; degraded MEM %d adaptive %d; repolicies %d; compacted %d",
		buddy.Metrics.Runtime, static.Metrics.Runtime, adaptive.Metrics.Runtime,
		static.DegradedTotal(), adaptive.DegradedTotal(), adaptive.Repolicies, adaptive.Compact.PagesMoved)
	build := times.build.cpu.Seconds() / float64(reps*len(opts))
	if !r.Traced {
		r.E2E("setup_s", physT+kernT+build)
		r.E2E("placed_frac", 1-ratio(float64(cells[2].counts.degraded), float64(cells[2].counts.kern.Faults)))
		return nil
	}
	var c simCounts
	for _, cell := range cells {
		c.add(cell.counts)
	}
	c.report(r)
	// RunAdaptive exposes the memory system only through its ratios;
	// report those of the adaptive cell.
	r.Layer("mem.remote_dram_frac", adaptive.Metrics.RemoteDRAMFrac)
	r.Layer("cache.l3_miss_rate", adaptive.Metrics.L3MissRate)
	r.Layer("dram.row_conflict_frac", adaptive.Metrics.RowConflictFrac)
	run := times.run.wall.Seconds() / float64(reps)
	r.Layer("phys.boot_s", physT)
	r.Layer("kernel.boot_s", kernT)
	r.Layer("workload.build_s", build)
	r.Layer("engine.run_s", run)
	r.Layer("engine.self_s", run) // nothing below the engine is replayed here
	r.Layer("invariant.audits", float64(times.audits))
	r.Layer("invariant.audit_s", times.audit.Seconds())
	r.Layer("sim.speedup", ratio(float64(buddy.Metrics.Runtime), float64(adaptive.Metrics.Runtime)))
	return nil
}

// quiesceAudits is how many times runAdaptiveCell audits each quiesced
// kernel; the median prices the cell's barrier audits.
const quiesceAudits = 5

// adaptiveCell is one finished RunAdaptive cell.
type adaptiveCell struct {
	row    bench.AdaptiveRow
	counts simCounts
}

// runAdaptiveCell runs one cell through bench.RunAdaptive and audits
// the quiesced kernel.
func runAdaptiveCell(r *Run, mach *bench.Machine, o bench.AdaptiveOptions, t *simTimes) (adaptiveCell, error) {
	var (
		threads  []engine.Thread
		runStart mark
		endRun   = func() {}
	)
	endCell := r.Tr.Begin("cell")
	defer endCell()
	o.Workload = timedBuild(r, o.Workload, t, &threads, &runStart, &endRun)
	row, err := bench.RunAdaptive(mach, o)
	run := r.since(runStart)
	endRun()
	if err == nil && row.OOM {
		err = fmt.Errorf("out of memory")
	}
	if err != nil {
		return adaptiveCell{}, fmt.Errorf("%s: %w", row.Policy, err)
	}
	k := threads[0].Task.Process().Kernel()
	runtime.GC() // counts the cell's kernel and heaps, still live here, in host_mem_mb
	r.mem.sample()
	// RunAdaptive audits at every barrier inside engine.Run. Those
	// audits are charged to the invariant layer, estimated at the median
	// cost of quiesceAudits timed audits of the quiesced kernel, and
	// taken out of the engine interval on both clocks.
	var walls, cpus []float64
	for i := 0; i < quiesceAudits; i++ {
		endAudit := r.Tr.Begin("invariant.audit")
		t0 := r.markNow()
		aerr := invariant.Audit(k).Err()
		d := r.since(t0)
		endAudit()
		r.Check(aerr == nil, "heteromix/%s: audit at quiesce: %v", row.Policy, aerr)
		walls = append(walls, float64(d.wall))
		cpus = append(cpus, float64(d.cpu))
		t.audit += d.wall
	}
	r.Check(row.Audits > 0, "heteromix/%s: no barrier audit ran", row.Policy)
	n := float64(row.Audits)
	run.wall -= time.Duration(n * median(walls))
	run.cpu -= time.Duration(n * median(cpus))
	t.run.add(run)
	t.audit += time.Duration(n * median(walls))
	t.audits += quiesceAudits + row.Audits

	c := adaptiveCell{row: row, counts: kernelCounts(k, threads)}
	c.counts.ops = row.Metrics.Ops
	c.counts.faultCycles = row.Metrics.FaultCycles
	return c, nil
}
