package main

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"github.com/tintmalloc/tintmalloc/internal/phys"
	"github.com/tintmalloc/tintmalloc/internal/policy"
	"github.com/tintmalloc/tintmalloc/internal/sched"
	"github.com/tintmalloc/tintmalloc/internal/serve"
	"github.com/tintmalloc/tintmalloc/internal/topology"
	"github.com/tintmalloc/tintmalloc/internal/wire"
)

// wireMemBytes sizes wire_churn's machine: the standard 2 GiB, where a
// 16-core MEM+LLC plan gives each claim 2048 frames, more than any
// generated task's live set.
const wireMemBytes = 2 << 30

// Round shape: each round the data plane does dataRound Alloc/Free
// calls while the task plane spawns taskBatch generated tasks and runs
// them to exit with one TaskRun under round-robin on taskCores
// simulated cores. The two take about as long on the machine the
// benchmark was tuned on (about 12 ms).
const (
	dataRound = 1536
	taskBatch = 8
	taskCores = 4
)

// dataCore is the data-plane session's core. The task plane's
// dispatch-time plan hands tasks the colors of cores 0..taskBatch-1,
// so the data plane's claim (the plan's entry for this core) never
// overlaps them.
const dataCore = 15

// wireSetup is one booted daemon with its two client connections.
type wireSetup struct {
	d          *wire.Daemon
	m          *phys.Mapping
	dir        string
	serveDone  chan error
	data, task *wire.Client
	plan       policy.Assignment
	supply     int
}

// wireBootTimes are the setup phase's parts: CPU time of the mapping
// build and of the daemon boot with its listener and two dials, and
// the Hello exchange on both clocks.
type wireBootTimes struct {
	phys, boot time.Duration
	hello      dur
}

func bootWire(r *Run, topo *topology.Topology) (*wireSetup, wireBootTimes, error) {
	var bt wireBootTimes
	t0 := r.markNow()
	endPhys := r.Tr.Begin("phys.boot")
	m, err := phys.DefaultSeparable(wireMemBytes, topo.Nodes())
	endPhys()
	if err != nil {
		return nil, bt, err
	}
	t1 := r.markNow()
	bt.phys = t1.sub(t0).cpu
	endBoot := r.Tr.Begin("wire.boot")
	d, err := wire.NewDaemon(topo, m, serve.Config{})
	if err != nil {
		endBoot()
		return nil, bt, err
	}
	s := &wireSetup{d: d, m: m, serveDone: make(chan error, 1)}
	// The socket lives under the scratch directory by a relative path,
	// which keeps it inside the checkout and short of the socket path
	// limit.
	s.dir, err = os.MkdirTemp(r.Dir, "sock")
	var l net.Listener
	if err == nil {
		l, err = net.Listen("unix", filepath.Join(s.dir, "d.sock"))
	}
	if err != nil {
		endBoot()
		d.Close()
		os.RemoveAll(s.dir)
		return nil, bt, err
	}
	go func() { s.serveDone <- d.Serve(l) }()
	addr := l.Addr().String()
	s.data, err = wire.Dial("unix", addr)
	if err == nil {
		s.task, err = wire.Dial("unix", addr)
	}
	endBoot()
	if err != nil {
		s.shutdown()
		return nil, bt, err
	}
	bt.boot = r.since(t1).cpu

	cores := make([]topology.CoreID, topo.Cores())
	for i := range cores {
		cores[i] = topology.CoreID(i)
	}
	asn, err := policy.Plan(policy.MEMLLC, m, topo, cores)
	if err != nil {
		s.shutdown()
		return nil, bt, err
	}
	s.plan = asn[dataCore]
	s.supply = colorSupply(m, s.plan)
	endHello := r.Tr.Begin("wire.hello")
	t3 := r.markNow()
	err = s.data.Hello(topology.CoreID(dataCore), s.plan.BankColors, s.plan.LLCColors)
	bt.hello = r.since(t3)
	endHello()
	if err != nil {
		s.shutdown()
		return nil, bt, err
	}
	return s, bt, nil
}

// shutdown tears a setup down on an error path or after a setup
// repetition, keeping the first error it sees.
func (s *wireSetup) shutdown() error {
	var first error
	keep := func(err error) {
		if err != nil && first == nil {
			first = err
		}
	}
	if s.data != nil {
		keep(s.data.Goodbye())
	}
	if s.task != nil {
		keep(s.task.Goodbye())
	}
	keep(s.d.Close())
	keep(<-s.serveDone)
	keep(os.RemoveAll(s.dir))
	return first
}

// wireTeardown says goodbye on both connections, closes the daemon
// (which audits at quiesce), audits the closed server once more and
// checks that no session left frames behind. It returns the close and
// audit times and the daemon's counters.
func wireTeardown(r *Run, s *wireSetup) (closeT, auditT time.Duration, ds wire.DaemonStats) {
	r.Check(s.data.Goodbye() == nil, "data plane goodbye failed")
	r.Check(s.task.Goodbye() == nil, "task plane goodbye failed")
	endClose := r.Tr.Begin("wire.close")
	t0 := time.Now()
	closeErr := s.d.Close()
	closeT = time.Since(t0)
	endClose()
	r.Check(closeErr == nil, "daemon close (quiesce audit): %v", closeErr)
	serveErr := <-s.serveDone
	r.Check(serveErr == nil, "daemon serve loop: %v", serveErr)
	if err := os.RemoveAll(s.dir); err != nil {
		r.Fail("remove socket directory: %v", err)
	}
	auditT = auditServer(r, s.d.Server())
	ds = s.d.Stats()
	r.Check(ds.Reclaimed == 0 && ds.ReclaimFailed == 0,
		"goodbyes left reclaim work: %d reclaimed, %d failed", ds.Reclaimed, ds.ReclaimFailed)
	return closeT, auditT, ds
}

// taskSpecs generates one task-plane batch from the run's seed.
func taskSpecs(rng *splitmix) []sched.Spec {
	specs := make([]sched.Spec, taskBatch)
	for i := range specs {
		specs[i] = sched.Spec{
			Arrival: uint32(rng.intn(3)),
			Ops:     uint32(3000 + rng.intn(6000)),
			Seed:    int64(rng.next()>>2) + 1,
		}
		if i%2 == 1 {
			specs[i].BlockEvery = uint32(20 + rng.intn(40))
			specs[i].BlockFor = uint32(1 + rng.intn(3))
		}
	}
	return specs
}

// taskPlane is the task-plane connection's accounting.
type taskPlane struct {
	runs                          uint64
	ops                           uint64
	dispatches, preemptions, blks uint64
	idleCores, coreTicks          uint64
	runH                          Hist // TaskRun latency in ns
	err                           error
}

// runBatch spawns one generated batch and runs it, checking that every
// task exits cleanly.
func (tp *taskPlane) runBatch(r *Run, c *wire.Client, rng *splitmix) error {
	for i, sp := range taskSpecs(rng) {
		if _, err := c.TaskSpawn(sp); err != nil {
			return fmt.Errorf("spawn %d: %w", i, err)
		}
	}
	t0 := time.Now()
	res, err := c.TaskRun(sched.Config{Policy: sched.RR, Quantum: 16, Cores: taskCores})
	if err != nil {
		return fmt.Errorf("task run: %w", err)
	}
	tp.runH.Record(uint64(time.Since(t0)))
	for i, tr := range res.Tasks {
		if tr.State != sched.StateExit || tr.Err != "" {
			return fmt.Errorf("task %d of run %d ended %v (%s)", i, tp.runs, tr.State, tr.Err)
		}
	}
	tp.runs++
	tp.ops += res.Ops
	tp.dispatches += res.Dispatches
	tp.preemptions += res.Preemptions
	tp.blks += res.Blocks
	tp.idleCores += res.IdleCores
	tp.coreTicks += res.Ticks * taskCores
	return nil
}

// runWireChurn drives wire_churn: an in-process daemon on a unix
// socket with two closed-loop connections, a per-frame Alloc/Free data
// plane whose live set stays inside its colored supply and a task
// plane repeating TaskSpawn batches and a TaskRun under RR, in
// lockstep rounds.
func runWireChurn(r *Run) error {
	topo := topology.Opteron6128()
	var s *wireSetup
	var physT, bootT, helloT, helloWall []float64
	for i, start := 0, time.Now(); moreSetup(i, start); i++ {
		endSetup := r.Tr.Begin("setup")
		next, bt, err := bootWire(r, topo)
		endSetup()
		if err != nil {
			return err
		}
		if s != nil {
			if err := s.shutdown(); err != nil {
				return fmt.Errorf("setup repetition teardown: %w", err)
			}
		}
		s = next
		physT = append(physT, bt.phys.Seconds())
		bootT = append(bootT, bt.boot.Seconds())
		helloT = append(helloT, bt.hello.cpu.Seconds())
		helloWall = append(helloWall, bt.hello.wall.Seconds())
	}

	data := &churner{rng: newSplitmix(r.Seed, 0), low: s.supply / 8, high: s.supply / 2}
	taskRNG := newSplitmix(r.Seed, 1)
	var tp taskPlane
	r.Note("data-plane colored supply %d frames; live set cycles between 1/8 and 1/2 of it", s.supply)

	before := s.d.Server().Stats()
	allocs0 := heapAllocs()
	var dataErr error
	// The planes run in lockstep rounds: per round the data plane does
	// dataRound ops while the task plane runs one batch, so every steady
	// phase has the same mix of frame traffic and daemon-side work.
	step := newLockstep(2)
	st := steadyLoad(r, "wire.plane", 2, func(i int, deadline time.Time) {
		for {
			if i == 1 {
				if err := tp.runBatch(r, s.task, taskRNG); err != nil {
					tp.err = err
					step.abort()
					return
				}
			} else {
				for k := 0; k < dataRound; k++ {
					if err := data.step(s.data, r.Traced); err != nil {
						dataErr = err
						step.abort()
						return
					}
				}
			}
			if step.wait(deadline) {
				return
			}
		}
	})
	heapAllocsSteady := heapAllocs() - allocs0
	after := s.d.Server().Stats()
	r.Attempted += data.ops + tp.runs
	if dataErr != nil {
		r.Fail("data plane: %v", dataErr)
	}
	if tp.err != nil {
		r.Fail("task plane: %v", tp.err)
	}

	endTeardown := r.Tr.Begin("teardown")
	r.Attempted++
	if err := data.drain(s.data); err != nil {
		r.Fail("data plane: %v", err)
	}
	closeT, auditT, ds := wireTeardown(r, s)
	endTeardown()

	allocs := after.Allocs - before.Allocs
	borrows := after.DegradedAllocs() - before.DegradedAllocs()
	r.Note("steady: %d data-plane ops, %d task runs with %d ops, %d borrows of %d allocs",
		data.ops, tp.runs, tp.ops, borrows, allocs)
	opH := &data.allocH // the workload's op is an Alloc call, as on serve_churn
	if !r.Traced {
		r.E2E("setup_s", median(physT)+median(bootT)+median(helloT))
		r.E2E("ops_per_cpu_s", st.perCPU(data.ops+tp.ops))
		r.E2E("op_p50_us", p50us(r, opH))
		r.E2E("placed_frac", 1-ratio(float64(borrows), float64(allocs)))
		r.E2E("host_mem_mb", st.mem)
		return nil
	}

	r.Layer("wall.ops_per_s", st.perWall(data.ops+tp.ops))
	r.Layer("phys.boot_s", median(physT))
	r.Layer("wire.boot_s", median(bootT))
	r.Layer("wire.hello_us", median(helloWall)*1e6)
	r.Layer("wire.close_s", closeT.Seconds())
	r.Layer("wire.reclaimed", float64(ds.Reclaimed))
	r.Layer("invariant.audits", 2)
	r.Layer("invariant.audit_s", auditT.Seconds())
	reportLatency(r, "op.p50_us", "op.p99_us", opH, 1e-3)
	r.Layer("op.samples", float64(opH.Count()))
	reportLatency(r, "wire.alloc_p50_us", "wire.alloc_p99_us", &data.allocH, 1e-3)
	if v, _, err := data.freeH.Quantile(0.5); err == nil {
		r.Layer("wire.free_p50_us", v*1e-3)
	}
	reportServeStats(r, before, after, data.ops+tp.ops, heapAllocsSteady)

	codec := replayCodec(r, data.log, data.frames)
	r.Layer("wire.codec_ns", codec)
	allocH, freeH, err := replayServe(r, topo, s.m, s.plan, data.log)
	if err != nil {
		r.Fail("%v", err)
		return nil
	}
	reportLatency(r, "serve.alloc_p50_ns", "serve.alloc_p99_ns", &allocH, 1)
	reportLatency(r, "serve.free_p50_ns", "serve.free_p99_ns", &freeH, 1)
	wireAlloc, _, err1 := data.allocH.Quantile(0.5)
	serveAlloc, _, err2 := allocH.Quantile(0.5)
	if err1 == nil && err2 == nil {
		r.Layer("wire.transport_us", (wireAlloc-codec-serveAlloc)*1e-3)
	}

	if v, beyond, err := tp.runH.Quantile(0.5); err == nil {
		r.Layer("sched.taskrun_p50_ms", v*1e-6)
		r.Note("sched.taskrun_p50_ms = %.4f (%d runs, %d beyond)", v*1e-6, tp.runH.Count(), beyond)
	} else {
		r.Note("sched.taskrun_p50_ms: %v", err)
	}
	r.Layer("sched.ops_per_s", st.perWall(tp.ops))
	r.Layer("sched.dispatches", float64(tp.dispatches))
	r.Layer("sched.preemptions", float64(tp.preemptions))
	r.Layer("sched.blocks", float64(tp.blks))
	r.Layer("sched.idle_core_frac", ratio(float64(tp.idleCores), float64(tp.coreTicks)))
	return nil
}

// replayCodec re-encodes and decodes every logged data-plane exchange
// (request and reply frame) through wire.WriteFrame/ReadFrame on an
// in-memory buffer, checking each decodes to what was encoded. It
// returns the mean nanoseconds per exchange.
func replayCodec(r *Run, log []uint32, frames []phys.Frame) float64 {
	var buf bytes.Buffer
	rbuf := make([]byte, 64)
	var payload [8]byte
	bad := 0
	endCodec := r.Tr.Begin("wire.codec_replay")
	t0 := time.Now()
	for i, op := range log {
		binary.BigEndian.PutUint64(payload[:], uint64(frames[i]))
		reqT, reqP, repT, repP := wire.MsgAlloc, []byte(nil), wire.MsgAllocReply, payload[:]
		if op&opFree != 0 {
			reqT, reqP, repT, repP = wire.MsgFree, payload[:], wire.MsgFreeReply, nil
		}
		for _, fr := range [2]struct {
			t wire.MsgType
			p []byte
		}{{reqT, reqP}, {repT, repP}} {
			if err := wire.WriteFrame(&buf, fr.t, fr.p); err != nil {
				bad++
				continue
			}
			t, p, err := wire.ReadFrame(&buf, rbuf)
			if err != nil || t != fr.t || !bytes.Equal(p, fr.p) {
				bad++
			}
		}
	}
	d := time.Since(t0)
	endCodec()
	r.Check(bad == 0, "codec replay: %d of %d frames did not round-trip", bad, 2*len(log))
	if len(log) == 0 {
		return 0
	}
	return float64(d.Nanoseconds()) / float64(len(log))
}

// replayServe replays the logged data-plane op stream through an
// in-process serve.Client with the session's core and colors on a
// fresh server over the same mapping, timing each call.
func replayServe(r *Run, topo *topology.Topology, m *phys.Mapping, plan policy.Assignment, log []uint32) (allocH, freeH Hist, err error) {
	endReplay := r.Tr.Begin("serve.replay")
	defer endReplay()
	srv, err := serve.New(topo, m, serve.Config{})
	if err != nil {
		return allocH, freeH, err
	}
	defer srv.Close()
	c, err := srv.NewClient(topology.CoreID(dataCore))
	if err == nil {
		err = c.SetColors(plan.BankColors, plan.LLCColors)
	}
	if err != nil {
		return allocH, freeH, err
	}
	var live []phys.Frame
	for _, op := range log {
		if op&opFree != 0 {
			j := int(op &^ opFree)
			if j >= len(live) {
				return allocH, freeH, fmt.Errorf("serve replay: free of index %d with %d live", j, len(live))
			}
			t0 := time.Now()
			if err := c.Free(live[j]); err != nil {
				return allocH, freeH, fmt.Errorf("serve replay: %w", err)
			}
			freeH.Record(uint64(time.Since(t0)))
			last := len(live) - 1
			live[j] = live[last]
			live = live[:last]
			continue
		}
		for {
			t0 := time.Now()
			f, err := c.Alloc()
			if errors.Is(err, serve.ErrBusy) {
				runtime.Gosched()
				continue
			}
			if err != nil {
				return allocH, freeH, fmt.Errorf("serve replay: %w", err)
			}
			allocH.Record(uint64(time.Since(t0)))
			live = append(live, f)
			break
		}
	}
	for _, f := range live {
		if err := c.Free(f); err != nil {
			return allocH, freeH, fmt.Errorf("serve replay drain: %w", err)
		}
	}
	auditServer(r, srv)
	return allocH, freeH, nil
}
