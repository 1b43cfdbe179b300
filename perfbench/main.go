// Command perfbench is the repository's benchmark: one workload per
// run, a fixed set of end-to-end metrics on untraced runs, per-layer
// metrics on traced runs, and correctness checks on every run.
//
//	perfbench --workload sim_lbm --seed 1 --seconds 10 --trace 0
//
// Every run has three phases. Setup (booting the machine, mapping,
// server or daemon) is repeated and reported as the median in
// setup_s. The steady phase runs for --seconds and is the
// only phase throughput, latency and allocation counts cover.
// Teardown drains, audits and checks. The last line of standard output
// is one JSON object: {"correct", "attempted", "failed", "metrics"}.
// See README.md for the workloads and every metric.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// A run repeats its setup phase at least minSetupReps times and until
// setupBudget has passed (at most maxSetupReps times); setup_s is the
// median. Small setups thus get many samples and a steady median.
const (
	minSetupReps = 5
	maxSetupReps = 200
	setupBudget  = time.Second
)

// moreSetup reports whether setup repetition i (from 0) should run in
// a setup phase that started at start.
func moreSetup(i int, start time.Time) bool {
	return i < minSetupReps || i < maxSetupReps && time.Since(start) < setupBudget
}

// Metric names one reported number and its unit.
type Metric struct {
	Name string
	Unit string
}

// endToEnd are the metrics an untraced run prints, for every workload.
var endToEnd = []Metric{
	{"setup_s", "s"},
	{"ops_per_cpu_s", "1/s"},
	{"op_p50_us", "us"},
	{"placed_frac", "ratio"},
	{"host_mem_mb", "MiB"},
}

// perLayer are the metrics a traced run prints, for every workload. A
// metric the workload does not declare in tracedLayers reads 0.
var perLayer = []Metric{
	{"phys.boot_s", "s"},
	{"kernel.boot_s", "s"},
	{"workload.build_s", "s"},
	{"engine.run_s", "s"},
	{"engine.self_s", "s"},
	{"engine.ops", "count"},
	{"engine.accesses", "count"},
	{"sim.speedup", "ratio"},
	{"mem.access_ns", "ns"},
	{"mem.replay_s", "s"},
	{"mem.l1_hits", "count"},
	{"mem.l2_hits", "count"},
	{"mem.l3_hits", "count"},
	{"mem.dram_reads", "count"},
	{"mem.remote_dram_frac", "ratio"},
	{"cache.l3_miss_rate", "ratio"},
	{"dram.accesses", "count"},
	{"dram.row_hit_frac", "ratio"},
	{"dram.row_conflict_frac", "ratio"},
	{"dram.queue_wait_cycles", "cycles"},
	{"kernel.translate_ns", "ns"},
	{"kernel.faults", "count"},
	{"kernel.refills", "count"},
	{"kernel.refill_frames", "count"},
	{"kernel.tlb_miss_frac", "ratio"},
	{"kernel.degraded", "count"},
	{"kernel.loans_registered", "count"},
	{"kernel.compact_moved", "count"},
	{"kernel.repolicies", "count"},
	{"kernel.fault_cycles", "cycles"},
	{"heap.mallocs", "count"},
	{"heap.slabs_trimmed", "count"},
	{"invariant.audits", "count"},
	{"invariant.audit_s", "s"},
	{"op.p50_us", "us"},
	{"op.p99_us", "us"},
	{"op.samples", "count"},
	{"serve.boot_s", "s"},
	{"serve.alloc_p50_ns", "ns"},
	{"serve.alloc_p99_ns", "ns"},
	{"serve.free_p50_ns", "ns"},
	{"serve.free_p99_ns", "ns"},
	{"serve.fast_frac", "ratio"},
	{"serve.refills", "count"},
	{"serve.reqs_per_batch", "ratio"},
	{"serve.rejected", "count"},
	{"serve.borrow_color", "count"},
	{"serve.borrow_uncolored", "count"},
	{"serve.borrow_remote", "count"},
	{"serve.allocs_per_op", "allocs/op"},
	{"wire.boot_s", "s"},
	{"wire.hello_us", "us"},
	{"wire.alloc_p50_us", "us"},
	{"wire.alloc_p99_us", "us"},
	{"wire.free_p50_us", "us"},
	{"wire.codec_ns", "ns"},
	{"wire.transport_us", "us"},
	{"wire.close_s", "s"},
	{"wire.reclaimed", "count"},
	{"sched.taskrun_p50_ms", "ms"},
	{"sched.ops_per_s", "1/s"},
	{"sched.dispatches", "count"},
	{"sched.preemptions", "count"},
	{"sched.blocks", "count"},
	{"sched.idle_core_frac", "ratio"},
	{"trace.overhead_frac", "ratio"},
	{"wall.ops_per_s", "1/s"},
}

// workloads maps a workload name to its driver.
var workloads = map[string]func(*Run) error{
	"sim_lbm":       runSimLBM,
	"sim_heteromix": runSimHeteroMix,
	"serve_churn":   runServeChurn,
	"wire_churn":    runWireChurn,
}

// tracedLayers names, per workload, the per-layer metrics its traced
// run must set; a traced run that leaves one unset fails.
var tracedLayers = map[string][]string{
	"sim_lbm":       concat(simLayers, simMemLayers, simReplayLayers),
	"sim_heteromix": simLayers,
	"serve_churn":   concat(churnLayers, serveLayers, []string{"serve.boot_s"}),
	"wire_churn":    concat(churnLayers, serveLayers, wireLayers, schedLayers),
}

// Groups of per-layer metrics for tracedLayers.
var (
	simLayers = []string{
		"phys.boot_s", "kernel.boot_s", "workload.build_s", "engine.run_s", "engine.self_s", "engine.ops",
		"sim.speedup", "mem.remote_dram_frac", "cache.l3_miss_rate", "dram.row_conflict_frac",
		"kernel.faults", "kernel.refills", "kernel.refill_frames", "kernel.tlb_miss_frac", "kernel.degraded",
		"kernel.loans_registered", "kernel.compact_moved", "kernel.repolicies", "kernel.fault_cycles",
		"heap.mallocs", "heap.slabs_trimmed", "invariant.audits", "invariant.audit_s", "wall.ops_per_s",
	}
	// simMemLayers need the cells' mem.System, which only
	// RunInstrumented exposes.
	simMemLayers = []string{
		"engine.accesses", "mem.l1_hits", "mem.l2_hits", "mem.l3_hits", "mem.dram_reads",
		"dram.accesses", "dram.row_hit_frac", "dram.queue_wait_cycles",
	}
	simReplayLayers = []string{"mem.access_ns", "mem.replay_s", "kernel.translate_ns", "trace.overhead_frac"}
	churnLayers     = []string{
		"phys.boot_s", "invariant.audits", "invariant.audit_s", "op.p50_us", "op.p99_us", "op.samples", "wall.ops_per_s",
	}
	serveLayers = []string{
		"serve.alloc_p50_ns", "serve.alloc_p99_ns", "serve.free_p50_ns", "serve.free_p99_ns",
		"serve.fast_frac", "serve.refills", "serve.reqs_per_batch", "serve.rejected",
		"serve.borrow_color", "serve.borrow_uncolored", "serve.borrow_remote", "serve.allocs_per_op",
	}
	wireLayers = []string{
		"wire.boot_s", "wire.hello_us", "wire.alloc_p50_us", "wire.alloc_p99_us", "wire.free_p50_us",
		"wire.codec_ns", "wire.transport_us", "wire.close_s", "wire.reclaimed",
	}
	schedLayers = []string{
		"sched.taskrun_p50_ms", "sched.ops_per_s", "sched.dispatches", "sched.preemptions", "sched.blocks",
		"sched.idle_core_frac",
	}
)

func concat(groups ...[]string) []string {
	var all []string
	for _, g := range groups {
		all = append(all, g...)
	}
	return all
}

// Run is the state of one benchmark invocation: its inputs, the
// metrics it has produced and the failures it has seen.
type Run struct {
	Workload string
	Seed     int64
	Seconds  float64
	Traced   bool
	Dir      string // scratch directory for sockets and span files
	Tr       *Tracer
	Out      io.Writer // human-readable progress lines

	Attempted uint64
	Failed    uint64
	Failures  []string

	e2e   map[string]float64
	layer map[string]float64
	mem   *memSampler
}

// Steady returns the steady phase's length.
func (r *Run) Steady() time.Duration { return time.Duration(r.Seconds * float64(time.Second)) }

// Fail records a failed operation or correctness check.
func (r *Run) Fail(format string, args ...any) {
	r.Failed++
	r.Failures = append(r.Failures, fmt.Sprintf(format, args...))
}

// Check counts one correctness check and records it as failed unless
// ok holds.
func (r *Run) Check(ok bool, format string, args ...any) {
	r.Attempted++
	if !ok {
		r.Fail(format, args...)
	}
}

// E2E sets an end-to-end metric.
func (r *Run) E2E(name string, v float64) { r.e2e[name] = v }

// Layer sets a per-layer metric.
func (r *Run) Layer(name string, v float64) { r.layer[name] = v }

// Note prints one progress line.
func (r *Run) Note(format string, args ...any) {
	fmt.Fprintf(r.Out, "  "+format+"\n", args...)
}

// Result is the JSON object the run prints last.
type Result struct {
	Correct   bool                   `json:"correct"`
	Attempted uint64                 `json:"attempted"`
	Failed    uint64                 `json:"failed"`
	Metrics   map[string]MetricValue `json:"metrics"`
}

// MetricValue is one reported number with its unit.
type MetricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result assembles the final object: every end-to-end metric on an
// untraced run, every per-layer metric on a traced one. A run that did
// not produce an end-to-end metric, or a per-layer metric its workload
// declares, is an error.
func (r *Run) result() (Result, error) {
	res := Result{Attempted: r.Attempted, Failed: r.Failed, Metrics: map[string]MetricValue{}}
	set, vals := endToEnd, r.e2e
	required := func(string) bool { return true }
	if r.Traced {
		set, vals = perLayer, r.layer
		declared := map[string]bool{}
		for _, n := range tracedLayers[r.Workload] {
			declared[n] = true
		}
		required = func(n string) bool { return declared[n] }
	}
	for _, m := range set {
		v, ok := vals[m.Name]
		if !ok && required(m.Name) {
			return res, fmt.Errorf("workload %s did not produce %s", r.Workload, m.Name)
		}
		res.Metrics[m.Name] = MetricValue{Value: v, Unit: m.Unit}
	}
	if res.Attempted == 0 {
		res.Attempted = 1
		res.Failed = 1
		r.Failures = append(r.Failures, "nothing was attempted")
	}
	if res.Failed > res.Attempted {
		res.Failed = res.Attempted
	}
	res.Correct = res.Failed == 0
	return res, nil
}

func main() {
	name := flag.String("workload", "", "workload: sim_lbm, sim_heteromix, serve_churn or wire_churn")
	seed := flag.Int64("seed", 1, "seed of the generated inputs")
	seconds := flag.Float64("seconds", 10, "length of the steady phase in seconds")
	trace := flag.Int("trace", 0, "1 records spans and prints per-layer metrics")
	dir := flag.String("dir", filepath.Join(".bench_build", "perfbench"), "scratch directory")
	flag.Parse()
	res, err := run(*name, *seed, *seconds, *trace == 1, *dir, os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	b, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(b))
}

// newRun returns the state of a run that has not started.
func newRun(name string, seed int64, seconds float64, traced bool, dir string, out io.Writer) *Run {
	return &Run{
		Workload: name, Seed: seed, Seconds: seconds, Traced: traced, Dir: dir, Out: out,
		e2e: map[string]float64{}, layer: map[string]float64{}, mem: &memSampler{},
	}
}

// run executes one workload and returns its result. An error means
// the benchmark itself could not run; failed operations and checks are
// reported in the result instead.
func run(name string, seed int64, seconds float64, traced bool, dir string, out io.Writer) (Result, error) {
	drive, ok := workloads[name]
	if !ok {
		names := make([]string, 0, len(workloads))
		for n := range workloads {
			names = append(names, n)
		}
		sort.Strings(names)
		return Result{}, fmt.Errorf("unknown workload %q (have %s)", name, strings.Join(names, ", "))
	}
	if seconds <= 0 {
		return Result{}, fmt.Errorf("--seconds must be positive")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return Result{}, err
	}
	r := newRun(name, seed, seconds, traced, dir, out)
	runID := fmt.Sprintf("%s-seed%d-%d", name, seed, time.Now().UnixNano())
	if traced {
		r.Tr = NewTracer(runID)
	}
	fmt.Fprintf(out, "perfbench: workload=%s seed=%d seconds=%g trace=%t nproc=%d GOMAXPROCS=%d %s run=%s\n",
		name, seed, seconds, traced, runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), runID)
	r.mem.start()
	err := drive(r)
	r.mem.Stop()
	if err != nil {
		return Result{}, err
	}
	if r.Tr != nil {
		path := filepath.Join(dir, runID+".spans.json")
		if err := r.Tr.WriteFile(path); err != nil {
			return Result{}, err
		}
		self := r.Tr.SelfTimes()
		names := make([]string, 0, len(self))
		for n := range self {
			names = append(names, n)
		}
		sort.Strings(names)
		for _, n := range names {
			r.Note("span %-24s self %.6f s", n, self[n].Seconds())
		}
		r.Note("spans written to %s", path)
	}
	res, err := r.result()
	if err != nil {
		return Result{}, err
	}
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := res.Metrics[n]
		fmt.Fprintf(out, "%-26s %16.6f %s\n", n, m.Value, m.Unit)
	}
	for _, f := range r.Failures {
		fmt.Fprintln(out, "FAILED:", f)
	}
	return res, nil
}

// heapLive is the runtime/metrics sample behind host_mem_mb: the heap
// the last garbage collection found live. Unlike the heap in use it
// does not depend on how much garbage happened to accumulate before a
// collection, so it repeats from run to run.
const heapLive = "/gc/heap/live:bytes"

// memSampler tracks the peak live heap between resets. Workloads force
// a collection wherever their state is largest, so the peak includes
// it.
type memSampler struct {
	peak atomic.Uint64
	stop chan struct{}
	wg   sync.WaitGroup
}

// start begins sampling every 10 ms until Stop.
func (m *memSampler) start() {
	m.stop = make(chan struct{})
	m.wg.Add(1)
	go func() {
		defer m.wg.Done()
		tick := time.NewTicker(10 * time.Millisecond)
		defer tick.Stop()
		for {
			m.sample()
			select {
			case <-m.stop:
				return
			case <-tick.C:
			}
		}
	}()
}

func (m *memSampler) sample() {
	s := []metrics.Sample{{Name: heapLive}}
	metrics.Read(s)
	v := s[0].Value.Uint64()
	for {
		p := m.peak.Load()
		if v <= p || m.peak.CompareAndSwap(p, v) {
			return
		}
	}
}

// TakePeak returns the peak live heap, in MiB, since the previous call,
// and starts a new interval.
func (m *memSampler) TakePeak() float64 {
	m.sample()
	p := m.peak.Swap(0)
	m.sample()
	return float64(p) / (1 << 20)
}

// Stop ends sampling and waits for the sampler to exit.
func (m *memSampler) Stop() {
	close(m.stop)
	m.wg.Wait()
}

// heapAllocs returns the process's cumulative heap allocation count.
func heapAllocs() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:objects"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// median returns the median of xs (0 for none).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// ratio returns a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// splitmix is the benchmark's input generator: every generated op
// stream and task spec derives from the run's seed through it.
type splitmix uint64

func (s *splitmix) next() uint64 {
	*s += 0x9e3779b97f4a7c15
	z := uint64(*s)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// intn returns a value in [0, n).
func (s *splitmix) intn(n int) int { return int(s.next() % uint64(n)) }

func newSplitmix(seed int64, stream uint64) *splitmix {
	s := splitmix(uint64(seed)*0x2545f4914f6cdd1d ^ stream)
	s.next()
	return &s
}

// processCPU returns the CPU time the whole process has used,
// including the garbage collector's background workers, so allocation
// in a timed region counts against it. Host CPU time excludes time the
// hypervisor stole from the guest, which on a shared virtual machine
// moves wall-clock rates by tens of percent.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(fmt.Sprintf("getrusage: %v", err)) // cannot fail with these arguments
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// mark is an instant on both clocks the benchmark reads.
type mark struct {
	wall time.Time
	cpu  time.Duration
}

func (r *Run) markNow() mark { return mark{wall: time.Now(), cpu: processCPU()} }

// sub returns the time between earlier and m on both clocks.
func (m mark) sub(earlier mark) dur {
	return dur{wall: m.wall.Sub(earlier.wall), cpu: m.cpu - earlier.cpu}
}

// since returns the time elapsed since m on both clocks.
func (r *Run) since(m mark) dur { return r.markNow().sub(m) }

// dur is an interval measured on both clocks.
type dur struct{ wall, cpu time.Duration }

func (d *dur) add(o dur) {
	d.wall += o.wall
	d.cpu += o.cpu
}
