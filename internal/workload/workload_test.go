package workload

import (
	"testing"

	"github.com/tintmalloc/tintmalloc/internal/engine"
	"github.com/tintmalloc/tintmalloc/internal/heap"
	"github.com/tintmalloc/tintmalloc/internal/kernel"
	"github.com/tintmalloc/tintmalloc/internal/mem"
	"github.com/tintmalloc/tintmalloc/internal/phys"
	"github.com/tintmalloc/tintmalloc/internal/policy"
	"github.com/tintmalloc/tintmalloc/internal/topology"
)

const testMem = 256 << 20

// testParams shrinks working sets so every workload runs in
// milliseconds.
var testParams = Params{Seed: 42, Scale: 0.05}

type rig struct {
	k  *kernel.Kernel
	ms *mem.System
	e  *engine.Engine
}

func newRig(t *testing.T, cores []topology.CoreID, pol policy.Policy) *rig {
	t.Helper()
	top := topology.Opteron6128()
	m, err := phys.DefaultSeparable(testMem, top.Nodes())
	if err != nil {
		t.Fatal(err)
	}
	ms, err := mem.New(top, m, mem.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	k, err := kernel.New(top, m, kernel.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	asn, err := policy.Plan(pol, m, top, cores)
	if err != nil {
		t.Fatal(err)
	}
	p := k.NewProcess()
	var threads []engine.Thread
	for i, c := range cores {
		task, err := p.NewTask(c)
		if err != nil {
			t.Fatal(err)
		}
		if err := policy.Apply(task, asn[i]); err != nil {
			t.Fatal(err)
		}
		threads = append(threads, engine.Thread{Task: task, Heap: heap.New(task)})
	}
	e, err := engine.New(ms, threads)
	if err != nil {
		t.Fatal(err)
	}
	return &rig{k: k, ms: ms, e: e}
}

func fourCores() []topology.CoreID {
	return []topology.CoreID{0, 4, 8, 12}
}

func TestRegistryComplete(t *testing.T) {
	names := map[string]bool{}
	for _, w := range Registry() {
		if w.Name == "" || w.Build == nil || w.Description == "" {
			t.Errorf("workload %+v incomplete", w.Name)
		}
		if names[w.Name] {
			t.Errorf("duplicate workload %q", w.Name)
		}
		names[w.Name] = true
	}
	for _, want := range []string{"synthetic", "lbm", "art", "equake", "bodytrack", "freqmine", "blackscholes"} {
		if !names[want] {
			t.Errorf("registry missing %q", want)
		}
	}
	if len(StandardSuite()) != 6 {
		t.Errorf("StandardSuite has %d entries", len(StandardSuite()))
	}
}

func TestByName(t *testing.T) {
	w, err := ByName("lbm")
	if err != nil || w.Name != "lbm" {
		t.Errorf("ByName(lbm) = %v, %v", w.Name, err)
	}
	if _, err := ByName("nope"); err == nil {
		t.Error("ByName accepted junk")
	}
}

// Every workload must build and run to completion under both buddy
// and MEM+LLC coloring, producing nonzero runtime and memory traffic.
func TestAllWorkloadsRunUnderAllPolicies(t *testing.T) {
	for _, w := range Registry() {
		for _, pol := range []policy.Policy{policy.Buddy, policy.MEMLLC, policy.BPM} {
			t.Run(w.Name+"/"+pol.String(), func(t *testing.T) {
				r := newRig(t, fourCores(), pol)
				phases, err := w.Build(r.e.Threads(), testParams)
				if err != nil {
					t.Fatal(err)
				}
				if len(phases) == 0 {
					t.Fatal("no phases")
				}
				// Built-in bodies mark their side effects with
				// engine.Sync, so every phase can be pulled in blocks.
				for _, ph := range phases {
					if !ph.Batched {
						t.Errorf("phase %q is not Batched", ph.Name)
					}
				}
				res, err := r.e.Run(phases)
				if err != nil {
					t.Fatal(err)
				}
				if res.Runtime == 0 {
					t.Error("zero runtime")
				}
				tot := r.ms.TotalStats()
				if tot.Accesses == 0 {
					t.Error("no memory accesses issued")
				}
				if r.k.Stats().Faults == 0 {
					t.Error("no page faults")
				}
			})
		}
	}
}

func TestWorkloadsDeterministic(t *testing.T) {
	for _, w := range Registry() {
		w := w
		t.Run(w.Name, func(t *testing.T) {
			run := func() uint64 {
				r := newRig(t, fourCores(), policy.MEMLLC)
				phases, err := w.Build(r.e.Threads(), testParams)
				if err != nil {
					t.Fatal(err)
				}
				res, err := r.e.Run(phases)
				if err != nil {
					t.Fatal(err)
				}
				return uint64(res.Runtime)
			}
			if a, b := run(), run(); a != b {
				t.Errorf("nondeterministic runtime: %d vs %d", a, b)
			}
		})
	}
}

func TestSeedChangesIrregularWorkloads(t *testing.T) {
	// Random-pattern workloads must differ across seeds (error-bar
	// source); streaming ones may not.
	for _, name := range []string{"equake", "freqmine", "bodytrack"} {
		w, err := ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		// Scale large enough that working sets exceed the private
		// caches; fully cache-resident runs have seed-independent
		// timing by construction.
		run := func(seed int64) uint64 {
			r := newRig(t, fourCores(), policy.Buddy)
			phases, err := w.Build(r.e.Threads(), Params{Seed: seed, Scale: 0.4})
			if err != nil {
				t.Fatal(err)
			}
			res, err := r.e.Run(phases)
			if err != nil {
				t.Fatal(err)
			}
			return uint64(res.Runtime)
		}
		if a, b := run(1), run(2); a == b {
			t.Errorf("%s: identical runtime across seeds (%d)", name, a)
		}
	}
}

func TestSyntheticTouchesEveryLineOnce(t *testing.T) {
	r := newRig(t, []topology.CoreID{0}, policy.Buddy)
	w := Synthetic()
	phases, err := w.Build(r.e.Threads(), Params{Seed: 1, Scale: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.e.Run(phases); err != nil {
		t.Fatal(err)
	}
	st := r.ms.CoreStats(0)
	// One access per cache line, no reuse: zero cache hits.
	if st.L1Hits != 0 || st.L2Hits != 0 || st.L3Hits != 0 {
		t.Errorf("synthetic benchmark hit caches: %+v", st)
	}
	if st.DRAMReads != st.Accesses {
		t.Errorf("accesses %d != DRAM reads %d", st.Accesses, st.DRAMReads)
	}
}

func TestBlackscholesSerialFraction(t *testing.T) {
	r := newRig(t, fourCores(), policy.Buddy)
	w := Blackscholes()
	phases, err := w.Build(r.e.Threads(), testParams)
	if err != nil {
		t.Fatal(err)
	}
	res, err := r.e.Run(phases)
	if err != nil {
		t.Fatal(err)
	}
	// The serial parse phase must be a substantial fraction of total
	// runtime (the trait limiting blackscholes' coloring gain).
	serial := res.Phases[0]
	if serial.Parallel {
		t.Fatal("parse phase marked parallel")
	}
	frac := float64(serial.End-serial.Start) / float64(res.Runtime)
	if frac < 0.1 {
		t.Errorf("serial fraction = %.3f, want >= 0.1", frac)
	}
}

func TestLBMFirstTouchMatchesPartition(t *testing.T) {
	// Under MEM+LLC every lbm thread's pages must sit on its local
	// node (parallel first touch + controller-aware coloring).
	cores := fourCores()
	r := newRig(t, cores, policy.MEMLLC)
	w := LBM()
	phases, err := w.Build(r.e.Threads(), testParams)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.e.Run(phases); err != nil {
		t.Fatal(err)
	}
	for i := range cores {
		if got := r.ms.CoreStats(topology.CoreID(cores[i])); got.RemoteDRAM != 0 {
			t.Errorf("thread %d issued %d remote DRAM accesses under MEM+LLC", i, got.RemoteDRAM)
		}
	}
}

func TestFreqmineUsesHeap(t *testing.T) {
	r := newRig(t, fourCores(), policy.Buddy)
	w := Freqmine()
	phases, err := w.Build(r.e.Threads(), testParams)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.e.Run(phases); err != nil {
		t.Fatal(err)
	}
	for i, th := range r.e.Threads() {
		if th.Heap.Stats().Mallocs == 0 {
			t.Errorf("thread %d made no heap allocations", i)
		}
	}
}

func TestScaledParamHelpers(t *testing.T) {
	p := Params{Scale: 0.5}
	if got := p.scaled(100); got != 50 {
		t.Errorf("scaled(100) = %d", got)
	}
	if got := (Params{Scale: 0.0001}).scaled(100); got != 1 {
		t.Errorf("tiny scale floor = %d, want 1", got)
	}
	if got := (Params{}).scaled(100); got != 100 {
		t.Errorf("zero scale = %d, want passthrough 100", got)
	}
	if pageAlign(1) != phys.PageSize || pageAlign(0) != phys.PageSize {
		t.Error("pageAlign floor wrong")
	}
	if pageAlign(phys.PageSize+1) != 2*phys.PageSize {
		t.Error("pageAlign round-up wrong")
	}
}

func TestBodytrackPhaseStructure(t *testing.T) {
	r := newRig(t, fourCores(), policy.Buddy)
	w := Bodytrack()
	phases, err := w.Build(r.e.Threads(), testParams)
	if err != nil {
		t.Fatal(err)
	}
	// init + frames x (image-maps, evaluate, resample).
	if (len(phases)-1)%3 != 0 {
		t.Fatalf("bodytrack has %d phases; want 1 + 3k", len(phases))
	}
	if phases[0].Name != "init" {
		t.Errorf("first phase %q", phases[0].Name)
	}
	res, err := r.e.Run(phases)
	if err != nil {
		t.Fatal(err)
	}
	// Every resample phase is serial (exactly one participant).
	for i, pr := range res.Phases {
		if phases[i].Name == "resample" && pr.Parallel {
			t.Errorf("resample phase %d marked parallel", i)
		}
		if phases[i].Name == "evaluate" && !pr.Parallel {
			t.Errorf("evaluate phase %d not parallel", i)
		}
	}
}

func TestBlackscholesCopyInMakesPricingLocal(t *testing.T) {
	// Under MEM+LLC, pricing reads the thread-local copies: the only
	// remote DRAM traffic should come from the copy-in reads of the
	// master-touched array.
	r := newRig(t, fourCores(), policy.MEMLLC)
	w := Blackscholes()
	phases, err := w.Build(r.e.Threads(), Params{Seed: 1, Scale: 0.3})
	if err != nil {
		t.Fatal(err)
	}
	names := make([]string, len(phases))
	for i, p := range phases {
		names[i] = p.Name
	}
	want := []string{"parse-input", "copy-in", "price", "aggregate"}
	for i, n := range want {
		if names[i] != n {
			t.Fatalf("phase order %v, want %v", names, want)
		}
	}
	// Count remote accesses per phase through the engine tracer.
	remote := map[string]uint64{}
	r.e.SetTracer(func(e engine.TraceEvent) {
		if e.Level == mem.LevelDRAMRemote {
			remote[e.Phase]++
		}
	})
	if _, err := r.e.Run(phases); err != nil {
		t.Fatal(err)
	}
	if remote["price"] > remote["copy-in"]/10 {
		t.Errorf("pricing phase issued %d remote accesses (copy-in %d); local copies not used",
			remote["price"], remote["copy-in"])
	}
}

func TestArtWeightsGetReused(t *testing.T) {
	// The art proxy's premise is heavy weight reuse: its overall
	// cache hit rate must be far above the synthetic benchmark's 0%.
	r := newRig(t, fourCores(), policy.Buddy)
	w := Art()
	phases, err := w.Build(r.e.Threads(), Params{Seed: 1, Scale: 0.3})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.e.Run(phases); err != nil {
		t.Fatal(err)
	}
	tot := r.ms.TotalStats()
	hitRate := float64(tot.L1Hits+tot.L2Hits+tot.L3Hits) / float64(tot.Accesses)
	if hitRate < 0.5 {
		t.Errorf("art hit rate %.2f; reuse premise broken", hitRate)
	}
}

func TestEquakeElementLocality(t *testing.T) {
	// Each gather touches 3 adjacent lines plus a write-back: within
	// a run the row-buffer should see SOME hits even under buddy.
	r := newRig(t, fourCores(), policy.Buddy)
	w := Equake()
	phases, err := w.Build(r.e.Threads(), Params{Seed: 1, Scale: 0.4})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.e.Run(phases); err != nil {
		t.Fatal(err)
	}
	d := r.ms.DRAM().TotalStats()
	if d.Accesses == 0 {
		t.Fatal("no DRAM traffic")
	}
	if d.RowHits == 0 {
		t.Error("no row-buffer hits despite clustered gathers")
	}
}
