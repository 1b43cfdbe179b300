package main

import (
	"encoding/json"
	"io"
	"math"
	"os"
	"sort"
	"testing"

	"github.com/tintmalloc/tintmalloc/internal/bench"
	"github.com/tintmalloc/tintmalloc/internal/policy"
	"github.com/tintmalloc/tintmalloc/internal/topology"
	"github.com/tintmalloc/tintmalloc/internal/workload"
)

// benchmarkFile mirrors the parts of ../BENCHMARK.json the program must
// agree with.
type benchmarkFile struct {
	Workloads []struct{ Name string }
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func TestBenchmarkFileMatchesProgram(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var f benchmarkFile
	if err := json.Unmarshal(b, &f); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range f.Workloads {
		names = append(names, w.Name)
		if workloads[w.Name] == nil {
			t.Errorf("BENCHMARK.json workload %q has no driver", w.Name)
		}
	}
	if len(names) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %v, the program has %d workloads", names, len(workloads))
	}
	same := func(what string, file []struct{ Name, Unit string }, prog []Metric) {
		if len(file) != len(prog) {
			t.Errorf("%s: BENCHMARK.json has %d metrics, the program %d", what, len(file), len(prog))
			return
		}
		for i := range prog {
			if file[i].Name != prog[i].Name || file[i].Unit != prog[i].Unit {
				t.Errorf("%s %d: BENCHMARK.json %s [%s], program %s [%s]",
					what, i, file[i].Name, file[i].Unit, prog[i].Name, prog[i].Unit)
			}
		}
	}
	same("end_to_end", f.EndToEnd, endToEnd)
	same("per_layer", f.PerLayer, perLayer)
}

// TestTracedLayersDeclared checks that every workload declares the
// per-layer metrics its traced run sets, each one a per-layer metric
// named once.
func TestTracedLayersDeclared(t *testing.T) {
	known := map[string]bool{}
	for _, m := range perLayer {
		known[m.Name] = true
	}
	for name := range workloads {
		declared := tracedLayers[name]
		if len(declared) == 0 {
			t.Errorf("%s declares no per-layer metric", name)
		}
		seen := map[string]bool{}
		for _, n := range declared {
			if !known[n] || seen[n] {
				t.Errorf("%s: declared per-layer metric %q is unknown or repeated", name, n)
			}
			seen[n] = true
		}
	}
}

// TestUnsetLayerFails checks that a traced run which leaves a declared
// per-layer metric unset is an error, not a silent 0.
func TestUnsetLayerFails(t *testing.T) {
	r := newRun("serve_churn", 1, 1, true, t.TempDir(), io.Discard)
	r.Attempted = 1
	for _, n := range tracedLayers["serve_churn"] {
		r.Layer(n, 1)
	}
	if _, err := r.result(); err != nil {
		t.Fatalf("every declared metric set: %v", err)
	}
	delete(r.layer, "serve.alloc_p99_ns")
	if _, err := r.result(); err == nil {
		t.Error("serve.alloc_p99_ns unset: result passed")
	}
}

// TestShortRuns runs every workload briefly, untraced and traced, and
// checks that it passes its own correctness checks and emits every
// named metric with its unit. A traced run that leaves a metric its
// workload declares unset fails in run.
func TestShortRuns(t *testing.T) {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, name := range names {
		for _, traced := range []bool{false, true} {
			// 1 s gives the TaskRun median of wire_churn its 10 samples beyond.
			res, err := run(name, 7, 1, traced, t.TempDir(), io.Discard)
			if err != nil {
				t.Fatalf("%s traced=%t: %v", name, traced, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("%s traced=%t: correct=%t attempted=%d failed=%d",
					name, traced, res.Correct, res.Attempted, res.Failed)
			}
			want := endToEnd
			if traced {
				want = perLayer
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s traced=%t: %d metrics, want %d", name, traced, len(res.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := res.Metrics[m.Name]
				switch {
				case !ok:
					t.Errorf("%s traced=%t: no %s", name, traced, m.Name)
				case got.Unit != m.Unit:
					t.Errorf("%s traced=%t: %s unit %q, want %q", name, traced, m.Name, got.Unit, m.Unit)
				case math.IsNaN(got.Value) || math.IsInf(got.Value, 0):
					t.Errorf("%s traced=%t: %s = %v", name, traced, m.Name, got.Value)
				case !traced && got.Value <= 0:
					t.Errorf("%s: end-to-end %s = %v, want positive", name, m.Name, got.Value)
				}
			}
		}
	}
}

func newTestRun(t *testing.T) *Run {
	t.Helper()
	return newRun("test", 1, 1, false, t.TempDir(), io.Discard)
}

// TestCorruptedReplayFails records a small cell's access stream,
// checks that it replays clean, then corrupts one event at a time and
// checks that the replay reports it.
func TestCorruptedReplayFails(t *testing.T) {
	mach, err := bench.NewMachine(bench.MachineOptions{})
	if err != nil {
		t.Fatal(err)
	}
	cfg, err := bench.ConfigByName(mach.Topo, "4_threads_1_nodes")
	if err != nil {
		t.Fatal(err)
	}
	spec := bench.RunSpec{Workload: workload.LBM(), Config: cfg, Policy: policy.MEMLLC,
		Params: workload.Params{Seed: 1, Scale: 0.02}}
	r := newTestRun(t)
	log := &accessLog{}
	var times simTimes
	if _, err := runLBMCell(r, mach, spec, &times, log); err != nil {
		t.Fatal(err)
	}
	if r.Failed != 0 || len(log.events) == 0 {
		t.Fatalf("clean replay of %d events: %v", len(log.events), r.Failures)
	}
	ev := &log.events[len(log.events)/2]
	for _, c := range []struct {
		name    string
		corrupt func()
		undo    func()
	}{
		{"completion", func() { ev.lat++ }, func() { ev.lat-- }},
		{"level", func() { ev.flags ^= 1 }, func() { ev.flags ^= 1 }},
		{"physical address", func() { ev.pa ^= 1 << 20 }, func() { ev.pa ^= 1 << 20 }},
	} {
		r := newTestRun(t)
		c.corrupt()
		if err := log.replay(r, mach, &times); err != nil {
			t.Fatal(err)
		}
		c.undo()
		if r.Failed == 0 {
			t.Errorf("corrupted %s: replay passed", c.name)
		}
	}
}

// TestOutstandingFrameFails leaves one frame allocated at teardown and
// checks that the quiesce audit reports it, for the in-process server
// and for the daemon.
func TestOutstandingFrameFails(t *testing.T) {
	topo := topology.Opteron6128()
	r := newTestRun(t)
	s, _, _, err := bootServe(r, topo, []topology.CoreID{0})
	if err != nil {
		t.Fatal(err)
	}
	defer s.srv.Close()
	f, err := s.clients[0].Alloc()
	if err != nil {
		t.Fatal(err)
	}
	auditServer(r, s.srv)
	if r.Failed == 0 {
		t.Error("serve: audit passed with a frame outstanding")
	}
	if err := s.clients[0].Free(f); err != nil {
		t.Fatal(err)
	}
	clean := newTestRun(t)
	auditServer(clean, s.srv)
	if clean.Failed != 0 {
		t.Errorf("serve: audit failed after the drain: %v", clean.Failures)
	}

	r = newTestRun(t)
	w, _, err := bootWire(r, topo)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.data.Alloc(); err != nil {
		t.Fatal(err)
	}
	wireTeardown(r, w)
	if r.Failed == 0 {
		t.Error("wire: teardown passed with a frame outstanding")
	}
}
