package wire

import (
	"net"
	"path/filepath"
	"reflect"
	"testing"

	"github.com/tintmalloc/tintmalloc/internal/phys"
	"github.com/tintmalloc/tintmalloc/internal/sched"
	"github.com/tintmalloc/tintmalloc/internal/serve"
	"github.com/tintmalloc/tintmalloc/internal/topology"
)

const testMem = 64 << 20

func testPlatform(t testing.TB) (*topology.Topology, *phys.Mapping) {
	t.Helper()
	topo := topology.Opteron6128()
	m, err := phys.DefaultSeparable(testMem, topo.Nodes())
	if err != nil {
		t.Fatal(err)
	}
	return topo, m
}

// newTestDaemon boots a daemon on a unix socket and tears it down
// with the test. The returned daemon is also closed by the test
// cleanup if the test didn't close it itself (Close is idempotent).
func newTestDaemon(t testing.TB) (*Daemon, string) {
	t.Helper()
	topo, m := testPlatform(t)
	d, err := NewDaemon(topo, m, serve.Config{})
	if err != nil {
		t.Fatal(err)
	}
	addr := filepath.Join(t.TempDir(), "tintserved.sock")
	l, err := net.Listen("unix", addr)
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- d.Serve(l) }()
	t.Cleanup(func() {
		if err := d.Close(); err != nil {
			t.Errorf("daemon close: %v", err)
		}
		if err := <-done; err != nil {
			t.Errorf("daemon serve: %v", err)
		}
	})
	return d, addr
}

// differentialSpecs is the seeded scenario both sides run: colored
// and uncolored tasks, staggered arrivals, scripted blocks.
func differentialSpecs() []sched.Spec {
	return []sched.Spec{
		{Ops: 400},
		{Ops: 300, BlockEvery: 50, BlockFor: 2},
		{Arrival: 2, Ops: 350, BlockEvery: 80, BlockFor: 1},
		{Ops: 250}, // task 3: uncolored under the daemon's stride
		{Arrival: 5, Ops: 300},
		{Ops: 200, BlockEvery: 30, BlockFor: 3},
	}
}

// runReference runs the scenario against a fresh in-process server
// with the daemon's exact dispatch-time assignment, returning the
// scheduler accounting and the post-quiesce serving counters.
func runReference(t *testing.T, cfg sched.Config, specs []sched.Spec) (*sched.Result, serve.Stats) {
	t.Helper()
	topo, m := testPlatform(t)
	s, err := serve.New(topo, m, serve.Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	assign, err := sched.PlanAssign(m, topo, UncoloredEvery)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sched.Run(cfg, specs, sched.NewServeBackend(s, assign))
	if err != nil {
		t.Fatal(err)
	}
	s.Close()
	return res, s.Stats()
}

// TestDifferentialServeVsWire is the client↔daemon differential: the
// same seeded scenario driven once against the in-process server and
// once over the wire (every task its own OS-level connection) must
// produce byte-identical scheduler results and byte-identical
// allocation/degradation counters, under all three policies.
func TestDifferentialServeVsWire(t *testing.T) {
	for _, pol := range sched.Policies() {
		t.Run(pol.String(), func(t *testing.T) {
			cfg := sched.Config{Policy: pol, Quantum: 16, Cores: 2}
			specs := differentialSpecs()
			wantRes, wantStats := runReference(t, cfg, specs)

			topo, m := testPlatform(t)
			d, err := NewDaemon(topo, m, serve.Config{})
			if err != nil {
				t.Fatal(err)
			}
			addr := filepath.Join(t.TempDir(), "d.sock")
			l, err := net.Listen("unix", addr)
			if err != nil {
				t.Fatal(err)
			}
			done := make(chan error, 1)
			go func() { done <- d.Serve(l) }()

			assign, err := sched.PlanAssign(m, topo, UncoloredEvery)
			if err != nil {
				t.Fatal(err)
			}
			gotRes, err := sched.Run(cfg, specs, &NetBackend{Network: "unix", Addr: addr, Assign: assign})
			if err != nil {
				t.Fatal(err)
			}
			if err := d.Close(); err != nil {
				t.Fatalf("daemon close/audit: %v", err)
			}
			if err := <-done; err != nil {
				t.Fatalf("serve loop: %v", err)
			}
			gotStats := d.Server().Stats()

			if !reflect.DeepEqual(gotRes, wantRes) {
				t.Errorf("scheduler results diverge:\nwire: %+v\nref:  %+v", gotRes, wantRes)
			}
			if gotStats != wantStats {
				t.Errorf("serving counters diverge:\nwire: %+v\nref:  %+v", gotStats, wantStats)
			}
			ds := d.Stats()
			if ds.Reclaimed != 0 || ds.ReclaimFailed != 0 {
				t.Errorf("clean goodbyes should leave nothing to reclaim: %+v", ds)
			}
		})
	}
}

// TestDifferentialTaskPlane drives the same batch through the
// daemon's own scheduler (TaskSpawn/TaskRun) and compares against a
// local run: the wire-shipped Result and the serving counters must
// match byte for byte.
func TestDifferentialTaskPlane(t *testing.T) {
	for _, pol := range sched.Policies() {
		t.Run(pol.String(), func(t *testing.T) {
			cfg := sched.Config{Policy: pol, Quantum: 16, Cores: 2}
			specs := differentialSpecs()
			wantRes, wantStats := runReference(t, cfg, specs)

			d, addr := newTestDaemon(t)
			c, err := Dial("unix", addr)
			if err != nil {
				t.Fatal(err)
			}
			for i, sp := range specs {
				id, err := c.TaskSpawn(sp)
				if err != nil {
					t.Fatal(err)
				}
				if id != uint32(i) {
					t.Fatalf("task id %d, want %d", id, i)
				}
			}
			gotRes, err := c.TaskRun(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(gotRes, wantRes) {
				t.Errorf("task-plane results diverge:\nwire: %+v\nref:  %+v", gotRes, wantRes)
			}
			for i := range specs {
				tr, err := c.TaskStat(uint32(i))
				if err != nil {
					t.Fatal(err)
				}
				if tr != gotRes.Tasks[i] {
					t.Errorf("task %d stat %+v != run result %+v", i, tr, gotRes.Tasks[i])
				}
			}
			if err := c.Goodbye(); err != nil {
				t.Fatal(err)
			}
			if err := d.Close(); err != nil {
				t.Fatalf("daemon close/audit: %v", err)
			}
			if gotStats := d.Server().Stats(); gotStats != wantStats {
				t.Errorf("task-plane counters diverge:\nwire: %+v\nref:  %+v", gotStats, wantStats)
			}
		})
	}
}

// TestSessionCleanupReclaims drops a connection mid-session and
// checks the daemon reclaims the stranded frames before its audit.
func TestSessionCleanupReclaims(t *testing.T) {
	d, addr := newTestDaemon(t)
	c, err := Dial("unix", addr)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Hello(0, nil, nil); err != nil {
		t.Fatal(err)
	}
	const n = 5
	for i := 0; i < n; i++ {
		if _, err := c.Alloc(); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.Close(); err != nil { // no Goodbye: frames stranded
		t.Fatal(err)
	}
	if err := d.Close(); err != nil {
		t.Fatalf("audit after cleanup: %v", err)
	}
	ds := d.Stats()
	if ds.Reclaimed != n || ds.ReclaimFailed != 0 {
		t.Fatalf("reclaimed %d/%d frames, failed %d", ds.Reclaimed, n, ds.ReclaimFailed)
	}
	st := d.Server().Stats()
	if st.Allocs != n || st.Frees != n {
		t.Fatalf("allocs %d frees %d, want %d each", st.Allocs, st.Frees, n)
	}
}

// TestHelloDeduplicatesColors sends a Hello that lists colors twice
// to one daemon and the same claim without duplicates to another: the
// daemon-side client must claim each color once and both sessions
// must be handed the same frames in the same order.
func TestHelloDeduplicatesColors(t *testing.T) {
	run := func(bank, llc []int) (*Daemon, []phys.Frame) {
		d, addr := newTestDaemon(t)
		c, err := Dial("unix", addr)
		if err != nil {
			t.Fatal(err)
		}
		if err := c.Hello(0, bank, llc); err != nil {
			t.Fatal(err)
		}
		var got []phys.Frame
		for i := 0; i < 16; i++ {
			f, err := c.Alloc()
			if err != nil {
				t.Fatal(err)
			}
			got = append(got, f)
		}
		for _, f := range got {
			if err := c.Free(f); err != nil {
				t.Fatal(err)
			}
		}
		if err := c.Goodbye(); err != nil {
			t.Fatal(err)
		}
		return d, got
	}
	dd, dup := run([]int{1, 2, 2}, []int{0, 1, 2, 2})
	_, plain := run([]int{1, 2}, []int{0, 1, 2})
	if !reflect.DeepEqual(dup, plain) {
		t.Fatalf("duplicate-color hello placed %v, plain hello %v", dup, plain)
	}
	cl := dd.Server().Clients()[0]
	if got := cl.BankColors(); !reflect.DeepEqual(got, []int{1, 2}) {
		t.Errorf("daemon client bank colors %v, want [1 2]", got)
	}
	if got := cl.LLCColors(); !reflect.DeepEqual(got, []int{0, 1, 2}) {
		t.Errorf("daemon client LLC colors %v, want [0 1 2]", got)
	}
	if err := dd.Close(); err != nil {
		t.Fatalf("audit: %v", err)
	}
}

// TestWireErrorsMatchSentinels checks serve-layer failures survive
// the wire as the same sentinels the in-process client returns.
func TestWireErrorsMatchSentinels(t *testing.T) {
	_, addr := newTestDaemon(t)
	c, err := Dial("unix", addr)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Hello(3, nil, nil); err != nil {
		t.Fatal(err)
	}
	// Freeing a frame the session never owned is ErrNotOwner.
	if err := c.Free(1); err != serve.ErrNotOwner {
		t.Fatalf("free of unowned frame: %v, want serve.ErrNotOwner", err)
	}
	// A second Hello on the same session is a semantic rejection.
	if err := c.Hello(3, nil, nil); err == nil {
		t.Fatal("second hello accepted")
	}
	if err := c.Goodbye(); err != nil {
		t.Fatal(err)
	}
}

// TestDoubleCloseDaemon pins Close idempotence at the daemon level.
func TestDoubleCloseDaemon(t *testing.T) {
	d, _ := newTestDaemon(t)
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	if err := d.Close(); err != nil {
		t.Fatalf("second close: %v", err)
	}
}
