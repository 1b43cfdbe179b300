// Differential and concurrency tests for the serving layer. These
// live in an external test package so they can drive the server the
// way callers do — through policy plans and the invariant auditor,
// which itself imports serve — without an import cycle.
package serve_test

import (
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/tintmalloc/tintmalloc/internal/invariant"
	"github.com/tintmalloc/tintmalloc/internal/kernel"
	"github.com/tintmalloc/tintmalloc/internal/phys"
	"github.com/tintmalloc/tintmalloc/internal/policy"
	"github.com/tintmalloc/tintmalloc/internal/serve"
	"github.com/tintmalloc/tintmalloc/internal/topology"
)

const diffMem = 64 << 20

func bootPair(t *testing.T) (*topology.Topology, *phys.Mapping) {
	t.Helper()
	top := topology.Opteron6128()
	m, err := phys.DefaultSeparable(diffMem, top.Nodes())
	if err != nil {
		t.Fatal(err)
	}
	return top, m
}

func auditServerClean(t *testing.T, s *serve.Server) *invariant.Report {
	t.Helper()
	r := invariant.AuditServer(s)
	if err := r.Err(); err != nil {
		t.Fatal(err)
	}
	if r.Unaccounted != 0 {
		t.Fatalf("%d unaccounted frames on the server", r.Unaccounted)
	}
	if r.BuddyFree+r.Parked+r.Mapped != r.Frames {
		t.Fatalf("frame accounting does not balance: free %d + parked %d + outstanding %d != %d",
			r.BuddyFree, r.Parked, r.Mapped, r.Frames)
	}
	return r
}

// TestAuditServerCatchesOccupancyDrift flips one occupancy bit each
// way — set over an empty list, clear over a non-empty one — and
// requires the auditor to name that bucket, recomputing occupancy
// from the lists rather than trusting the bitmap.
func TestAuditServerCatchesOccupancyDrift(t *testing.T) {
	top, m := bootPair(t)
	s, err := serve.New(top, m, serve.Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	c, err := s.NewClient(top.CoresOfNode(0)[0])
	if err != nil {
		t.Fatal(err)
	}
	// The first allocation shatters a block across shard 0's lists;
	// the next ones drain the claim's single bucket, leaving it empty
	// beside its occupied neighbours.
	bc := m.BankColorsOfNode(0)[0]
	if err := c.SetColors([]int{bc}, []int{0}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i == 0 || s.ShardOccupied(0, bc, 0); i++ {
		if _, err := c.Alloc(); err != nil {
			t.Fatal(err)
		}
		if i > 64 {
			t.Fatal("claim bucket never drained")
		}
	}
	if !s.ShardOccupied(0, bc, 1) {
		t.Fatal("neighbouring bucket is empty; the first shatter should have filled it")
	}
	auditServerClean(t, s)
	for _, b := range [][2]int{{bc, 0}, {bc, 1}} {
		serve.FlipOccupancyBit(s, 0, b[0], b[1])
		r := invariant.AuditServer(s)
		if len(r.Violations) != 1 {
			t.Fatalf("flipped bit [%d][%d]: want exactly one violation, got %v", b[0], b[1], r.Violations)
		}
		want := fmt.Sprintf("occupancy bit for color list [%d][%d]", b[0], b[1])
		if !strings.Contains(r.Violations[0], want) {
			t.Fatalf("violation %q does not name %q", r.Violations[0], want)
		}
		serve.FlipOccupancyBit(s, 0, b[0], b[1])
		auditServerClean(t, s)
	}
}

// TestAuditServerCatchesLoanDrift breaks check 7 both ways — a loan
// dropped from its shard's ledger with the rung mirror still set, and
// a mirror entry on a held frame with no loan — and requires the
// auditor to name the frame each time.
func TestAuditServerCatchesLoanDrift(t *testing.T) {
	top, m := bootPair(t)
	s, err := serve.New(top, m, serve.Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	c, err := s.NewClient(top.CoresOfNode(0)[0])
	if err != nil {
		t.Fatal(err)
	}
	if err := c.SetColors(m.BankColorsOfNode(0)[:1], []int{0}); err != nil {
		t.Fatal(err)
	}
	var preferred []phys.Frame
	for s.Stats().Loans < 2 {
		f, err := c.Alloc()
		if err != nil {
			t.Fatal(err)
		}
		if s.LoanRungMirror(f) == kernel.RungNone {
			preferred = append(preferred, f)
		}
	}
	auditServerClean(t, s)
	var loaned phys.Frame
	s.VisitLoans(func(f phys.Frame, _ int, _ kernel.Rung) { loaned = f })
	requireViolation := func(want string) {
		t.Helper()
		for _, v := range invariant.AuditServer(s).Violations {
			if strings.Contains(v, want) {
				return
			}
		}
		t.Fatalf("no violation names %q", want)
	}
	for _, f := range []phys.Frame{loaned, preferred[0]} {
		if f == loaned {
			serve.DropLoanEntry(s, f)
		} else {
			serve.SetRungMirror(s, f, kernel.RungRemote)
		}
		requireViolation(fmt.Sprintf("rung mirror marks frame %d at rung", f))
		// Free clears the mirror and settles whatever the ledger holds,
		// which puts the two back in step.
		if err := c.Free(f); err != nil {
			t.Fatal(err)
		}
		auditServerClean(t, s)
	}
}

// TestDifferentialKernelVsServe drives the sequential kernel and the
// sharded server through the same MEM+LLC color plan — one principal
// per node, well under each claim's capacity — and proves both
// satisfy the same rules: the plan itself is disjoint, every
// allocation lands at preferred placement (no loans on either side),
// and both auditors come back clean, the server's via the cross-shard
// check 6. The server side allocates from one goroutine per client,
// so `go test -race` checks the interleaving the kernel never has.
func TestDifferentialKernelVsServe(t *testing.T) {
	top, m := bootPair(t)
	cores := []topology.CoreID{0, 4, 8, 12}
	const perTask = 300 // MEMLLC claim capacity here is 1024 frames each

	asn, err := policy.Plan(policy.MEMLLC, m, top, cores)
	if err != nil {
		t.Fatal(err)
	}
	if err := invariant.CheckPlan(m, policy.MEMLLC, asn); err != nil {
		t.Fatal(err)
	}

	// Sequential reference: the kernel under the discrete-event
	// contract, one task per core, round-robin allocation.
	k, err := kernel.New(top, m, kernel.Config{})
	if err != nil {
		t.Fatal(err)
	}
	proc := k.NewProcess()
	tasks := make([]*kernel.Task, len(cores))
	for i, core := range cores {
		task, err := proc.NewTask(core)
		if err != nil {
			t.Fatal(err)
		}
		if err := policy.Apply(task, asn[i]); err != nil {
			t.Fatal(err)
		}
		tasks[i] = task
	}
	for n := 0; n < perTask; n++ {
		for _, task := range tasks {
			if _, _, err := k.AllocPages(task, 0); err != nil {
				t.Fatal(err)
			}
		}
	}
	kr := invariant.Audit(k)
	if err := kr.Err(); err != nil {
		t.Fatal(err)
	}
	kst := k.Stats()
	var kDegraded uint64
	for _, d := range kst.DegradedAllocs {
		kDegraded += d
	}
	if kst.ColoredPages != uint64(perTask*len(cores)) || kDegraded != 0 {
		t.Fatalf("kernel stats = %+v, want %d colored and no degradation", kst, perTask*len(cores))
	}

	// Concurrent subject: the same plan on the sharded server, all
	// clients allocating at once.
	fresh, err := phys.DefaultSeparable(diffMem, top.Nodes())
	if err != nil {
		t.Fatal(err)
	}
	s, err := serve.New(top, fresh, serve.Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	clients := make([]*serve.Client, len(cores))
	for i, core := range cores {
		c, err := s.NewClient(core)
		if err != nil {
			t.Fatal(err)
		}
		if err := c.SetColors(asn[i].BankColors, asn[i].LLCColors); err != nil {
			t.Fatal(err)
		}
		clients[i] = c
	}
	var wg sync.WaitGroup
	errs := make([]error, len(clients))
	for i, c := range clients {
		wg.Add(1)
		go func(i int, c *serve.Client) {
			defer wg.Done()
			for n := 0; n < perTask; n++ {
				if _, err := c.Alloc(); err != nil {
					errs[i] = err
					return
				}
			}
		}(i, c)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("client %d: %v", i, err)
		}
	}

	sr := auditServerClean(t, s)
	if sr.Mapped != uint64(perTask*len(cores)) {
		t.Fatalf("server outstanding = %d, want %d", sr.Mapped, perTask*len(cores))
	}
	// Same rule as the kernel run: within claim capacity, concurrency
	// must not push anyone below preferred placement.
	sst := s.Stats()
	if sst.ColoredPages != uint64(perTask*len(cores)) || sst.DegradedAllocs() != 0 {
		t.Fatalf("server stats = %+v, want %d colored and no degradation", sst, perTask*len(cores))
	}
	if sr.Loans != 0 || kr.Loans != 0 {
		t.Fatalf("loans under capacity: kernel %d, server %d", kr.Loans, sr.Loans)
	}
}

// hammer churns the server from every core at once: colored clients
// under a 16-way MEM+LLC plan plus allocation/free churn, tolerating
// backpressure, then a full drain and audit. Run under -race in CI.
func hammer(t *testing.T, cfg serve.Config, opsPerClient int) {
	t.Helper()
	top, m := bootPair(t)
	cores := make([]topology.CoreID, top.Cores())
	for i := range cores {
		cores[i] = topology.CoreID(i)
	}
	asn, err := policy.Plan(policy.MEMLLC, m, top, cores)
	if err != nil {
		t.Fatal(err)
	}
	s, err := serve.New(top, m, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	var wg sync.WaitGroup
	errs := make([]error, len(cores))
	for i := range cores {
		c, err := s.NewClient(cores[i])
		if err != nil {
			t.Fatal(err)
		}
		// Half the clients take the plan's colors, half stay
		// uncolored, so colored, default and ladder paths all run
		// concurrently.
		if i%2 == 0 {
			if err := c.SetColors(asn[i].BankColors, asn[i].LLCColors); err != nil {
				t.Fatal(err)
			}
		}
		wg.Add(1)
		go func(i int, c *serve.Client) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(i) + 1))
			var owned []phys.Frame
			for op := 0; op < opsPerClient; op++ {
				if len(owned) > 0 && rng.Intn(10) < 3 {
					j := rng.Intn(len(owned))
					if err := c.Free(owned[j]); err != nil {
						errs[i] = err
						return
					}
					owned[j] = owned[len(owned)-1]
					owned = owned[:len(owned)-1]
					continue
				}
				f, err := c.Alloc()
				switch {
				case errors.Is(err, serve.ErrBusy):
					runtime.Gosched() // backpressure: shed and retry later
					continue
				case errors.Is(err, serve.ErrNoMemory):
					// Machine-wide exhaustion: release something and
					// keep going.
					if len(owned) == 0 {
						continue
					}
					if err := c.Free(owned[len(owned)-1]); err != nil {
						errs[i] = err
						return
					}
					owned = owned[:len(owned)-1]
					continue
				case err != nil:
					errs[i] = err
					return
				}
				owned = append(owned, f)
			}
			for _, f := range owned {
				if err := c.Free(f); err != nil {
					errs[i] = err
					return
				}
			}
		}(i, c)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("client %d: %v", i, err)
		}
	}

	r := auditServerClean(t, s)
	if r.Mapped != 0 {
		t.Fatalf("%d frames still outstanding after full drain", r.Mapped)
	}
	if r.Loans != 0 {
		t.Fatalf("%d loans outstanding after full drain", r.Loans)
	}
}

func TestHammerDefaults(t *testing.T) {
	hammer(t, serve.Config{}, 400)
}

// A tiny high-water mark forces the ErrBusy path while the same
// invariants must hold.
func TestHammerTinyQueues(t *testing.T) {
	hammer(t, serve.Config{HighWater: 2, Stripes: 2}, 250)
}

// waitRefills waits until n refills are running on shard 0.
func waitRefills(t *testing.T, s *serve.Server, n int) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for serve.PendingRefills(s, 0) < n {
		if time.Now().After(deadline) {
			t.Fatalf("only %d of %d clients reached their refill", serve.PendingRefills(s, 0), n)
		}
		runtime.Gosched()
	}
}

// TestCloseDuringRefill closes the server while clients are mid-miss.
// Eight colored clients on node 0 allocate past their one-bucket
// claims, until the zone is dry and every further Alloc misses. The
// test then holds shard 0's zone lock and lets each client allocate
// once more, so every client stops inside its refill; Close must
// return with those refills still waiting. Released, each refill
// completes (Close refuses new work but does not cut a refill short)
// and the client's next Alloc fails ErrClosed. Every frame is then
// owned, parked or free, and serve.New without compaction has started
// no goroutine that could outlive Close.
func TestCloseDuringRefill(t *testing.T) {
	top, m := bootPair(t)
	baseline := runtime.NumGoroutine()
	s, err := serve.New(top, m, serve.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if n := runtime.NumGoroutine(); n > baseline {
		t.Fatalf("serve.New started %d goroutines without compaction", n-baseline)
	}
	const clients, warm = 8, 16 // a claim holds 4 frames of node 0
	banks := m.BankColorsOfNode(0)
	cores := top.CoresOfNode(0)
	var ready, wg sync.WaitGroup
	resume := make(chan struct{})
	owned := make([][]phys.Frame, clients)
	errs := make([]error, clients)
	// Every claim is in place before any client allocates, so no
	// borrow takes a color a later claim assigns.
	cs := make([]*serve.Client, clients)
	for i := range cs {
		c, err := s.NewClient(cores[i%len(cores)])
		if err != nil {
			t.Fatal(err)
		}
		if err := c.SetColors(banks[i:i+1], []int{i}); err != nil {
			t.Fatal(err)
		}
		cs[i] = c
	}
	for i, c := range cs {
		ready.Add(1)
		wg.Add(1)
		go func(i int, c *serve.Client) {
			defer wg.Done()
			for len(owned[i]) < warm {
				f, err := c.Alloc()
				if err != nil {
					errs[i] = err
					ready.Done()
					return
				}
				owned[i] = append(owned[i], f)
			}
			ready.Done()
			<-resume
			for {
				f, err := c.Alloc()
				if errors.Is(err, serve.ErrClosed) {
					return
				}
				if err != nil {
					errs[i] = err
					return
				}
				owned[i] = append(owned[i], f)
			}
		}(i, c)
	}
	ready.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("client %d warm-up: %v", i, err)
		}
	}
	serve.LockZone(s, 0)
	close(resume)
	waitRefills(t, s, clients)
	s.Close()
	serve.UnlockZone(s, 0)
	wg.Wait()
	var total uint64
	for i, err := range errs {
		if err != nil {
			t.Fatalf("client %d: %v", i, err)
		}
		if len(owned[i]) != warm+1 {
			t.Fatalf("client %d holds %d frames, want %d: the waiting refill should complete, then ErrClosed", i, len(owned[i]), warm+1)
		}
		total += uint64(len(owned[i]))
	}
	if r := auditServerClean(t, s); r.Mapped != total {
		t.Fatalf("server outstanding = %d, clients hold %d", r.Mapped, total)
	}
	if got := serve.PendingRefills(s, 0); got != 0 {
		t.Fatalf("%d refills still counted after Close", got)
	}
	for i, c := range cs {
		for _, f := range owned[i] {
			if err := c.Free(f); err != nil {
				t.Fatalf("client %d free after Close: %v", i, err)
			}
		}
	}
	if r := auditServerClean(t, s); r.Mapped != 0 || r.Loans != 0 {
		t.Fatalf("after freeing everything: %d outstanding, %d loans", r.Mapped, r.Loans)
	}
	// The clients' goroutines exit just after wg.Done; wait for them.
	for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > baseline; {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines outlived Close", runtime.NumGoroutine()-baseline)
		}
		runtime.Gosched()
	}
}

// TestConcurrentMissesShareShatter runs eight clients with identical
// claims on node 0, allocating N frames between them at once. A miss
// that queued on the zone lock behind another miss's shatter must take
// its frame from the pages that shatter parked, not shatter again: the
// server may break no more blocks than one client needs for N
// allocations on a fresh server.
func TestConcurrentMissesShareShatter(t *testing.T) {
	const goroutines, perClient = 8, 40
	top := topology.Opteron6128()
	boot := func() (*serve.Server, *phys.Mapping) {
		m, err := phys.DefaultSeparable(1<<30, top.Nodes())
		if err != nil {
			t.Fatal(err)
		}
		s, err := serve.New(top, m, serve.Config{})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(s.Close)
		return s, m
	}
	claim := func(s *serve.Server, m *phys.Mapping) *serve.Client {
		c, err := s.NewClient(top.CoresOfNode(0)[0])
		if err != nil {
			t.Fatal(err)
		}
		if err := c.SetColors(m.BankColorsOfNode(0)[:4], []int{0, 1, 2, 3, 4, 5, 6, 7}); err != nil {
			t.Fatal(err)
		}
		return c
	}

	solo, m := boot()
	c := claim(solo, m)
	for i := 0; i < goroutines*perClient; i++ {
		if _, err := c.Alloc(); err != nil {
			t.Fatal(err)
		}
	}
	want := solo.Stats().Refills

	// Every client's first Alloc misses the empty lists; holding the
	// zone lock until all of them wait on it makes the first shatter
	// one that seven misses queued behind.
	s, m := boot()
	var wg sync.WaitGroup
	errs := make([]error, goroutines)
	serve.LockZone(s, 0)
	for i := 0; i < goroutines; i++ {
		c := claim(s, m)
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for n := 0; n < perClient; n++ {
				if _, err := c.Alloc(); err != nil {
					errs[i] = err
					return
				}
			}
		}(i)
	}
	waitRefills(t, s, goroutines)
	serve.UnlockZone(s, 0)
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("client %d: %v", i, err)
		}
	}
	st := s.Stats()
	if st.Refills > want {
		t.Errorf("%d shatters for %d concurrent allocations; one client needs %d", st.Refills, goroutines*perClient, want)
	}
	if st.DegradedAllocs() != 0 {
		t.Errorf("%d allocations borrowed within the claim's capacity", st.DegradedAllocs())
	}
	if r := auditServerClean(t, s); r.Mapped != goroutines*perClient {
		t.Fatalf("server outstanding = %d, want %d", r.Mapped, goroutines*perClient)
	}
}
