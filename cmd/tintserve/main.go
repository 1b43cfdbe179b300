// Command tintserve exercises the sharded concurrent allocation
// front-end (internal/serve): it pins N clients to the cores of M
// engaged NUMA nodes under a MEM+LLC color plan, churns allocations
// from all of them at once, audits the final state with the
// cross-shard invariant checker, and prints the serving counters —
// colored hit rate, refill passes and block shatters, backpressure
// rejections and degradation-ladder traffic.
//
// Usage:
//
//	tintserve                              # 16 clients over all 4 shards
//	tintserve -nodes 1 -clients 16         # same load on a single shard
//	tintserve -ops 100000 -highwater 48 -stripes 4
//	tintserve -disable-borrow              # paper-faithful fail-hard mode
//
// Exit status is 0 on a clean audited run, 1 on a runtime failure,
// 2 on a usage error.
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"github.com/tintmalloc/tintmalloc/internal/bench"
	"github.com/tintmalloc/tintmalloc/internal/serve"
)

type options struct {
	nodes     int
	clients   int
	ops       int
	memGiB    float64
	highwater int
	stripes   int
	noBorrow  bool
}

// validate rejects option combinations before any platform is built.
// The serve.Config clamps would silently "repair" most of these; a
// benchmark run with repaired parameters reports numbers for a
// configuration the operator didn't ask for, so the front-end fails
// loudly instead.
func validate(o options) error {
	if o.nodes <= 0 {
		return fmt.Errorf("-nodes %d: must engage at least one node", o.nodes)
	}
	if o.clients <= 0 {
		return fmt.Errorf("-clients %d: must run at least one client", o.clients)
	}
	if o.ops <= 0 {
		return fmt.Errorf("-ops %d: must churn at least one operation", o.ops)
	}
	if o.memGiB <= 0 {
		return fmt.Errorf("-mem %g: installed memory must be positive", o.memGiB)
	}
	if o.highwater < 0 || o.stripes < 0 {
		return fmt.Errorf("-highwater/-stripes must not be negative")
	}
	return nil
}

func main() {
	var o options
	flag.IntVar(&o.nodes, "nodes", 4, "NUMA nodes engaged (clients pin to their cores)")
	flag.IntVar(&o.clients, "clients", 16, "concurrent clients")
	flag.IntVar(&o.ops, "ops", 20000, "churn operations per client")
	flag.Float64Var(&o.memGiB, "mem", 2, "installed physical memory in GiB")
	flag.IntVar(&o.highwater, "highwater", 0, "concurrent refills per shard before ErrBusy (0 = default 192)")
	flag.IntVar(&o.stripes, "stripes", 0, "lock stripes per shard's color lists (0 = default 16)")
	flag.BoolVar(&o.noBorrow, "disable-borrow", false, "fail with ErrNoMemory instead of walking the cross-shard ladder")
	flag.Parse()

	if err := validate(o); err != nil {
		fmt.Fprintln(os.Stderr, "tintserve:", err)
		flag.Usage()
		os.Exit(2)
	}

	cfg := serve.Config{
		HighWater:     o.highwater,
		Stripes:       o.stripes,
		DisableBorrow: o.noBorrow,
	}
	spec := bench.ServeSpec{
		Name:    fmt.Sprintf("%d_nodes_%d_clients", o.nodes, o.clients),
		Nodes:   o.nodes,
		Clients: o.clients,
		Ops:     o.ops,
	}

	start := time.Now()
	cell, err := bench.RunServeCell(spec, uint64(o.memGiB*(1<<30)), cfg)
	wall := time.Since(start).Seconds()
	if err != nil {
		fmt.Fprintln(os.Stderr, "tintserve:", err)
		os.Exit(1)
	}

	st := cell.Stats
	// A sub-resolution wall clock (possible for tiny -ops runs) would
	// print ops/sec as +Inf; elide the rate instead.
	if wall > 0 {
		fmt.Printf("%s: %d ops in %.3fs (%.0f ops/sec), audit clean\n",
			spec.Name, cell.Ops, wall, float64(cell.Ops)/wall)
	} else {
		fmt.Printf("%s: %d ops, audit clean\n", spec.Name, cell.Ops)
	}
	fmt.Printf("%-24s %12d\n", "allocations", st.Allocs)
	fmt.Printf("%-24s %12d\n", "  colored (preferred)", st.ColoredPages)
	fmt.Printf("%-24s %12d\n", "  degraded (ladder)", st.DegradedAllocs())
	for r, n := range st.Borrows {
		fmt.Printf("%-24s %12d\n", fmt.Sprintf("    rung %d", r), n)
	}
	fmt.Printf("%-24s %12d\n", "frees", st.Frees)
	fmt.Printf("%-24s %12d\n", "refills (shatters)", st.Refills)
	fmt.Printf("%-24s %12d\n", "refill frames", st.RefillFrames)
	fmt.Printf("%-24s %12d\n", "refill passes", st.Batches)
	fmt.Printf("%-24s %12d\n", "busy rejections", st.Rejected)
	fmt.Printf("%-24s %12d\n", "client retries", cell.Retries)
}
