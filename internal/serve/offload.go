package serve

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"github.com/tintmalloc/tintmalloc/internal/phys"
	"github.com/tintmalloc/tintmalloc/internal/ring"
	"github.com/tintmalloc/tintmalloc/internal/topology"
)

// Offload is the allocation-core experiment front-end (EXPERIMENTS.md):
// instead of every application goroutine running the allocator inline,
// each NUMA node dedicates one simulated core — a goroutine — to
// allocation, in the style of SpeedMalloc's dedicated serving core
// (PAPERS.md). Clients ship alloc/free requests to their node's
// allocation core over private SPSC rings and spin-wait for the reply,
// so the allocator's locks, color lists and refill machinery are only
// ever touched by the per-node cores.
//
// The point of the experiment is the comparison, not a guaranteed win:
// offloading trades lock contention between N clients for ring hops
// and the serialization of one core per node. `tintbench -exp offload`
// records both sides under identical workloads in BENCH_serve.json.
type Offload struct {
	srv       *Server
	cfg       OffloadConfig
	cores     []*allocCore
	closed    atomic.Bool
	closeOnce sync.Once
	wg        sync.WaitGroup
}

// OffloadConfig tunes the offload front-end. The zero value selects
// defaults.
type OffloadConfig struct {
	// RingDepth is the capacity of each client's request and response
	// rings; it must be a power of two (default 64). The synchronous
	// client protocol needs only one slot in steady state; the headroom
	// is for future pipelined clients.
	RingDepth int
}

func (c OffloadConfig) withDefaults() OffloadConfig {
	if c.RingDepth == 0 {
		c.RingDepth = 64
	}
	return c
}

const (
	offAlloc = uint8(iota)
	offFree
)

// offReq is one request slot: the operation and, for frees, its frame.
type offReq struct {
	op    uint8
	frame phys.Frame
}

// offResp is one reply slot.
type offResp struct {
	frame phys.Frame
	err   error
}

// allocCore is one node's allocation core: the set of client lanes it
// polls. lanes holds an immutable snapshot slice swapped on client
// registration, so the core's poll loop never takes a lock.
type allocCore struct {
	node  int
	mu    sync.Mutex // serializes registration (snapshot swap)
	lanes atomic.Pointer[[]*OffloadClient]
}

// OffloadClient is a client whose allocator calls execute on its
// node's allocation core. A client must be driven by one goroutine at
// a time (it is the single producer of its request ring).
type OffloadClient struct {
	o     *Offload
	inner *Client
	req   *ring.SPSC[offReq]
	resp  *ring.SPSC[offResp]
}

// NewOffload wraps a server with per-node allocation cores. Close the
// Offload (which stops the cores) before closing the server.
func NewOffload(s *Server, cfg OffloadConfig) (*Offload, error) {
	cfg = cfg.withDefaults()
	if cfg.RingDepth <= 0 || cfg.RingDepth&(cfg.RingDepth-1) != 0 {
		return nil, fmt.Errorf("serve: offload ring depth %d is not a positive power of two", cfg.RingDepth)
	}
	o := &Offload{srv: s, cfg: cfg}
	for n := 0; n < s.mapping.Nodes(); n++ {
		ac := &allocCore{node: n}
		empty := make([]*OffloadClient, 0)
		ac.lanes.Store(&empty)
		o.cores = append(o.cores, ac)
		o.wg.Add(1)
		go o.coreLoop(ac)
	}
	return o, nil
}

// Server returns the wrapped server (for stats and auditing).
func (o *Offload) Server() *Server { return o.srv }

// Close stops the allocation cores. It does not close the underlying
// server. Callers must quiesce their clients first: an operation still
// in flight at Close time may be abandoned with ErrClosed while the
// core completes it, leaking the client's frame until server teardown.
// Close is idempotent and safe for concurrent use; every caller
// returns only after the cores have exited.
func (o *Offload) Close() {
	o.closeOnce.Do(func() {
		o.closed.Store(true)
	})
	o.wg.Wait()
}

// NewClient registers an offloaded client pinned to core, wired by
// SPSC rings to the allocation core of the core's node.
func (o *Offload) NewClient(core topology.CoreID) (*OffloadClient, error) {
	if o.closed.Load() {
		return nil, ErrClosed
	}
	inner, err := o.srv.NewClient(core)
	if err != nil {
		return nil, err
	}
	req, err := ring.New[offReq](o.cfg.RingDepth)
	if err != nil {
		return nil, err
	}
	resp, err := ring.New[offResp](o.cfg.RingDepth)
	if err != nil {
		return nil, err
	}
	c := &OffloadClient{o: o, inner: inner, req: req, resp: resp}
	ac := o.cores[o.srv.topo.NodeOfCore(core)]
	ac.mu.Lock()
	old := *ac.lanes.Load()
	lanes := make([]*OffloadClient, len(old), len(old)+1)
	copy(lanes, old)
	lanes = append(lanes, c)
	ac.lanes.Store(&lanes)
	ac.mu.Unlock()
	return c, nil
}

// Inner returns the wrapped inline client (for color introspection).
func (c *OffloadClient) Inner() *Client { return c.inner }

// SetColors installs the color claim; like Client.SetColors it must
// complete before the first allocation.
func (c *OffloadClient) SetColors(bank, llc []int) error {
	return c.inner.SetColors(bank, llc)
}

// Alloc requests one frame from the node's allocation core.
func (c *OffloadClient) Alloc() (phys.Frame, error) {
	return c.do(offReq{op: offAlloc})
}

// Free returns a frame through the node's allocation core.
func (c *OffloadClient) Free(f phys.Frame) error {
	_, err := c.do(offReq{op: offFree, frame: f})
	return err
}

// do ships one request and spin-waits for its reply. The protocol is
// synchronous — at most one outstanding request per client — so the
// pushes below cannot find a full ring in steady state; the spin loops
// exist only for robustness.
func (c *OffloadClient) do(r offReq) (phys.Frame, error) {
	if c.o.closed.Load() {
		return 0, ErrClosed
	}
	for !c.req.TryPush(r) {
		if c.o.closed.Load() {
			return 0, ErrClosed
		}
		runtime.Gosched()
	}
	for {
		if res, ok := c.resp.TryPop(); ok {
			return res.frame, res.err
		}
		if c.o.closed.Load() {
			// The core observed closed and exited — but it may have
			// replied between our pop and the closed check, so drain
			// once more before abandoning.
			if res, ok := c.resp.TryPop(); ok {
				return res.frame, res.err
			}
			return 0, ErrClosed
		}
		runtime.Gosched()
	}
}

// coreLoop is one allocation core: poll every lane's request ring,
// execute requests against the lane's inline client, and push the
// reply. Each inner client is driven only by this goroutine, so its
// allocations, refills included, run on the allocation core.
func (o *Offload) coreLoop(ac *allocCore) {
	defer o.wg.Done()
	for {
		if o.closed.Load() {
			return
		}
		worked := false
		for _, c := range *ac.lanes.Load() {
			for {
				r, ok := c.req.TryPop()
				if !ok {
					break
				}
				worked = true
				var res offResp
				switch r.op {
				case offAlloc:
					res.frame, res.err = c.inner.Alloc()
				case offFree:
					res.err = c.inner.Free(r.frame)
				}
				for !c.resp.TryPush(res) {
					// Unreachable under the synchronous protocol
					// (response capacity matches request capacity).
					runtime.Gosched()
				}
			}
		}
		if !worked {
			// Idle core: yield so client goroutines (and on a small
			// host, the other cores) get the CPU.
			runtime.Gosched()
		}
	}
}
