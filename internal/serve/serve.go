// Package serve is TintMalloc's concurrent allocation front-end: a
// goroutine-safe serving layer over the same physical-memory model the
// deterministic kernel simulates single-threaded. The paper's kernel
// serves colored order-0 allocations to many pinned threads at once;
// internal/kernel reproduces the *policy* of that path faithfully but
// serializes every call under the discrete-event engine. This package
// supplies the missing serving architecture, in the spirit of Vertical
// Memory Management's partitioned per-policy zones (PAPERS.md):
//
//   - The machine's color space is sharded per NUMA node. Each shard
//     owns a disjoint slice of the bank/LLC color matrix — the columns
//     of its node's bank colors, which never overlap another node's —
//     plus its node's buddy zone. Two shards never contend for a
//     frame, a color list, or a free list.
//   - Color lists are lock-striped: the (bank, LLC) buckets of a shard
//     are guarded by a small array of stripe mutexes, so concurrent
//     clients popping different colors do not serialize. A per-shard
//     occupancy bitmap (one bit per bucket, set iff it is non-empty)
//     lets a search find the claim's first non-empty bucket with a
//     few word operations instead of a lock per (bank, LLC) cell.
//   - Refills run inline: a client that misses its color lists takes
//     the shard's zone lock and runs create_color_list (paper
//     Algorithm 2) itself, as Algorithm 1 does in the kernel. Misses
//     that queue behind a block shatter re-try the lists first, so one
//     shatter serves every waiter whose color it parked.
//   - Backpressure is explicit: past a high-water mark of refills
//     running on one shard, the shard rejects with ErrBusy instead of
//     queueing more waiters on its zone lock — callers retry or shed
//     load.
//   - Exhaustion composes with the PR-4 degradation ladder: a drained
//     shard borrows in the same rung order the sequential kernel walks
//     (same-node unassigned color, local uncolored, remote), records
//     every below-preferred frame as a loan, and reports ErrNoMemory
//     only when no free frame exists on any shard.
//
// Determinism scope: a single client driving a single shard sees the
// exact LIFO placement the sequential kernel would produce, and each
// shard's zone is mutated only under its own lock in request order —
// so per-shard behaviour is deterministic for a deterministic request
// sequence. Across shards under concurrent load, frame-to-client
// assignment depends on goroutine scheduling and is explicitly NOT
// reproducible run to run; what is preserved — and what the
// differential tests and invariant.AuditServer check 6 verify — is
// the invariant set: plan disjointness, single ownership, color-hash
// correctness, and loan accounting. See DESIGN.md Sec. 11.
package serve

import (
	"errors"
	"fmt"
	"slices"
	"sort"
	"sync"
	"sync/atomic"

	"github.com/tintmalloc/tintmalloc/internal/buddy"
	"github.com/tintmalloc/tintmalloc/internal/kernel"
	"github.com/tintmalloc/tintmalloc/internal/phys"
	"github.com/tintmalloc/tintmalloc/internal/topology"
)

// cacheLine is the span a pad must cover to keep a hot written field
// off the cache line of fields that other CPUs read.
const cacheLine = 64

// Sentinel errors.
var (
	// ErrBusy reports backpressure: the shard's concurrent refills are
	// past its high-water mark. The allocation was not attempted;
	// callers retry or shed load.
	ErrBusy = errors.New("serve: shard refills past high-water mark")
	// ErrNoMemory reports machine-wide exhaustion: the borrow ladder
	// swept every shard's zone and color lists and found nothing.
	ErrNoMemory = errors.New("serve: out of memory on every shard")
	// ErrClosed reports a request against a closed server.
	ErrClosed = errors.New("serve: server closed")
	// ErrNotOwner reports a free of a frame the client never owned (or
	// already freed) — the concurrent analogue of a double free.
	ErrNotOwner = errors.New("serve: freeing a frame the client does not own")
)

// Config tunes the serving layer. The zero value selects defaults.
type Config struct {
	// HighWater caps the refills running concurrently on one shard;
	// a miss past it fails with ErrBusy (default 192).
	HighWater int
	// Stripes is the number of lock stripes over each shard's color
	// buckets (default 16).
	Stripes int
	// DisableBorrow turns off the cross-shard degradation ladder: a
	// drained shard fails with ErrNoMemory even while other shards
	// have free frames (the paper-faithful fail-hard mode).
	DisableBorrow bool
	// CompactBudget, when positive, starts one background compaction
	// worker per shard; each KickCompact pass attempts up to this many
	// loan migrations per shard (see CompactShard). Zero — the default
	// — starts no workers and leaves every allocation path untouched.
	CompactBudget int
}

func (c Config) withDefaults() Config {
	if c.Stripes <= 0 {
		c.Stripes = 16
	}
	if c.HighWater <= 0 {
		c.HighWater = 192
	}
	return c
}

// Loan records one frame handed out below preferred placement by the
// borrow ladder: who holds it and which rung it came from.
type Loan struct {
	Client *Client
	Rung   kernel.Rung
}

// Server is the sharded allocation front-end. All methods are safe
// for concurrent use unless noted otherwise (the Visit* accessors
// require quiescence for a coherent snapshot).
type Server struct {
	topo    *topology.Topology
	mapping *phys.Mapping
	cfg     Config
	shards  []*shard
	// owners[f] holds clientID+1 while frame f is handed out, 0
	// otherwise. The single-ownership rule is enforced with CAS.
	owners []atomic.Int32
	// colored[f] marks frames owned by the colored allocator: parked
	// on a color list or handed out through one. Such frames repark on
	// free; uncolored frames rejoin their shard's buddy zone.
	colored []atomic.Bool
	// assignedBank/assignedLLC count how many clients claim each
	// color — the ladder's borrow-unassigned rung consults them.
	assignedBank []atomic.Int32
	assignedLLC  []atomic.Int32

	// rungOf[f] is rung+1 while a loan for f exists on its shard's
	// ledger; 0 otherwise. It keeps the free fast path off the ledger
	// when nothing is loaned.
	rungOf []atomic.Int32

	clientMu sync.Mutex
	clients  []*Client //tintvet:guardedby clientMu
	// claims interns MEM+LLC claims, keyed by the sorted, duplicate-free
	// bank and LLC colors, so clients with equal claims share one
	// claimSet.
	claims map[string]*claimSet //tintvet:guardedby clientMu

	// compactKick has one buffered kick channel per shard while
	// background compaction is enabled; nil when disabled.
	compactKick []chan struct{}

	closed    atomic.Bool
	closeOnce sync.Once
	stop      chan struct{}
	wg        sync.WaitGroup
	// stats is written by every Alloc and Free; the pad keeps it off
	// the cache line of closed and the other fields every Alloc reads.
	_     [cacheLine]byte
	stats serverStats
}

// New boots a server over the machine: one shard per NUMA node, each
// owning the node's frame range as a fresh buddy zone and the node's
// slice of the bank-color space. Call Close when done to stop the
// compaction workers, if CompactBudget started any.
func New(topo *topology.Topology, mapping *phys.Mapping, cfg Config) (*Server, error) {
	if topo.Nodes() != mapping.Nodes() {
		return nil, fmt.Errorf("serve: topology nodes %d != mapping nodes %d",
			topo.Nodes(), mapping.Nodes())
	}
	cfg = cfg.withDefaults()
	nodes := mapping.Nodes()
	framesPerNode := mapping.Frames() / uint64(nodes)
	s := &Server{
		topo:         topo,
		mapping:      mapping,
		cfg:          cfg,
		owners:       make([]atomic.Int32, mapping.Frames()),
		colored:      make([]atomic.Bool, mapping.Frames()),
		assignedBank: make([]atomic.Int32, mapping.NumBankColors()),
		assignedLLC:  make([]atomic.Int32, mapping.NumLLCColors()),
		rungOf:       make([]atomic.Int32, mapping.Frames()),
		claims:       make(map[string]*claimSet),
		stop:         make(chan struct{}),
	}
	for n := 0; n < nodes; n++ {
		zone, err := buddy.New(framesPerNode)
		if err != nil {
			return nil, err
		}
		sh, err := newShard(n, phys.Frame(uint64(n)*framesPerNode), zone, mapping, cfg)
		if err != nil {
			return nil, err
		}
		s.shards = append(s.shards, sh)
	}
	if cfg.CompactBudget > 0 {
		s.compactKick = make([]chan struct{}, len(s.shards))
		for i := range s.shards {
			s.compactKick[i] = make(chan struct{}, 1)
			s.wg.Add(1)
			go s.compactor(i)
		}
	}
	return s, nil
}

// Close refuses new work with ErrClosed and stops the compaction
// workers. An Alloc already past its closed check completes, refill
// included; outstanding frames stay recorded so a post-close audit
// still balances. Close is idempotent and safe to call concurrently
// with itself and with in-flight NewClient/Alloc calls: every caller
// returns only after the workers have exited (sync.Once serializes
// the stop-channel close, so a racing second Close can neither panic
// on a double close nor return while workers still run).
func (s *Server) Close() {
	s.closeOnce.Do(func() {
		s.closed.Store(true)
		close(s.stop)
	})
	s.wg.Wait()
}

// NewClient registers a client pinned to the given core. The client's
// node fallback order (for routing and the borrow ladder) follows the
// same hop-distance rule as the kernel's default policy.
func (s *Server) NewClient(core topology.CoreID) (*Client, error) {
	if s.closed.Load() {
		return nil, ErrClosed
	}
	if !s.topo.ValidCore(core) {
		return nil, fmt.Errorf("serve: invalid core %d", core)
	}
	c := &Client{
		srv:       s,
		core:      core,
		nodeOrder: nodeOrderFor(s.topo, core),
	}
	s.clientMu.Lock()
	c.id = len(s.clients)
	s.clients = append(s.clients, c)
	s.clientMu.Unlock()
	return c, nil
}

// nodeOrderFor returns node indices sorted by hop distance from core
// (ties by node id) — the zone fallback order of the default policy.
func nodeOrderFor(topo *topology.Topology, core topology.CoreID) []int {
	n := topo.Nodes()
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	sort.Slice(out, func(i, j int) bool {
		hi := topo.Hops(core, topology.NodeID(out[i]))
		hj := topo.Hops(core, topology.NodeID(out[j]))
		if hi != hj {
			return hi < hj
		}
		return out[i] < out[j]
	})
	return out
}

// Client is one allocation principal: a pinned thread with an
// optional color claim, the concurrent analogue of the kernel's task
// control block. Alloc and Free are safe to call concurrently with
// other clients' calls (and with the client's own, though a client is
// normally driven by one goroutine). SetColors must complete before
// the first Alloc.
type Client struct {
	srv       *Server
	id        int
	core      topology.CoreID
	nodeOrder []int

	usingBank  bool
	usingLLC   bool
	bankColors []int     // sorted, duplicate-free owned bank colors
	llcColors  []int     // sorted, duplicate-free owned LLC colors
	llcMask    []uint64  // llcColors as one row of a shard's occupancy bitmap
	claim      *claimSet // interned MEM+LLC claim; nil for other claims
	colorsSet  bool

	// cursor rotates allocations over the client's color combinations
	// so heap pages spread evenly, exactly as the kernel's comboCursor
	// does; atomic so a client may be driven from several goroutines.
	// It is written by every Alloc; the pads keep it off the cache lines
	// of neighbouring heap objects, such as another client's fields.
	_      [cacheLine]byte
	cursor atomic.Uint64
	_      [cacheLine - 8]byte

	// relocate is the client's compaction swap callback (see
	// SetRelocator); nil while the client opts out.
	relocate atomic.Pointer[RelocateFunc]
}

// ID returns the client identifier (unique across the server).
func (c *Client) ID() int { return c.id }

// Core returns the core the client is pinned to.
func (c *Client) Core() topology.CoreID { return c.core }

// UsingBank reports whether bank coloring is active.
func (c *Client) UsingBank() bool { return c.usingBank }

// UsingLLC reports whether LLC coloring is active.
func (c *Client) UsingLLC() bool { return c.usingLLC }

// BankColors returns a copy of the owned bank colors.
func (c *Client) BankColors() []int { return append([]int(nil), c.bankColors...) }

// LLCColors returns a copy of the owned LLC colors.
func (c *Client) LLCColors() []int { return append([]int(nil), c.llcColors...) }

// OwnsBankColor reports whether the client claims bank color bc.
func (c *Client) OwnsBankColor(bc int) bool {
	i := sort.SearchInts(c.bankColors, bc)
	return i < len(c.bankColors) && c.bankColors[i] == bc
}

// OwnsLLCColor reports whether the client claims LLC color lc.
func (c *Client) OwnsLLCColor(lc int) bool {
	i := sort.SearchInts(c.llcColors, lc)
	return i < len(c.llcColors) && c.llcColors[i] == lc
}

// banksOn returns the claimed bank colors on node n. Eq. 1 numbers
// bank colors node by node, so they are one run of the sorted claim.
func (c *Client) banksOn(n int) []int {
	per := c.srv.mapping.BanksPerNode()
	lo, _ := slices.BinarySearch(c.bankColors, n*per)
	hi, _ := slices.BinarySearch(c.bankColors, (n+1)*per)
	return c.bankColors[lo:hi]
}

// SetColors installs the client's color claim — the front-end
// analogue of the paper's mmap color-selection protocol, taken whole
// instead of color by color. Empty slices leave the respective
// dimension uncolored; a color listed twice is claimed once, as the
// kernel's color sets do. SetColors may be called at most once, before
// the client's first allocation.
func (c *Client) SetColors(bank, llc []int) error {
	s := c.srv
	if c.colorsSet {
		return fmt.Errorf("serve: client %d colors already set", c.id)
	}
	for _, bc := range bank {
		if bc < 0 || bc >= s.mapping.NumBankColors() {
			return fmt.Errorf("serve: bank color %d out of range [0,%d)", bc, s.mapping.NumBankColors())
		}
	}
	for _, lc := range llc {
		if lc < 0 || lc >= s.mapping.NumLLCColors() {
			return fmt.Errorf("serve: LLC color %d out of range [0,%d)", lc, s.mapping.NumLLCColors())
		}
	}
	c.bankColors = slices.Compact(slices.Sorted(slices.Values(bank)))
	c.llcColors = slices.Compact(slices.Sorted(slices.Values(llc)))
	c.llcMask = make([]uint64, (s.mapping.NumLLCColors()+63)/64)
	for _, lc := range c.llcColors {
		c.llcMask[lc>>6] |= 1 << uint(lc&63)
	}
	c.usingBank = len(c.bankColors) > 0
	c.usingLLC = len(c.llcColors) > 0
	if c.usingBank && c.usingLLC {
		c.claim = s.internClaim(c.bankColors, c.llcColors)
	}
	for _, bc := range c.bankColors {
		s.assignedBank[bc].Add(1)
	}
	for _, lc := range c.llcColors {
		s.assignedLLC[lc].Add(1)
	}
	c.colorsSet = true
	return nil
}

// claimSet is a MEM+LLC claim resolved against each shard: shards[n]
// holds the claim's cells on node n's shard. SetColors interns one per
// distinct claim, so its tables cost memory per claim, not per client
// (DESIGN.md Sec. 11.6).
type claimSet struct {
	shards []claimShard
}

// claimShard is a claim's view of one shard. With the shard's claimed
// bank colors B and the LLC colors L, both ascending, combination k is
// (B[k/|L|], L[k%|L|]) — the kernel's comboCursor order.
type claimShard struct {
	starts []int32  // starts[k]: the bucket of combination k, ascending in k
	mask   []uint64 // over the shard's occupancy words: bit b set iff bucket b is claimed and compatible
}

// internClaim returns the claimSet of a sorted, duplicate-free MEM+LLC
// claim, building it on the claim's first use.
func (s *Server) internClaim(bank, llc []int) *claimSet {
	key := fmt.Sprint(bank, llc)
	s.clientMu.Lock()
	defer s.clientMu.Unlock()
	if cs, ok := s.claims[key]; ok {
		return cs
	}
	cs := &claimSet{shards: make([]claimShard, len(s.shards))}
	for n, sh := range s.shards {
		cl := &cs.shards[n]
		for _, bc := range bank {
			li := sh.localOf[bc]
			if li < 0 {
				continue
			}
			if cl.mask == nil {
				cl.mask = make([]uint64, len(sh.occ))
			}
			for _, lc := range llc {
				b := li*sh.nLLC + lc
				cl.starts = append(cl.starts, int32(b))
				if s.mapping.ComboCompatible(bc, lc) {
					cl.mask[b>>6] |= 1 << uint(b&63)
				}
			}
		}
	}
	s.claims[key] = cs
	return cs
}

// Alloc hands the client one order-0 frame under its color claim: the
// concurrent Algorithm 1. Colored clients hit their shard's striped
// color lists, fall back to an inline refill, and finally walk the
// borrow ladder; uncolored clients take shard zones in node-fallback
// order. Returns ErrBusy under backpressure (nothing was allocated)
// and ErrNoMemory only on machine-wide exhaustion.
func (c *Client) Alloc() (phys.Frame, error) {
	s := c.srv
	if s.closed.Load() {
		return 0, ErrClosed
	}
	if !c.usingBank && !c.usingLLC {
		return s.allocDefault(c)
	}
	return s.allocColored(c)
}

// Free returns a frame obtained from Alloc. Colored frames repark on
// their shard's color list; uncolored frames rejoin the shard's buddy
// zone. Freeing settles any loan on the frame.
func (c *Client) Free(f phys.Frame) error {
	s := c.srv
	if !s.mapping.ValidFrame(f) {
		return fmt.Errorf("serve: frame %d out of range", f)
	}
	if !s.owners[f].CompareAndSwap(int32(c.id)+1, 0) {
		return ErrNotOwner
	}
	sh := s.shards[s.mapping.NodeOfFrame(f)]
	if s.rungOf[f].Swap(0) != 0 {
		sh.settleLoan(f)
	}
	s.stats.frees.Add(1)
	if s.colored[f].Load() {
		sh.park(f, s)
		return nil
	}
	sh.zoneMu.Lock()
	err := sh.zone.Free(f-sh.base, 0)
	sh.zoneMu.Unlock()
	return err
}

// Realloc exchanges one held frame for a fresh allocation under the
// same color claim. The new frame is allocated first, so an Alloc
// failure (ErrBusy, ErrNoMemory) leaves the old frame owned and the
// caller's bookkeeping untouched; only then is old freed. If that
// free fails (ErrNotOwner — the caller never held old) the fresh
// frame is released again before the error is returned.
func (c *Client) Realloc(old phys.Frame) (phys.Frame, error) {
	f, err := c.Alloc()
	if err != nil {
		return 0, err
	}
	if err := c.Free(old); err != nil {
		if ferr := c.Free(f); ferr != nil {
			return 0, fmt.Errorf("serve: realloc unwind: %v (after %w)", ferr, err)
		}
		return 0, err
	}
	return f, nil
}

// allocColored serves a colored client: striped-list fast path on the
// routed shard, then an inline refill, which walks the borrow ladder
// if the shard is drained.
func (s *Server) allocColored(c *Client) (phys.Frame, error) {
	seq := c.cursor.Add(1) - 1
	sh := s.routeShard(c, seq)
	if f, ok := sh.popMatch(c, seq); ok {
		s.finishAlloc(c, f, kernel.RungNone)
		s.stats.coloredAllocs.Add(1)
		return f, nil
	}
	f, rung, err := sh.refill(c, seq, s)
	if err != nil {
		return 0, err
	}
	s.finishAlloc(c, f, rung)
	if rung == kernel.RungNone {
		s.stats.coloredAllocs.Add(1)
	}
	return f, nil
}

// routeShard picks the shard serving this allocation: bank-colored
// clients follow the rotating color cursor to the shard owning the
// chosen color; LLC-only and uncolored clients stay on their local
// node's shard.
func (s *Server) routeShard(c *Client, seq uint64) *shard {
	if c.usingBank {
		bc := c.bankColors[int(seq%uint64(len(c.bankColors)))]
		return s.shards[s.mapping.NodeOfBankColor(bc)]
	}
	return s.shards[c.nodeOrder[0]]
}

// allocDefault serves an uncolored client: shard zones in node
// fallback order (the default policy), then — zones dry — parked
// pages via the ladder, spending a colored page on an uncolored task.
func (s *Server) allocDefault(c *Client) (phys.Frame, error) {
	for _, n := range c.nodeOrder {
		sh := s.shards[n]
		sh.zoneMu.Lock()
		f, err := sh.zone.Alloc(0)
		sh.zoneMu.Unlock()
		if err == nil {
			s.finishAlloc(c, sh.base+f, kernel.RungNone)
			s.stats.defaultAllocs.Add(1)
			return sh.base + f, nil
		}
	}
	if s.cfg.DisableBorrow {
		return 0, ErrNoMemory
	}
	if f, ok := s.shards[c.nodeOrder[0]].popAnyParked(s); ok {
		s.finishAlloc(c, f, kernel.RungBorrowColor)
		return f, nil
	}
	for _, n := range c.nodeOrder[1:] {
		if f, ok := s.shards[n].popAnyParked(s); ok {
			s.finishAlloc(c, f, kernel.RungRemote)
			return f, nil
		}
	}
	return 0, ErrNoMemory
}

// finishAlloc records ownership (and, for ladder frames, the loan)
// for a frame about to be handed to c.
func (s *Server) finishAlloc(c *Client, f phys.Frame, rung kernel.Rung) {
	s.owners[f].Store(int32(c.id) + 1)
	s.stats.allocs.Add(1)
	if rung == kernel.RungNone {
		return
	}
	s.stats.borrows[rung].Add(1)
	s.rungOf[f].Store(int32(rung) + 1)
	s.shards[s.mapping.NodeOfFrame(f)].addLoan(f, Loan{Client: c, Rung: rung})
}

// borrow walks the degradation ladder for a colored client whose home
// shard came up empty, mirroring the sequential kernel's rung order
// (DESIGN.md Sec. 10) across shards: same-shard unassigned color,
// local uncolored zone frame, local parked page, then remote shards —
// zone frames first, parked pages second. Callers must not hold any
// shard's zone lock (the ladder takes them one at a time).
func (s *Server) borrow(c *Client, home *shard) (phys.Frame, kernel.Rung, bool) {
	if s.cfg.DisableBorrow {
		return 0, kernel.RungNone, false
	}
	if f, ok := home.popUnassigned(c, s); ok {
		return f, kernel.RungBorrowColor, true
	}
	home.zoneMu.Lock()
	f, err := home.zone.Alloc(0)
	home.zoneMu.Unlock()
	if err == nil {
		return home.base + f, kernel.RungLocalUncolored, true
	}
	if f, ok := home.popAnyParked(s); ok {
		return f, kernel.RungLocalUncolored, true
	}
	for _, n := range c.nodeOrder {
		if n == home.node {
			continue
		}
		sh := s.shards[n]
		sh.zoneMu.Lock()
		f, err := sh.zone.Alloc(0)
		sh.zoneMu.Unlock()
		if err == nil {
			return sh.base + f, kernel.RungRemote, true
		}
		if f, ok := sh.popAnyParked(s); ok {
			return f, kernel.RungRemote, true
		}
	}
	return 0, kernel.RungNone, false
}
