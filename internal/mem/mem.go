// Package mem glues the cache hierarchy, the NUMA interconnect and
// the DRAM subsystem into a single memory system: given a core, a
// physical address and an instant, it resolves the access latency
// including every contention effect TintMalloc targets —
//
//   - shared-L3 interference (threads evicting each other's lines),
//   - DRAM bank row-buffer conflicts and controller queueing,
//   - remote-controller hop penalties and cross-node link contention.
//
// The model is a memory-side timing simulator: L1/L2 are per-core and
// private, L3 is shared machine-wide (paper Sec. II-A), and misses
// travel over a hop-priced interconnect to the address's home
// controller. Dirty L3 victims issue fire-and-forget DRAM writebacks
// that occupy banks but do not delay the requester.
//
// Not safe for concurrent use: the discrete-event engine serializes
// accesses in virtual-time order.
package mem

import (
	"fmt"

	"github.com/tintmalloc/tintmalloc/internal/cache"
	"github.com/tintmalloc/tintmalloc/internal/clock"
	"github.com/tintmalloc/tintmalloc/internal/dram"
	"github.com/tintmalloc/tintmalloc/internal/phys"
	"github.com/tintmalloc/tintmalloc/internal/topology"
)

// Config parameterizes a memory system.
type Config struct {
	L1, L2, L3 cache.Config
	// L3PerSocket splits the last-level cache into one instance
	// per socket (the physical Opteron 6128 layout: 6 MB per die)
	// instead of the paper's single machine-wide L3. Each socket's
	// L3 uses the L3 config as given; pass a halved SizeBytes for
	// a capacity-neutral comparison. Cross-socket requests miss
	// straight to DRAM (no L3-to-L3 transfers are modeled).
	L3PerSocket bool
	DRAM        dram.Timing
	// HopCycles is the one-way propagation cost per interconnect
	// hop; a DRAM access pays 2*HopCycles*hops (request + reply).
	HopCycles clock.Dur
	// LinkBurst is the occupancy a cross-node transfer places on
	// the (source node -> home node) link; concurrent remote
	// traffic between the same node pair serializes on it.
	LinkBurst clock.Dur
}

// DefaultConfig mirrors the paper's Opteron 6128 platform.
func DefaultConfig() Config {
	return Config{
		L1:        cache.DefaultL1(),
		L2:        cache.DefaultL2(),
		L3:        cache.DefaultL3(),
		DRAM:      dram.DefaultTiming(),
		HopCycles: 25,
		LinkBurst: 4,
	}
}

// Level identifies where an access was served.
type Level uint8

// Service levels, fastest first.
const (
	LevelL1 Level = iota
	LevelL2
	LevelL3
	LevelDRAMLocal
	LevelDRAMRemote
)

// String names the level.
func (l Level) String() string {
	switch l {
	case LevelL1:
		return "L1"
	case LevelL2:
		return "L2"
	case LevelL3:
		return "L3"
	case LevelDRAMLocal:
		return "DRAM-local"
	case LevelDRAMRemote:
		return "DRAM-remote"
	default:
		return "level?"
	}
}

// CoreStats counts per-core access outcomes.
type CoreStats struct {
	Accesses    uint64
	L1Hits      uint64
	L2Hits      uint64
	L3Hits      uint64
	DRAMReads   uint64
	RemoteDRAM  uint64 // DRAM accesses served by a non-local controller
	TotalCycles clock.Dur
}

// System is the machine's memory hierarchy.
type System struct {
	topo    *topology.Topology
	mapping *phys.Mapping
	cfg     Config
	l1      []*cache.Cache
	l2      []*cache.Cache
	l3      []*cache.Cache // one entry (shared) or one per socket
	dram    *dram.System
	// linkBusy[src*nodes+dst] is the busy-until instant of the
	// src->dst interconnect path (cross-node transfers only).
	linkBusy []clock.Time
	stats    []CoreStats
}

// New builds a memory system for the given topology and mapping.
func New(topo *topology.Topology, mapping *phys.Mapping, cfg Config) (*System, error) {
	if topo.Nodes() != mapping.Nodes() {
		return nil, fmt.Errorf("mem: topology has %d nodes but mapping has %d",
			topo.Nodes(), mapping.Nodes())
	}
	s := &System{
		topo:     topo,
		mapping:  mapping,
		cfg:      cfg,
		l1:       make([]*cache.Cache, topo.Cores()),
		l2:       make([]*cache.Cache, topo.Cores()),
		linkBusy: make([]clock.Time, topo.Nodes()*topo.Nodes()),
		stats:    make([]CoreStats, topo.Cores()),
	}
	// Per-core L1/L2 pairs are built lazily at a core's first access:
	// a sweep that engages 16 of 32 cores (or a fresh System per cell,
	// as the bench harness does) never pays for the idle cores'
	// caches. Validate the configs here so coreCaches cannot fail.
	if _, err := cache.New(cfg.L1); err != nil {
		return nil, err
	}
	if _, err := cache.New(cfg.L2); err != nil {
		return nil, err
	}
	nL3 := 1
	if cfg.L3PerSocket {
		nL3 = topo.Sockets()
	}
	for i := 0; i < nL3; i++ {
		l3, err := cache.New(cfg.L3)
		if err != nil {
			return nil, err
		}
		s.l3 = append(s.l3, l3)
	}
	ds, err := dram.NewSystem(mapping, cfg.DRAM)
	if err != nil {
		return nil, err
	}
	s.dram = ds
	return s, nil
}

// Mapping returns the system's address mapping.
func (s *System) Mapping() *phys.Mapping { return s.mapping }

// Topology returns the machine topology.
func (s *System) Topology() *topology.Topology { return s.topo }

// coreCaches returns core's private L1/L2 pair, building it on first
// use. The configs were validated in New, so construction cannot
// fail; a lazily-built cache is indistinguishable from an eager one
// (both start empty with zeroed stats).
func (s *System) coreCaches(core topology.CoreID) (*cache.Cache, *cache.Cache) {
	if s.l1[core] == nil {
		l1, _ := cache.New(s.cfg.L1)
		l2, _ := cache.New(s.cfg.L2)
		s.l1[core], s.l2[core] = l1, l2
	}
	return s.l1[core], s.l2[core]
}

// l3For returns the last-level cache serving the given core.
func (s *System) l3For(core topology.CoreID) *cache.Cache {
	if len(s.l3) == 1 {
		return s.l3[0]
	}
	return s.l3[s.topo.SocketOfCore(core)]
}

// L3 exposes the shared last-level cache (the first instance under
// L3PerSocket; use L3Stats for machine-wide counters).
func (s *System) L3() *cache.Cache { return s.l3[0] }

// L3Stats aggregates the counters of every last-level cache.
func (s *System) L3Stats() cache.Stats {
	var out cache.Stats
	for _, c := range s.l3 {
		st := c.Stats()
		out.Accesses += st.Accesses
		out.Hits += st.Hits
		out.Misses += st.Misses
		out.Evictions += st.Evictions
	}
	return out
}

// DRAM exposes the DRAM subsystem (for stats inspection).
func (s *System) DRAM() *dram.System { return s.dram }

// Access resolves one memory reference issued by core at instant t to
// physical address a, returning the completion time.
func (s *System) Access(core topology.CoreID, a phys.Addr, write bool, t clock.Time) clock.Time {
	done, _ := s.AccessLevel(core, a, write, t)
	return done
}

// AccessLevel is Access plus the level that served the request.
func (s *System) AccessLevel(core topology.CoreID, a phys.Addr, write bool, t clock.Time) (clock.Time, Level) {
	if !s.mapping.Valid(a) {
		panic(fmt.Sprintf("mem: access to invalid physical address %#x", a))
	}
	st := &s.stats[core]
	st.Accesses++
	ln := uint64(a) >> phys.LineShift

	l1, l2 := s.coreCaches(core)
	done := t + l1.Latency()
	if l1.Access(ln, write).Hit {
		st.L1Hits++
		st.TotalCycles += done - t
		return done, LevelL1
	}
	done += l2.Latency()
	if l2.Access(ln, write).Hit {
		st.L2Hits++
		st.TotalCycles += done - t
		return done, LevelL2
	}
	l3 := s.l3For(core)
	done += l3.Latency()
	l3res := l3.Access(ln, write)
	if l3res.Hit {
		st.L3Hits++
		st.TotalCycles += done - t
		return done, LevelL3
	}

	// L3 miss: travel to the home controller.
	st.DRAMReads++
	node, ch, rank, bk, row := s.mapping.DecodeRow(a)
	srcNode := s.topo.NodeOfCore(core)
	homeNode := topology.NodeID(node)
	hops := s.topo.Hops(core, homeNode)
	prop := s.cfg.HopCycles * clock.Dur(hops)

	level := LevelDRAMLocal
	depart := done
	if srcNode != homeNode {
		st.RemoteDRAM++
		level = LevelDRAMRemote
		li := int(srcNode)*s.topo.Nodes() + int(homeNode)
		start := clock.Max(depart, s.linkBusy[li])
		s.linkBusy[li] = start + s.cfg.LinkBurst
		depart = start
	}
	arrive := depart + prop
	done = s.dram.Controller(node).Access(ch, rank, bk, row, arrive, write) + prop // reply propagation

	// Dirty L3 victim: fire-and-forget writeback occupying its
	// home bank (does not delay this requester). Victim lines can
	// only enter the L3 through the validity check at the top of
	// AccessLevel, so the victim address needs no re-validation.
	if l3res.EvictedValid && l3res.EvictedDirty {
		victim := phys.Addr(l3res.EvictedLine << phys.LineShift)
		s.dram.Access(victim, done, true)
	}
	st.TotalCycles += done - t
	return done, level
}

// CoreStats returns a copy of core c's counters.
func (s *System) CoreStats(c topology.CoreID) CoreStats { return s.stats[c] }

// TotalStats sums the per-core counters.
func (s *System) TotalStats() CoreStats {
	var out CoreStats
	for _, st := range s.stats {
		out.Accesses += st.Accesses
		out.L1Hits += st.L1Hits
		out.L2Hits += st.L2Hits
		out.L3Hits += st.L3Hits
		out.DRAMReads += st.DRAMReads
		out.RemoteDRAM += st.RemoteDRAM
		out.TotalCycles += st.TotalCycles
	}
	return out
}

// ResetStats zeroes all per-core counters (cache/DRAM contents are
// preserved).
func (s *System) ResetStats() {
	for i := range s.stats {
		s.stats[i] = CoreStats{}
	}
	for i := range s.l1 {
		if s.l1[i] != nil {
			s.l1[i].ResetStats()
			s.l2[i].ResetStats()
		}
	}
	for _, c := range s.l3 {
		c.ResetStats()
	}
	for n := 0; n < s.dram.Nodes(); n++ {
		s.dram.Controller(n).ResetStats()
	}
}

// FlushCaches invalidates every cache in the hierarchy.
func (s *System) FlushCaches() {
	for i := range s.l1 {
		if s.l1[i] != nil {
			s.l1[i].Flush()
			s.l2[i].Flush()
		}
	}
	for _, c := range s.l3 {
		c.Flush()
	}
}
