// Package phys models the physical address space of a simulated NUMA
// machine and the bit-level translation the memory controller applies
// to a physical address: node (controller), channel, rank, bank, row
// and column, plus the LLC set-index color bits.
//
// TintMalloc's frame selection is driven entirely by this mapping
// (paper Sec. III-A): the bank color of a page is
//
//	bc = ((node*NC + channel)*NR + rank)*NB + bank     (Eq. 1)
//
// and the LLC color is given by the physical-address bits that index
// the shared L3 above the page offset (bits 12-16 on the Opteron
// 6128, yielding 32 colors).
package phys

import "fmt"

// Addr is a physical byte address.
type Addr uint64

// Frame is a physical page-frame number (Addr >> PageShift).
type Frame uint64

const (
	// PageShift is log2 of the page size. TintMalloc colors
	// order-0 (4 KB) frames only.
	PageShift = 12
	// PageSize is the size of a page frame in bytes.
	PageSize = 1 << PageShift
	// LineShift is log2 of the cache line size (128 B on the
	// Opteron 6128).
	LineShift = 7
	// LineSize is the cache line size in bytes.
	LineSize = 1 << LineShift
)

// FrameOf returns the frame containing a.
func FrameOf(a Addr) Frame { return Frame(a >> PageShift) }

// Base returns the first byte address of frame f.
func (f Frame) Base() Addr { return Addr(f) << PageShift }

// Offset returns the in-page offset of a.
func Offset(a Addr) uint64 { return uint64(a) & (PageSize - 1) }

// Location is the DRAM decomposition of a physical address.
type Location struct {
	Node    int    // memory node / controller
	Channel int    // channel within the controller
	Rank    int    // rank within the channel
	Bank    int    // bank within the rank
	Row     uint64 // DRAM row within the bank
	Col     uint64 // column within the row
}

// Mapping is a bit-level physical address translation. It is the
// simulated analogue of the PCI-derived address decode of an AMD
// memory controller. A Mapping is immutable after construction.
type Mapping struct {
	memBytes    uint64
	nodes       int
	nodeSize    uint64 // bytes per node; nodes are contiguous ranges
	channelBits []uint
	rankBits    []uint
	bankBits    []uint
	llcBits     []uint // LLC color bits (must be >= PageShift)
	rowShift    uint   // node-relative row number = offset >> rowShift

	// Precomputed per-frame decode tables (see buildTables). All
	// color/select bits of the default and Opteron mappings sit at or
	// above PageShift, so the hot-path Decode/BankColor/LLCColor
	// collapse to one table load plus row/col arithmetic. subPageBits
	// marks the exotic case of channel/rank/bank bits below the page
	// shift, where decode genuinely varies within a frame and the
	// bit-gather path remains authoritative.
	subPageBits bool
	// locTable packs each frame's DRAM decomposition — everything
	// Decode needs except the row/column, which depend on sub-page
	// offset bits and stay arithmetic — into one uint32 (see the loc*
	// shifts). One word per frame instead of the padded 8-byte struct
	// this replaces: half the footprint, one load on the hot path. Nil
	// when some field exceeds its 8-bit lane (locPackable false), in
	// which case Decode keeps the bit-gather route.
	locTable  []uint32
	bankTable []int32  // frame -> bank color
	llcTable  []int16  // frame -> LLC color
	nodeBase  []uint64 // node -> first byte address
	rowMask   uint64   // (1<<rowShift)-1

	// compat holds one LLC-color bitmask per bank color, compatWords
	// words each: bit lc of row bc is set iff some frame can carry
	// both colors (see ComboCompatible and buildCompat).
	compat      []uint64
	compatWords int
}

// locTable lane layout: four 8-bit fields in one uint32.
const (
	locBankShift    = 0
	locRankShift    = 8
	locChannelShift = 16
	locNodeShift    = 24
	locFieldMask    = 0xff
)

// locPackable reports whether every Decode field fits its 8-bit
// locTable lane. True for any realistic platform (the paper's machine
// has 4 nodes, 2 channels, 2 ranks, 8 banks); a mapping configured
// past 256 in any dimension simply keeps the gather path.
func (m *Mapping) locPackable() bool {
	return m.nodes <= 256 && m.Channels() <= 256 && m.Ranks() <= 256 && m.Banks() <= 256
}

// MappingConfig parameterizes NewMapping. Bit positions are absolute
// bit indices within the physical address.
type MappingConfig struct {
	MemBytes    uint64 // total physical memory, split evenly across nodes
	Nodes       int    // number of memory nodes (controllers)
	ChannelBits []uint // channel-select bits
	RankBits    []uint // rank-select bits
	BankBits    []uint // bank-select bits
	LLCBits     []uint // LLC color bits (each must be >= PageShift)
	RowShift    uint   // log2 of the address span covered by one row buffer
}

// NewMapping validates and constructs a Mapping.
func NewMapping(c MappingConfig) (*Mapping, error) {
	if c.Nodes < 1 {
		return nil, fmt.Errorf("phys: Nodes must be >= 1, got %d", c.Nodes)
	}
	if c.MemBytes == 0 || c.MemBytes%uint64(c.Nodes) != 0 {
		return nil, fmt.Errorf("phys: MemBytes (%d) must be a positive multiple of Nodes (%d)",
			c.MemBytes, c.Nodes)
	}
	nodeSize := c.MemBytes / uint64(c.Nodes)
	if nodeSize%PageSize != 0 {
		return nil, fmt.Errorf("phys: per-node size %d not page aligned", nodeSize)
	}
	if len(c.LLCBits) == 0 {
		return nil, fmt.Errorf("phys: at least one LLC color bit required")
	}
	for _, b := range c.LLCBits {
		if b < PageShift {
			return nil, fmt.Errorf("phys: LLC color bit %d below page shift %d; frame coloring impossible", b, PageShift)
		}
	}
	for _, group := range [][]uint{c.ChannelBits, c.RankBits, c.BankBits} {
		for _, b := range group {
			if b >= 48 {
				return nil, fmt.Errorf("phys: address bit %d out of range", b)
			}
		}
	}
	if c.RowShift < LineShift {
		return nil, fmt.Errorf("phys: RowShift %d below line shift %d", c.RowShift, LineShift)
	}
	m := &Mapping{
		memBytes:    c.MemBytes,
		nodes:       c.Nodes,
		nodeSize:    nodeSize,
		channelBits: append([]uint(nil), c.ChannelBits...),
		rankBits:    append([]uint(nil), c.RankBits...),
		bankBits:    append([]uint(nil), c.BankBits...),
		llcBits:     append([]uint(nil), c.LLCBits...),
		rowShift:    c.RowShift,
	}
	m.buildTables()
	m.buildCompat()
	return m, nil
}

// buildTables memoizes the per-frame decode: node, channel, rank,
// bank, bank color and LLC color of every frame's base address. LLC
// bits are validated to sit at or above PageShift, so the LLC table is
// always exact; the location and bank-color tables are exact unless
// some channel/rank/bank bit falls below the page shift (subPageBits),
// in which case the hot-path accessors keep the bit-gather route.
func (m *Mapping) buildTables() {
	for _, group := range [][]uint{m.channelBits, m.rankBits, m.bankBits} {
		for _, b := range group {
			if b < PageShift {
				m.subPageBits = true
			}
		}
	}
	m.rowMask = (uint64(1) << m.rowShift) - 1
	m.nodeBase = make([]uint64, m.nodes)
	for n := 0; n < m.nodes; n++ {
		m.nodeBase[n] = uint64(n) * m.nodeSize
	}
	frames := m.Frames()
	if m.locPackable() {
		m.locTable = make([]uint32, frames)
	}
	m.bankTable = make([]int32, frames)
	m.llcTable = make([]int16, frames)
	for f := Frame(0); uint64(f) < frames; f++ {
		a := f.Base()
		if m.locTable != nil {
			l := m.GatherDecode(a)
			m.locTable[f] = uint32(l.Bank)<<locBankShift |
				uint32(l.Rank)<<locRankShift |
				uint32(l.Channel)<<locChannelShift |
				uint32(l.Node)<<locNodeShift
		}
		m.bankTable[f] = int32(m.GatherBankColor(a))
		m.llcTable[f] = int16(m.GatherLLCColor(a))
	}
}

// DefaultSeparable returns the repository's default mapping: every
// color axis uses distinct frame-number bits, so the full
// NumBankColors x NumLLCColors matrix is populated (see DESIGN.md for
// why this substitution for the Opteron's overlapping bits preserves
// coloring semantics). Layout per node region:
//
//	bits 12-16: LLC color (32 colors, as on the Opteron 6128)
//	bits 17-19: bank   (8 banks)
//	bit  20:    rank   (2 ranks)
//	bit  21:    channel (2 channels)
//
// With 4 nodes this yields 4*2*2*8 = 128 bank colors, matching the
// paper's platform.
func DefaultSeparable(memBytes uint64, nodes int) (*Mapping, error) {
	return NewMapping(MappingConfig{
		MemBytes:    memBytes,
		Nodes:       nodes,
		ChannelBits: []uint{21},
		RankBits:    []uint{20},
		BankBits:    []uint{17, 18, 19},
		LLCBits:     []uint{12, 13, 14, 15, 16},
		RowShift:    14, // 16 KB row-buffer span
	})
}

// OpteronOverlapped returns a paper-faithful mapping in which bank
// bits overlap the LLC color bits (the Opteron 6128 uses bits 15, 16
// and 18 for the bank while LLC colors occupy bits 12-16). Only a
// subset of (bank color, LLC color) combinations exists under this
// mapping; the kernel's colored lists are correspondingly sparse.
func OpteronOverlapped(memBytes uint64, nodes int) (*Mapping, error) {
	return NewMapping(MappingConfig{
		MemBytes:    memBytes,
		Nodes:       nodes,
		ChannelBits: []uint{13},
		RankBits:    []uint{14},
		BankBits:    []uint{15, 16, 18},
		LLCBits:     []uint{12, 13, 14, 15, 16},
		RowShift:    14,
	})
}

// MemBytes returns the total physical memory size.
func (m *Mapping) MemBytes() uint64 { return m.memBytes }

// Frames returns the total number of page frames.
func (m *Mapping) Frames() uint64 { return m.memBytes / PageSize }

// Nodes returns the number of memory nodes.
func (m *Mapping) Nodes() int { return m.nodes }

// NodeSize returns the bytes of memory behind each controller.
func (m *Mapping) NodeSize() uint64 { return m.nodeSize }

// Channels returns the number of channels per controller.
func (m *Mapping) Channels() int { return 1 << len(m.channelBits) }

// Ranks returns the number of ranks per channel.
func (m *Mapping) Ranks() int { return 1 << len(m.rankBits) }

// Banks returns the number of banks per rank.
func (m *Mapping) Banks() int { return 1 << len(m.bankBits) }

// NumBankColors returns the machine-wide bank color count of Eq. 1:
// nodes * channels * ranks * banks.
func (m *Mapping) NumBankColors() int {
	return m.nodes * m.Channels() * m.Ranks() * m.Banks()
}

// NumLLCColors returns the LLC color count (2^|LLCBits|).
func (m *Mapping) NumLLCColors() int { return 1 << len(m.llcBits) }

// BanksPerNode returns channels*ranks*banks: the number of bank
// colors that belong to a single controller.
func (m *Mapping) BanksPerNode() int {
	return m.Channels() * m.Ranks() * m.Banks()
}

// Valid reports whether a lies within the installed physical memory.
func (m *Mapping) Valid(a Addr) bool { return uint64(a) < m.memBytes }

// ValidFrame reports whether f is an installed frame.
func (m *Mapping) ValidFrame(f Frame) bool { return uint64(f) < m.Frames() }

// NodeOf returns the memory node owning address a. Nodes own
// contiguous, equally sized address ranges (the simulated analogue of
// the DRAM base/limit registers).
func (m *Mapping) NodeOf(a Addr) int {
	return int(uint64(a) / m.nodeSize)
}

// NodeRange returns the [base, limit) address range of node n.
func (m *Mapping) NodeRange(n int) (base, limit Addr) {
	return Addr(uint64(n) * m.nodeSize), Addr(uint64(n+1) * m.nodeSize)
}

func gather(a uint64, bits []uint) int {
	v := 0
	for i, b := range bits {
		v |= int((a>>b)&1) << i
	}
	return v
}

// Decode translates a physical address into its DRAM location:
// DecodeRow plus the column.
func (m *Mapping) Decode(a Addr) Location {
	n, ch, rk, bk, row := m.DecodeRow(a)
	return Location{
		Node:    n,
		Channel: ch,
		Rank:    rk,
		Bank:    bk,
		Row:     row,
		Col:     (uint64(a) % m.nodeSize & m.rowMask) >> LineShift,
	}
}

// DecodeRow is Decode without the column: the node, channel, rank,
// bank and row a DRAM access needs. The hot path is one packed
// locTable load plus row arithmetic; out-of-range addresses,
// unpackable mappings, and mappings with sub-page select bits take the
// reference bit-gather route (identical results where both apply).
func (m *Mapping) DecodeRow(a Addr) (node, channel, rank, bank int, row uint64) {
	f := uint64(a) >> PageShift
	if m.subPageBits || f >= uint64(len(m.locTable)) {
		l := m.GatherDecode(a)
		return l.Node, l.Channel, l.Rank, l.Bank, l.Row
	}
	packed := m.locTable[f]
	n := packed >> locNodeShift & locFieldMask
	return int(n),
		int(packed >> locChannelShift & locFieldMask),
		int(packed >> locRankShift & locFieldMask),
		int(packed >> locBankShift & locFieldMask),
		(uint64(a) - m.nodeBase[n]) >> m.rowShift
}

// GatherDecode is the reference bit-gather implementation of Decode.
// It is what buildTables memoizes; tests and the invariant auditor use
// it to cross-check the tables independently.
func (m *Mapping) GatherDecode(a Addr) Location {
	u := uint64(a)
	loc := Location{
		Node:    m.NodeOf(a),
		Channel: gather(u, m.channelBits),
		Rank:    gather(u, m.rankBits),
		Bank:    gather(u, m.bankBits),
	}
	off := u % m.nodeSize
	loc.Row = off >> m.rowShift
	loc.Col = (off & ((1 << m.rowShift) - 1)) >> LineShift
	return loc
}

// BankColor composes Eq. 1 for address a:
// ((node*NC + channel)*NR + rank)*NB + bank.
func (m *Mapping) BankColor(a Addr) int {
	f := uint64(a) >> PageShift
	if m.subPageBits || f >= uint64(len(m.bankTable)) {
		return m.GatherBankColor(a)
	}
	return int(m.bankTable[f])
}

// GatherBankColor is the reference bit-gather implementation of
// BankColor (see GatherDecode).
func (m *Mapping) GatherBankColor(a Addr) int {
	l := m.GatherDecode(a)
	return ((l.Node*m.Channels()+l.Channel)*m.Ranks()+l.Rank)*m.Banks() + l.Bank
}

// LLCColor returns the LLC color of address a. LLC color bits always
// sit at or above the page shift (enforced by NewMapping), so the
// per-frame table is exact for every installed address.
func (m *Mapping) LLCColor(a Addr) int {
	f := uint64(a) >> PageShift
	if f >= uint64(len(m.llcTable)) {
		return m.GatherLLCColor(a)
	}
	return int(m.llcTable[f])
}

// GatherLLCColor is the reference bit-gather implementation of
// LLCColor (see GatherDecode).
func (m *Mapping) GatherLLCColor(a Addr) int {
	return gather(uint64(a), m.llcBits)
}

// FrameBankColor returns the bank color of frame f. All color bits
// sit at or above PageShift, so the color is uniform across the frame
// under a separable mapping; under an overlapped mapping any
// sub-page channel/rank bits are taken as zero.
func (m *Mapping) FrameBankColor(f Frame) int {
	if uint64(f) < uint64(len(m.bankTable)) {
		return int(m.bankTable[f])
	}
	return m.GatherBankColor(f.Base())
}

// FrameLLCColor returns the LLC color of frame f.
func (m *Mapping) FrameLLCColor(f Frame) int {
	if uint64(f) < uint64(len(m.llcTable)) {
		return int(m.llcTable[f])
	}
	return m.GatherLLCColor(f.Base())
}

// NodeOfFrame returns the memory node owning frame f.
func (m *Mapping) NodeOfFrame(f Frame) int { return m.NodeOf(f.Base()) }

// FrameColorTables returns the dense per-frame color lookup tables
// (frame -> bank color, frame -> LLC color) built at construction.
// Hot paths (the kernel's colored refill) use these instead of
// re-decoding addresses. Callers must not mutate the slices.
func (m *Mapping) FrameColorTables() (bank []int32, llc []int16) {
	return m.bankTable, m.llcTable
}

// SeparableColors reports whether the bank-color fields (channel,
// rank, bank) use address bits disjoint from the LLC color bits, so
// that every (bank color, LLC color) combination is populated.
func (m *Mapping) SeparableColors() bool {
	llc := map[uint]bool{}
	for _, b := range m.llcBits {
		llc[b] = true
	}
	for _, group := range [][]uint{m.channelBits, m.rankBits, m.bankBits} {
		for _, b := range group {
			if llc[b] {
				return false
			}
		}
	}
	return true
}

// ComboCompatible reports whether any physical frame carries both
// bank color bc and LLC color lc. Under a separable mapping every
// combination exists; under an overlapped mapping (bank bits shared
// with LLC color bits, as on the real Opteron) a bank color pins some
// LLC bits and only consistent pairs are populated. One load from the
// table buildCompat derives from the bit assignments; bc and lc must
// be in range.
func (m *Mapping) ComboCompatible(bc, lc int) bool {
	return m.compat[bc*m.compatWords+lc>>6]>>uint(lc&63)&1 != 0
}

// buildCompat fills the compatibility table. The node part of a bank
// color names a controller, not address bits, so each row depends
// only on the channel, rank and bank fields: their bits demand fixed
// values (two uint64 masks over address bits), a field pair that
// demands both values of one bit makes the bank color unconstructible
// (an all-zero row), and an LLC color is compatible iff it agrees on
// every LLC bit the bank color demands.
func (m *Mapping) buildCompat() {
	nLLC := m.NumLLCColors()
	m.compatWords = (nLLC + 63) / 64
	m.compat = make([]uint64, m.NumBankColors()*m.compatWords)
	for bc := 0; bc < m.NumBankColors(); bc++ {
		bank := bc % m.Banks()
		rest := bc / m.Banks()
		rank := rest % m.Ranks()
		channel := rest / m.Ranks() % m.Channels()

		var demand, value uint64 // address bits pinned, and their values
		conflict := false
		pin := func(bits []uint, v int) {
			for i, b := range bits {
				bit, want := uint64(1)<<b, uint64(v>>i&1)<<b
				if demand&bit != 0 && value&bit != want {
					conflict = true
				}
				demand |= bit
				value |= want
			}
		}
		pin(m.channelBits, channel)
		pin(m.rankBits, rank)
		pin(m.bankBits, bank)
		if conflict {
			continue
		}
		// Project the demand onto LLC color space: lc is compatible
		// iff lc&llcDemand == llcValue. Shifting by a bit index >= 64
		// yields 0, so LLC bits above the address width pin nothing.
		var llcDemand, llcValue int
		for i, b := range m.llcBits {
			if demand>>b&1 != 0 {
				llcDemand |= 1 << i
				llcValue |= int(value>>b&1) << i
			}
		}
		row := m.compat[bc*m.compatWords:]
		for lc := 0; lc < nLLC; lc++ {
			if lc&llcDemand == llcValue {
				row[lc>>6] |= 1 << uint(lc&63)
			}
		}
	}
}

// NodeOfBankColor inverts Eq. 1's node component: the controller that
// a machine-wide bank color belongs to.
func (m *Mapping) NodeOfBankColor(bc int) int {
	return bc / m.BanksPerNode()
}

// BankColorsOfNode lists the machine-wide bank colors local to node n.
func (m *Mapping) BankColorsOfNode(n int) []int {
	per := m.BanksPerNode()
	out := make([]int, per)
	for i := range out {
		out[i] = n*per + i
	}
	return out
}

// ChannelBits returns a copy of the channel-select bit positions.
func (m *Mapping) ChannelBits() []uint { return append([]uint(nil), m.channelBits...) }

// RankBits returns a copy of the rank-select bit positions.
func (m *Mapping) RankBits() []uint { return append([]uint(nil), m.rankBits...) }

// BankBits returns a copy of the bank-select bit positions.
func (m *Mapping) BankBits() []uint { return append([]uint(nil), m.bankBits...) }

// LLCBits returns a copy of the LLC color bit positions.
func (m *Mapping) LLCBits() []uint { return append([]uint(nil), m.llcBits...) }

// RowShift returns log2 of the per-row address span.
func (m *Mapping) RowShift() uint { return m.rowShift }

// String summarizes the mapping.
func (m *Mapping) String() string {
	return fmt.Sprintf("mapping{%d MiB, %d nodes, %d bank colors, %d llc colors}",
		m.memBytes>>20, m.nodes, m.NumBankColors(), m.NumLLCColors())
}
