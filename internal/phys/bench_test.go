package phys

import "testing"

// Microbenchmarks for the address-decode hot path. DecodeRow, BankColor
// and LLCColor run once per simulated DRAM access, so their cost is a
// direct component of engine ops/sec; the table-backed fast path is
// compared against the bit-gather reference it memoizes.

func benchMapping(b *testing.B, mk func(uint64, int) (*Mapping, error)) *Mapping {
	b.Helper()
	m, err := mk(256<<20, 4)
	if err != nil {
		b.Fatal(err)
	}
	return m
}

func benchAddrs(m *Mapping) []Addr {
	addrs := make([]Addr, 4096)
	// Stride by a prime number of lines so the sweep visits many
	// frames, channels and rows.
	const stride = 127 * LineSize
	for i := range addrs {
		addrs[i] = Addr(uint64(i) * stride % m.MemBytes())
	}
	return addrs
}

func BenchmarkDecodeTable(b *testing.B) {
	m := benchMapping(b, DefaultSeparable)
	addrs := benchAddrs(m)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, _, _, _, _ = m.DecodeRow(addrs[i%len(addrs)])
	}
}

func BenchmarkDecodeGather(b *testing.B) {
	m := benchMapping(b, DefaultSeparable)
	addrs := benchAddrs(m)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = m.GatherDecode(addrs[i%len(addrs)])
	}
}

func BenchmarkDecodeTableOverlapped(b *testing.B) {
	m := benchMapping(b, OpteronOverlapped)
	addrs := benchAddrs(m)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, _, _, _, _ = m.DecodeRow(addrs[i%len(addrs)])
	}
}

func BenchmarkBankColorTable(b *testing.B) {
	m := benchMapping(b, DefaultSeparable)
	addrs := benchAddrs(m)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = m.BankColor(addrs[i%len(addrs)])
	}
}

func BenchmarkBankColorGather(b *testing.B) {
	m := benchMapping(b, DefaultSeparable)
	addrs := benchAddrs(m)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = m.GatherBankColor(addrs[i%len(addrs)])
	}
}

func BenchmarkLLCColorTable(b *testing.B) {
	m := benchMapping(b, DefaultSeparable)
	addrs := benchAddrs(m)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = m.LLCColor(addrs[i%len(addrs)])
	}
}

// AoS-vs-SoA layout comparison for the per-frame location metadata.
// The live locTable packs node/channel/rank/bank into one uint32 per
// frame; locAoS reproduces the padded struct-per-frame layout it
// replaced. Both loops do the same unpack work — the delta is pure
// memory layout (4 B/frame vs 8 B/frame), so the sweep touches the
// whole frame table in scattered order, the pattern Decode sees under
// allocation churn, where table footprint vs cache size is what
// decides the miss rate.

type locAoS struct {
	node    uint32
	channel uint8
	rank    uint8
	bank    uint8
}

func benchFrames(m *Mapping) []Frame {
	n := m.Frames()
	frames := make([]Frame, n)
	for i := range frames {
		// 127 is coprime to the power-of-two frame count, so this
		// permutes [0, n) while defeating the hardware prefetcher.
		frames[i] = Frame(uint64(i) * 127 % n)
	}
	return frames
}

func BenchmarkFrameLocSoA(b *testing.B) {
	m := benchMapping(b, DefaultSeparable)
	frames := benchFrames(m)
	b.ResetTimer()
	var sink int
	for i := 0; i < b.N; i++ {
		packed := m.locTable[frames[i%len(frames)]]
		sink += int(packed>>locNodeShift&locFieldMask) +
			int(packed>>locChannelShift&locFieldMask) +
			int(packed>>locRankShift&locFieldMask) +
			int(packed>>locBankShift&locFieldMask)
	}
	_ = sink
}

func BenchmarkFrameLocAoS(b *testing.B) {
	m := benchMapping(b, DefaultSeparable)
	frames := benchFrames(m)
	aos := make([]locAoS, m.Frames())
	for f := range aos {
		l := m.GatherDecode(Frame(f).Base())
		aos[f] = locAoS{node: uint32(l.Node), channel: uint8(l.Channel), rank: uint8(l.Rank), bank: uint8(l.Bank)}
	}
	b.ResetTimer()
	var sink int
	for i := 0; i < b.N; i++ {
		fl := aos[frames[i%len(frames)]]
		sink += int(fl.node) + int(fl.channel) + int(fl.rank) + int(fl.bank)
	}
	_ = sink
}

// BenchmarkComboCompatible sweeps every (bank color, LLC color) pair
// of the Opteron-overlapped mapping, where the answer varies, through
// the precomputed table; policy.Plan and the serve color-list scans
// ask this question per cell.
func BenchmarkComboCompatible(b *testing.B) {
	m := benchMapping(b, OpteronOverlapped)
	nb, nl := m.NumBankColors(), m.NumLLCColors()
	b.ResetTimer()
	n := 0
	for i := 0; i < b.N; i++ {
		if m.ComboCompatible(i/nl%nb, i%nl) {
			n++
		}
	}
	_ = n
}
