package phys

import "testing"

// comboCompatibleModel is the analytic map-based ComboCompatible the
// precomputed table replaced: decompose bc per Eq. 1, record the value
// each channel/rank/bank field demands of its address bits, and accept
// lc iff it agrees on every demanded LLC bit. It stays here as the
// reference the table is checked against.
func comboCompatibleModel(m *Mapping, bc, lc int) bool {
	bank := bc % m.Banks()
	rest := bc / m.Banks()
	rank := rest % m.Ranks()
	rest /= m.Ranks()
	channel := rest % m.Channels()

	required := map[uint]int{}
	conflict := false
	demand := func(bits []uint, val int) {
		for i, b := range bits {
			want := (val >> i) & 1
			if have, ok := required[b]; ok && have != want {
				conflict = true
			}
			required[b] = want
		}
	}
	demand(m.channelBits, channel)
	demand(m.rankBits, rank)
	demand(m.bankBits, bank)
	if conflict {
		return false
	}
	for i, b := range m.llcBits {
		want := (lc >> i) & 1
		if have, ok := required[b]; ok && have != want {
			return false
		}
	}
	return true
}

// compatMappings covers every shape the compatibility table must
// handle: fully populated, Opteron-sparse, LLC rows wider than one
// word (7 LLC bits = 128 colors), a channel bit shared with a bank bit
// (half the bank colors unconstructible), a duplicated LLC bit, and a
// select bit below the page shift.
func compatMappings(t testing.TB) map[string]*Mapping {
	t.Helper()
	const mem = 64 << 20
	out := map[string]*Mapping{}
	add := func(name string, m *Mapping, err error) {
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		out[name] = m
	}
	m, err := DefaultSeparable(mem, 4)
	add("separable", m, err)
	m, err = OpteronOverlapped(mem, 4)
	add("overlapped", m, err)
	m, err = NewMapping(MappingConfig{
		MemBytes: mem, Nodes: 4,
		ChannelBits: []uint{23}, RankBits: []uint{22}, BankBits: []uint{16, 19, 20},
		LLCBits:  []uint{12, 13, 14, 15, 16, 17, 18},
		RowShift: 14,
	})
	add("llc7-overlapped", m, err)
	m, err = NewMapping(MappingConfig{
		MemBytes: mem, Nodes: 2,
		ChannelBits: []uint{17}, RankBits: []uint{20}, BankBits: []uint{17, 18, 19},
		LLCBits:  []uint{12, 13, 14, 15, 17},
		RowShift: 14,
	})
	add("field-conflict", m, err)
	m, err = NewMapping(MappingConfig{
		MemBytes: mem, Nodes: 2,
		ChannelBits: []uint{11}, RankBits: []uint{20}, BankBits: []uint{13, 18, 19},
		LLCBits:  []uint{12, 13, 13, 14},
		RowShift: 14,
	})
	add("dup-llc-subpage", m, err)
	return out
}

// TestCompatTableMatchesModel checks the table against the map-based
// model on every (bank color, LLC color) pair.
func TestCompatTableMatchesModel(t *testing.T) {
	for name, m := range compatMappings(t) {
		t.Run(name, func(t *testing.T) {
			populated := false
			for bc := 0; bc < m.NumBankColors(); bc++ {
				for lc := 0; lc < m.NumLLCColors(); lc++ {
					got, want := m.ComboCompatible(bc, lc), comboCompatibleModel(m, bc, lc)
					if got != want {
						t.Fatalf("ComboCompatible(%d,%d) = %v, model says %v", bc, lc, got, want)
					}
					populated = populated || got
				}
			}
			if !populated {
				t.Fatal("no compatible combination at all")
			}
		})
	}
}
