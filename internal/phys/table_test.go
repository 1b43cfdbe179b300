package phys

import (
	"math/rand"
	"testing"
)

// Property test for the precomputed decode tables: the table-backed
// hot-path accessors (Decode, DecodeRow and the color lookups) must equal the bit-gather reference for random
// addresses under every mapping shape — separable, Opteron-overlapped,
// and (to exercise the fallback route) a mapping with a select bit
// below the page shift.
func TestTableAccessorsMatchGather(t *testing.T) {
	const memBytes = 256 << 20
	sep, err := DefaultSeparable(memBytes, 4)
	if err != nil {
		t.Fatal(err)
	}
	ovl, err := OpteronOverlapped(memBytes, 4)
	if err != nil {
		t.Fatal(err)
	}
	// Channel bit 11 sits inside the page offset, so decode varies
	// within a frame and the accessors must keep the gather route.
	sub, err := NewMapping(MappingConfig{
		MemBytes:    memBytes,
		Nodes:       4,
		ChannelBits: []uint{11},
		RankBits:    []uint{20},
		BankBits:    []uint{17, 18, 19},
		LLCBits:     []uint{12, 13, 14, 15, 16},
		RowShift:    14,
	})
	if err != nil {
		t.Fatal(err)
	}

	for _, tc := range []struct {
		name string
		m    *Mapping
	}{
		{"separable", sep},
		{"overlapped", ovl},
		{"sub-page-bits", sub},
	} {
		t.Run(tc.name, func(t *testing.T) {
			m := tc.m
			rng := rand.New(rand.NewSource(42))
			for i := 0; i < 20000; i++ {
				a := Addr(rng.Uint64() % m.MemBytes())
				if got, want := m.Decode(a), m.GatherDecode(a); got != want {
					t.Fatalf("Decode(%#x) = %+v, gather reference %+v", a, got, want)
				}
				want := m.GatherDecode(a)
				if n, ch, rk, bk, row := m.DecodeRow(a); n != want.Node || ch != want.Channel ||
					rk != want.Rank || bk != want.Bank || row != want.Row {
					t.Fatalf("DecodeRow(%#x) = %d/%d/%d/%d row %d, gather reference %+v", a, n, ch, rk, bk, row, want)
				}
				if got, want := m.BankColor(a), m.GatherBankColor(a); got != want {
					t.Fatalf("BankColor(%#x) = %d, gather reference %d", a, got, want)
				}
				if got, want := m.LLCColor(a), m.GatherLLCColor(a); got != want {
					t.Fatalf("LLCColor(%#x) = %d, gather reference %d", a, got, want)
				}
			}
			// Frame accessors agree with the gather reference on the
			// frame base address.
			for i := 0; i < 2000; i++ {
				f := Frame(rng.Uint64() % m.Frames())
				if got, want := m.FrameBankColor(f), m.GatherBankColor(f.Base()); got != want {
					t.Fatalf("FrameBankColor(%d) = %d, gather reference %d", f, got, want)
				}
				if got, want := m.FrameLLCColor(f), m.GatherLLCColor(f.Base()); got != want {
					t.Fatalf("FrameLLCColor(%d) = %d, gather reference %d", f, got, want)
				}
			}
		})
	}
}
