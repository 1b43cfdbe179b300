// Package invariant is the runtime half of the repository's
// correctness gate (the static half is cmd/tintvet): it audits the
// structural invariants TintMalloc's results depend on and that no
// single layer can check alone.
//
// The paper's claims are only meaningful if the simulator's
// bookkeeping never drifts between layers: every frame on
// color_list[bc][lc] must actually hash to (bc, lc) under the
// machine's address mapping (paper Eq. 1), a frame must have exactly
// one owner (a buddy free list, a color list, a page table, or a pcp
// cache), and policies that promise per-thread private color sets
// must actually hand out disjoint sets. A silent violation — e.g. a
// double-freed colored frame parked twice and then handed to two
// threads — would corrupt cycle counts without failing anything,
// which is exactly the failure mode cross-layer partitioners like BPM
// and vertical memory management are known for.
//
// Audit is wired into kernel, buddy, engine and bench tests (no build
// tags; it runs under plain `go test ./...`). It is O(frames) and not
// meant for simulation hot paths.
package invariant

import (
	"fmt"
	"strings"

	"github.com/tintmalloc/tintmalloc/internal/buddy"
	"github.com/tintmalloc/tintmalloc/internal/kernel"
	"github.com/tintmalloc/tintmalloc/internal/phys"
	"github.com/tintmalloc/tintmalloc/internal/policy"
)

// maxViolations bounds how many violations one audit records; a
// corrupt kernel would otherwise produce one per frame.
const maxViolations = 20

// Report is the outcome of one Audit walk.
type Report struct {
	Frames    uint64 // total frames in the machine
	BuddyFree uint64 // frames on buddy free lists
	Parked    uint64 // frames parked on color lists
	Mapped    uint64 // frames resident in page tables
	PCPCached uint64 // frames in per-task pcp caches
	// Unaccounted frames have no owner. Zero on an un-churned
	// kernel; a churned kernel pins HoldoutFrac of its frames as
	// permanently-resident "other process" memory, which shows up
	// here by design.
	Unaccounted uint64
	// Loans counts outstanding degradation-ladder loans (frames
	// handed out below preferred placement; DESIGN.md Sec. 10).
	Loans      uint64
	Violations []string
}

// Err returns nil for a clean report and an error summarizing the
// violations otherwise.
func (r *Report) Err() error {
	if len(r.Violations) == 0 {
		return nil
	}
	return fmt.Errorf("invariant: %d violation(s):\n  %s",
		len(r.Violations), strings.Join(r.Violations, "\n  "))
}

func (r *Report) addf(format string, args ...any) {
	if len(r.Violations) < maxViolations {
		r.Violations = append(r.Violations, fmt.Sprintf(format, args...))
	}
}

// frame owners for the exclusivity check.
const (
	ownerNone = iota
	ownerBuddy
	ownerColorList
	ownerPageTable
	ownerPCP
)

var ownerName = [...]string{"none", "buddy free list", "color list", "page table", "pcp cache"}

// Audit cross-checks the kernel's frame bookkeeping across layers:
//
//  1. Every frame on color_list[bc][lc] hashes to bank color bc and
//     LLC color lc under the machine mapping, independently recomputed
//     from phys (not the kernel's cached tables).
//  2. Every frame has at most one owner among {buddy free list, color
//     list, page table, pcp cache}; duplicates on the same color list
//     (a silent colored double-free) count as two owners.
//  3. Frames marked colored never sit on a buddy free list, and frames
//     parked on a color list always carry the colored mark.
//  4. Every live entry of every task's simulated TLB maps a vpage to
//     exactly the frame the process page table holds — a stale entry
//     means a missed shootdown.
//  5. Every degradation-ladder loan backs a resident page of its
//     borrower at the recorded virtual page, and a same-node color
//     borrow never holds a color inside another task's private set —
//     the plan-disjointness guarantee with loans accounted for.
//  7. The loan ledger and its hot-path mirror agree frame by frame
//     (same frames, same rungs, every rung on the ladder), and the
//     lifetime identity holds: loans registered = loans settled +
//     loans outstanding. This is the check that policy switches
//     (Task.Repolicy) and compaction (CompactStep) never leak,
//     double-settle, or silently drop a loan — the mirror is what
//     freeFrame consults, so a divergence is a future lost loan.
//
// (Check 6 is the serve layer's AuditServer, in server.go.)
//
// The caller decides what Unaccounted must be: 0 for pristine
// kernels, the churn holdout for aged ones.
func Audit(k *kernel.Kernel) *Report {
	m := k.Mapping()
	r := &Report{Frames: m.Frames()}
	owner := make([]uint8, m.Frames())

	// claim records who as f's owner. what describes the claimant; it
	// is called only to word a violation, so a clean audit formats
	// nothing.
	claim := func(f phys.Frame, who uint8, what func() string) {
		if uint64(f) >= r.Frames {
			r.addf("%s holds out-of-range frame %d", what(), f)
			return
		}
		if owner[f] != ownerNone {
			r.addf("frame %d owned by both %s and %s", f, ownerName[owner[f]], what())
			return
		}
		owner[f] = who
	}

	for n := 0; n < m.Nodes(); n++ {
		k.VisitZoneFree(n, func(head phys.Frame, order int) {
			for f := head; f < head+phys.Frame(uint64(1)<<order); f++ {
				claim(f, ownerBuddy, func() string { return "buddy free list" })
				r.BuddyFree++
				if k.FrameColored(f) {
					r.addf("colored frame %d returned to the buddy allocator; colored frames must rejoin their color list", f)
				}
			}
		})
	}

	k.VisitColorLists(func(bc, lc int, f phys.Frame) {
		claim(f, ownerColorList, func() string { return fmt.Sprintf("color list [%d][%d]", bc, lc) })
		r.Parked++
		if !m.ValidFrame(f) {
			return
		}
		// Recompute from the bit-gather reference, not the memoized
		// frame tables the kernel itself reads — a corrupt table must
		// not vouch for itself.
		if wantBC, wantLC := m.GatherBankColor(f.Base()), m.GatherLLCColor(f.Base()); wantBC != bc || wantLC != lc {
			r.addf("frame %d parked on color list [%d][%d] but hashes to (%d,%d) under the mapping",
				f, bc, lc, wantBC, wantLC)
		}
		if !k.FrameColored(f) {
			r.addf("frame %d parked on color list [%d][%d] without the colored ownership mark", f, bc, lc)
		}
	})

	for _, p := range k.Processes() {
		p.VisitPages(func(vp uint64, f phys.Frame) {
			claim(f, ownerPageTable, func() string { return fmt.Sprintf("process %d page table (vpage %#x)", p.ID(), vp) })
			r.Mapped++
		})
		for _, t := range p.Tasks() {
			for _, f := range t.PCPFrames() {
				claim(f, ownerPCP, func() string { return fmt.Sprintf("task %d pcp cache", t.ID()) })
				r.PCPCached++
			}
			// TLB coherence: every cached translation must agree with
			// the process page table — a stale entry means a missed
			// shootdown on munmap, migrate or recolor.
			t.VisitTLB(func(vp uint64, f phys.Frame) {
				got, ok := t.FrameOfVA(vp << phys.PageShift)
				switch {
				case !ok:
					r.addf("task %d TLB caches vpage %#x -> frame %d but the page is not resident (missed shootdown)",
						t.ID(), vp, f)
				case got != f:
					r.addf("task %d TLB caches vpage %#x -> frame %d but the page table maps it to frame %d",
						t.ID(), vp, f, got)
				}
			})
		}
	}

	r.Loans = uint64(k.Loans())
	onLedger := make(map[phys.Frame]bool, k.Loans())
	k.VisitLoans(func(f phys.Frame, bt *kernel.Task, vp uint64, rung kernel.Rung) {
		onLedger[f] = true
		// Check 7: ledger/mirror coherence per loan. The rung must be a
		// real ladder rung and the flat mirror must record exactly it.
		if rung < 0 || rung >= kernel.NumRungs {
			r.addf("loan of frame %d to task %d records rung %d, outside the ladder", f, bt.ID(), int(rung))
		}
		if mr := k.LoanRungMirror(f); mr != rung {
			r.addf("loan of frame %d to task %d: ledger says rung %s but the hot-path mirror says %s",
				f, bt.ID(), rung, mr)
		}
		got, ok := bt.FrameOfVA(vp << phys.PageShift)
		switch {
		case !ok:
			r.addf("loan of frame %d to task %d (vpage %#x, rung %s) is dangling: page not resident",
				f, bt.ID(), vp, rung)
			return
		case got != f:
			r.addf("loan of frame %d to task %d (vpage %#x) disagrees with the page table, which maps it to frame %d",
				f, bt.ID(), vp, got)
			return
		}
		if rung != kernel.RungBorrowColor {
			return
		}
		// A borrow promises a color no other task owns; an overlap
		// means the ladder (or a later color grant) silently broke a
		// policy's exclusivity guarantee. Uncolored borrowers make no
		// color claim and are skipped.
		bc, lc := k.FrameColors(f)
		for _, p := range k.Processes() {
			for _, o := range p.Tasks() {
				if o.ID() == bt.ID() {
					continue
				}
				if bt.UsingBank() && o.OwnsBankColor(bc) {
					r.addf("frame %d borrowed by task %d carries bank color %d, which is assigned to task %d",
						f, bt.ID(), bc, o.ID())
				}
				if !bt.UsingBank() && bt.UsingLLC() && o.OwnsLLCColor(lc) {
					r.addf("frame %d borrowed by task %d carries LLC color %d, which is assigned to task %d",
						f, bt.ID(), lc, o.ID())
				}
			}
		}
	})

	// Check 7, other direction: a mirror entry with no ledger record
	// would make freeFrame "settle" a loan that does not exist.
	for f := phys.Frame(0); uint64(f) < r.Frames; f++ {
		if mr := k.LoanRungMirror(f); mr != kernel.RungNone && !onLedger[f] {
			r.addf("frame %d: hot-path mirror records rung %s but the loan ledger has no entry", f, mr)
		}
	}
	// Check 7, lifetime identity: every loan ever opened was either
	// settled or is still on the ledger. Repolicy's in-place settles,
	// CompactStep's migrations and freeFrame all feed the same
	// counters, so drift here means a path dropped a loan silently.
	if st := k.Stats(); st.LoansRegistered != st.LoansSettled+r.Loans {
		r.addf("loan ledger identity broken: %d registered != %d settled + %d outstanding",
			st.LoansRegistered, st.LoansSettled, r.Loans)
	}

	for _, o := range owner {
		if o == ownerNone {
			r.Unaccounted++
		}
	}
	return r
}

// CheckBuddy verifies one buddy allocator's free-list structure in
// isolation: block alignment, range, non-overlap, and agreement
// between FreeFrames and the sum over free blocks.
func CheckBuddy(a *buddy.Allocator) error {
	seen := make([]bool, a.Frames())
	var total uint64
	var errs []string
	addf := func(format string, args ...any) {
		if len(errs) < maxViolations {
			errs = append(errs, fmt.Sprintf(format, args...))
		}
	}
	a.VisitFreeBlocks(func(head phys.Frame, order int) {
		n := uint64(1) << order
		if uint64(head)&(n-1) != 0 {
			addf("free block head %d misaligned for order %d", head, order)
		}
		if uint64(head)+n > a.Frames() {
			addf("free block [%d,%d) exceeds range %d", head, uint64(head)+n, a.Frames())
			return
		}
		for f := head; f < head+phys.Frame(n); f++ {
			if seen[f] {
				addf("frame %d appears in two free blocks", f)
			}
			seen[f] = true
		}
		total += n
	})
	if total != a.FreeFrames() {
		addf("free blocks sum to %d frames but FreeFrames() = %d", total, a.FreeFrames())
	}
	if len(errs) > 0 {
		return fmt.Errorf("invariant: buddy: %s", strings.Join(errs, "; "))
	}
	return nil
}

// CheckPlan verifies the color-set disjointness a policy promises
// (paper Sec. V-B: "private" always means disjoint from every other
// thread). Bank disjointness is only a guarantee under a separable
// mapping — with overlapped bank/LLC bits the bank sets are derived
// from LLC compatibility and may legitimately intersect.
func CheckPlan(m *phys.Mapping, p policy.Policy, asn []policy.Assignment) error {
	var errs []string
	if p.PrivateBanks() && m.SeparableColors() {
		if err := disjoint("bank", func(i int) []int { return asn[i].BankColors }, len(asn)); err != nil {
			errs = append(errs, err.Error())
		}
	}
	if p.PrivateLLC() {
		if err := disjoint("LLC", func(i int) []int { return asn[i].LLCColors }, len(asn)); err != nil {
			errs = append(errs, err.Error())
		}
	}
	if len(errs) > 0 {
		return fmt.Errorf("invariant: plan for %s: %s", p, strings.Join(errs, "; "))
	}
	return nil
}

func disjoint(kind string, colorsOf func(i int) []int, n int) error {
	ownerOf := map[int]int{}
	for i := 0; i < n; i++ {
		for _, c := range colorsOf(i) {
			if prev, ok := ownerOf[c]; ok {
				return fmt.Errorf("%s color %d granted to both thread %d and thread %d", kind, c, prev, i)
			}
			ownerOf[c] = i
		}
	}
	return nil
}
