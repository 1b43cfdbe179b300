// Package dram models the DRAM subsystem behind each memory
// controller: channels, ranks and banks with open-row (row-buffer)
// state, bank and controller-queue contention, and periodic refresh
// (paper Sec. II-B).
//
// The model is a conservative queueing approximation: every shared
// resource (controller front-end queue, channel data bus, bank) has a
// busy-until instant; a request arriving earlier waits. Latency
// asymmetry follows the classic open-row policy:
//
//	row-buffer hit      : tCAS
//	row-buffer empty    : tRCD + tCAS        (activate, then column)
//	row-buffer conflict : tRP + tRCD + tCAS  (precharge first)
//
// Two threads hammering the same bank therefore both queue on the
// bank AND turn each other's row hits into conflicts — exactly the
// interference TintMalloc's bank coloring removes.
package dram

import (
	"fmt"

	"github.com/tintmalloc/tintmalloc/internal/clock"
	"github.com/tintmalloc/tintmalloc/internal/phys"
)

// Timing holds DRAM timing parameters in core cycles.
type Timing struct {
	TCAS         clock.Dur // column access strobe
	TRCD         clock.Dur // row activate (RAS-to-CAS)
	TRP          clock.Dur // precharge
	TWR          clock.Dur // extra write-recovery charge on writes
	QueueService clock.Dur // controller front-end serialization per request
	BusBurst     clock.Dur // channel data-bus occupancy per transfer
	RefreshEvery clock.Dur // refresh interval; all rows close at each epoch
}

// DefaultTiming returns timing roughly calibrated to DDR3-1333 behind
// a 2 GHz core clock (the paper's platform): ~13.5 ns tCAS/tRCD/tRP.
func DefaultTiming() Timing {
	return Timing{
		TCAS:         27,
		TRCD:         27,
		TRP:          27,
		TWR:          10,
		QueueService: 8,
		BusBurst:     8,
		RefreshEvery: 15600, // tREFI = 7.8 us at 2 GHz
	}
}

// Validate reports whether the timing parameters are usable.
func (t Timing) Validate() error {
	if t.TCAS == 0 {
		return fmt.Errorf("dram: TCAS must be > 0")
	}
	if t.RefreshEvery == 0 {
		return fmt.Errorf("dram: RefreshEvery must be > 0")
	}
	return nil
}

const noRow = ^uint64(0)

type bank struct {
	openRow   uint64
	busyUntil clock.Time
	// [epochLo, epochHi) is the refresh epoch the bank last started an
	// access in; a start outside it closes the open row.
	epochLo, epochHi clock.Time
}

// Stats aggregates per-controller access counters.
type Stats struct {
	Accesses     uint64
	RowHits      uint64
	RowEmpty     uint64 // activations into an idle (closed) bank
	RowConflicts uint64 // precharge-first accesses
	TotalLatency clock.Dur
	QueueWait    clock.Dur // cycles spent waiting on queue/bus/bank
}

// Controller models one memory controller and its DRAM arrays.
type Controller struct {
	timing    Timing
	channels  int
	ranks     int
	banksPerR int
	banks     []bank // [channel][rank][bank] flattened
	busBusy   []clock.Time
	queueBusy clock.Time
	stats     Stats
}

// NewController builds a controller with the given geometry.
func NewController(channels, ranks, banksPerRank int, tm Timing) (*Controller, error) {
	if err := tm.Validate(); err != nil {
		return nil, err
	}
	if channels < 1 || ranks < 1 || banksPerRank < 1 {
		return nil, fmt.Errorf("dram: geometry must be positive, got %d/%d/%d",
			channels, ranks, banksPerRank)
	}
	n := channels * ranks * banksPerRank
	c := &Controller{
		timing:    tm,
		channels:  channels,
		ranks:     ranks,
		banksPerR: banksPerRank,
		banks:     make([]bank, n),
		busBusy:   make([]clock.Time, channels),
	}
	for i := range c.banks {
		c.banks[i].openRow = noRow
		c.banks[i].epochHi = tm.RefreshEvery
	}
	return c, nil
}

func (c *Controller) bankIndex(ch, rank, bk int) int {
	return (ch*c.ranks+rank)*c.banksPerR + bk
}

// Access services one cache-line request that arrives at the
// controller at time t. It returns the completion time. write adds
// write-recovery charge.
func (c *Controller) Access(ch, rank, bk int, row uint64, t clock.Time, write bool) clock.Time {
	if ch < 0 || ch >= c.channels || rank < 0 || rank >= c.ranks || bk < 0 || bk >= c.banksPerR {
		panic(fmt.Sprintf("dram: access to invalid bank (%d,%d,%d)", ch, rank, bk))
	}
	c.stats.Accesses++

	// Controller front-end: de-multiplex requests serially.
	start := clock.Max(t, c.queueBusy)
	qDone := start + c.timing.QueueService
	c.queueBusy = qDone

	// Bank availability.
	b := &c.banks[c.bankIndex(ch, rank, bk)]
	bStart := clock.Max(qDone, b.busyUntil)

	// Lazy refresh: at each refresh epoch all rows are closed. Most
	// accesses start in the bank's last epoch, so the division runs
	// only when bStart leaves it (in either direction).
	if bStart < b.epochLo || bStart >= b.epochHi {
		b.epochLo = bStart - bStart%c.timing.RefreshEvery
		b.epochHi = b.epochLo + c.timing.RefreshEvery
		b.openRow = noRow
	}

	var lat clock.Dur
	switch {
	case b.openRow == row:
		lat = c.timing.TCAS
		c.stats.RowHits++
	case b.openRow == noRow:
		lat = c.timing.TRCD + c.timing.TCAS
		c.stats.RowEmpty++
	default:
		lat = c.timing.TRP + c.timing.TRCD + c.timing.TCAS
		c.stats.RowConflicts++
	}
	if write {
		lat += c.timing.TWR
	}
	b.openRow = row
	done := bStart + lat
	b.busyUntil = done

	// Channel data bus occupancy for the burst.
	busStart := clock.Max(done, c.busBusy[ch])
	done = busStart + c.timing.BusBurst
	c.busBusy[ch] = done

	c.stats.TotalLatency += done - t
	c.stats.QueueWait += (bStart - t) + (busStart - (bStart + lat))
	return done
}

// Stats returns a copy of the controller's counters.
func (c *Controller) Stats() Stats { return c.stats }

// ResetStats zeroes the counters without touching bank state.
func (c *Controller) ResetStats() { c.stats = Stats{} }

// System bundles one controller per memory node and routes decoded
// physical addresses to them.
type System struct {
	mapping *phys.Mapping
	ctrls   []*Controller
}

// NewSystem builds the per-node controllers from a mapping's geometry.
func NewSystem(m *phys.Mapping, tm Timing) (*System, error) {
	s := &System{mapping: m}
	for n := 0; n < m.Nodes(); n++ {
		c, err := NewController(m.Channels(), m.Ranks(), m.Banks(), tm)
		if err != nil {
			return nil, err
		}
		s.ctrls = append(s.ctrls, c)
	}
	return s, nil
}

// Access routes the request for physical address a (arriving at its
// home controller at time t) and returns the completion time and the
// servicing node.
func (s *System) Access(a phys.Addr, t clock.Time, write bool) (clock.Time, int) {
	node, ch, rank, bk, row := s.mapping.DecodeRow(a)
	return s.ctrls[node].Access(ch, rank, bk, row, t, write), node
}

// Controller returns node n's controller (for stats inspection).
func (s *System) Controller(n int) *Controller { return s.ctrls[n] }

// Nodes returns the controller count.
func (s *System) Nodes() int { return len(s.ctrls) }

// TotalStats sums the per-controller stats.
func (s *System) TotalStats() Stats {
	var out Stats
	for _, c := range s.ctrls {
		st := c.Stats()
		out.Accesses += st.Accesses
		out.RowHits += st.RowHits
		out.RowEmpty += st.RowEmpty
		out.RowConflicts += st.RowConflicts
		out.TotalLatency += st.TotalLatency
		out.QueueWait += st.QueueWait
	}
	return out
}
