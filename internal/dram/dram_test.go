package dram

import (
	"math/rand"
	"testing"
	"testing/quick"

	"github.com/tintmalloc/tintmalloc/internal/clock"
	"github.com/tintmalloc/tintmalloc/internal/phys"
)

func newCtrl(t *testing.T) *Controller {
	t.Helper()
	c, err := NewController(2, 2, 8, DefaultTiming())
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestRowBufferHitFasterThanMiss(t *testing.T) {
	c := newCtrl(t)
	tm := DefaultTiming()
	// First access: bank idle -> activate + CAS.
	d1 := c.Access(0, 0, 0, 100, 0, false)
	want1 := tm.QueueService + tm.TRCD + tm.TCAS + tm.BusBurst
	if d1 != want1 {
		t.Errorf("empty-row access latency = %d, want %d", d1, want1)
	}
	// Same row, well after the first completes: row hit.
	start := d1 + 1000
	d2 := c.Access(0, 0, 0, 100, start, false)
	hitLat := d2 - start
	wantHit := tm.QueueService + tm.TCAS + tm.BusBurst
	if hitLat != wantHit {
		t.Errorf("row-hit latency = %d, want %d", hitLat, wantHit)
	}
	// Different row: conflict, needs precharge.
	start = d2 + 1000
	d3 := c.Access(0, 0, 0, 200, start, false)
	confLat := d3 - start
	wantConf := tm.QueueService + tm.TRP + tm.TRCD + tm.TCAS + tm.BusBurst
	if confLat != wantConf {
		t.Errorf("row-conflict latency = %d, want %d", confLat, wantConf)
	}
	if !(hitLat < confLat) {
		t.Errorf("hit (%d) not faster than conflict (%d)", hitLat, confLat)
	}
	st := c.Stats()
	if st.RowHits != 1 || st.RowEmpty != 1 || st.RowConflicts != 1 {
		t.Errorf("stats = %+v, want 1 hit / 1 empty / 1 conflict", st)
	}
}

func TestSameBankContentionQueues(t *testing.T) {
	c := newCtrl(t)
	// Two simultaneous requests to the same bank, different rows:
	// the second must wait for the first and then pay a conflict.
	d1 := c.Access(0, 0, 0, 1, 0, false)
	d2 := c.Access(0, 0, 0, 2, 0, false)
	if d2 <= d1 {
		t.Errorf("contended access (%d) finished no later than first (%d)", d2, d1)
	}
	// Separate banks at the same instant contend only on queue+bus.
	c2 := newCtrl(t)
	e1 := c2.Access(0, 0, 0, 1, 0, false)
	e2 := c2.Access(0, 0, 1, 1, 0, false)
	if e2 >= d2 {
		t.Errorf("bank-parallel access (%d) not faster than same-bank conflict (%d)", e2, d2)
	}
	_ = e1
}

func TestChannelParallelism(t *testing.T) {
	tm := DefaultTiming()
	c, err := NewController(2, 2, 8, tm)
	if err != nil {
		t.Fatal(err)
	}
	// Same channel back-to-back: serialized on the data bus.
	a1 := c.Access(0, 0, 0, 1, 0, false)
	a2 := c.Access(0, 0, 1, 1, 0, false)
	sameChGap := a2 - a1

	c2, _ := NewController(2, 2, 8, tm)
	b1 := c2.Access(0, 0, 0, 1, 0, false)
	b2 := c2.Access(1, 0, 0, 1, 0, false)
	crossChGap := b2 - b1
	if crossChGap > sameChGap {
		t.Errorf("cross-channel gap (%d) exceeds same-channel gap (%d)", crossChGap, sameChGap)
	}
}

func TestWritesSlowerThanReads(t *testing.T) {
	c := newCtrl(t)
	r := c.Access(0, 0, 0, 1, 0, false)
	c2 := newCtrl(t)
	w := c2.Access(0, 0, 0, 1, 0, true)
	if w <= r {
		t.Errorf("write latency (%d) not greater than read (%d)", w, r)
	}
}

func TestRefreshClosesRows(t *testing.T) {
	tm := DefaultTiming()
	c, err := NewController(1, 1, 1, tm)
	if err != nil {
		t.Fatal(err)
	}
	c.Access(0, 0, 0, 7, 0, false)
	// Access the same row in the next refresh epoch: the row was
	// closed by refresh, so it's an empty-row activation, not a hit.
	late := tm.RefreshEvery * 3
	c.Access(0, 0, 0, 7, late, false)
	st := c.Stats()
	if st.RowHits != 0 {
		t.Errorf("row survived refresh: %+v", st)
	}
	if st.RowEmpty != 2 {
		t.Errorf("RowEmpty = %d, want 2", st.RowEmpty)
	}
}

// TestRefreshEpochs pins the lazy refresh per epoch of RefreshEvery
// cycles: a row stays open for a hit within one epoch, closes when an
// access starts in a later epoch, and an arrival stamped in an earlier
// epoch starts at the bank's busy time, in the epoch the bank is in,
// so its row is still open.
func TestRefreshEpochs(t *testing.T) {
	tm := DefaultTiming()
	c, err := NewController(1, 1, 1, tm)
	if err != nil {
		t.Fatal(err)
	}
	want := Stats{}
	check := func(step string) {
		t.Helper()
		st := c.Stats()
		if st.RowHits != want.RowHits || st.RowEmpty != want.RowEmpty || st.RowConflicts != want.RowConflicts {
			t.Fatalf("%s: %d hits / %d empty / %d conflicts, want %d / %d / %d", step,
				st.RowHits, st.RowEmpty, st.RowConflicts, want.RowHits, want.RowEmpty, want.RowConflicts)
		}
	}
	epoch2 := 2 * tm.RefreshEvery
	c.Access(0, 0, 0, 7, epoch2+10, false)
	want.RowEmpty++
	check("first access")
	c.Access(0, 0, 0, 7, epoch2+1000, false)
	want.RowHits++
	check("same row, same epoch")
	// The bank's last access started just before the boundary; the
	// next starts just past it, so refresh closed the row between them.
	c.Access(0, 0, 0, 7, 3*tm.RefreshEvery-tm.QueueService-1, false)
	want.RowHits++
	check("same row, last cycles of the epoch")
	done := c.Access(0, 0, 0, 7, 3*tm.RefreshEvery, false)
	want.RowEmpty++
	check("same row, next epoch")
	// Arrival stamped in epoch 0: the bank is busy until done, in epoch
	// 3, so the access starts there and hits the open row.
	if got := c.Access(0, 0, 0, 7, 5, false); got <= done {
		t.Fatalf("access arriving at 5 completed at %d, before the bank was free at %d", got, done)
	}
	want.RowHits++
	check("arrival in an earlier epoch")
}

// refController is the reference model of Controller.Access's refresh
// rule: it divides every start time by RefreshEvery and closes the
// row when the quotient differs from the bank's last one.
type refController struct {
	tm        Timing
	openRow   []uint64
	busyUntil []clock.Time
	epoch     []uint64
	queueBusy clock.Time
	busBusy   clock.Time
}

func (r *refController) access(bk int, row uint64, t clock.Time) clock.Time {
	qDone := clock.Max(t, r.queueBusy) + r.tm.QueueService
	r.queueBusy = qDone
	bStart := clock.Max(qDone, r.busyUntil[bk])
	if e := uint64(bStart / r.tm.RefreshEvery); e != r.epoch[bk] {
		r.epoch[bk] = e
		r.openRow[bk] = noRow
	}
	lat := r.tm.TRP + r.tm.TRCD + r.tm.TCAS
	switch r.openRow[bk] {
	case row:
		lat = r.tm.TCAS
	case noRow:
		lat = r.tm.TRCD + r.tm.TCAS
	}
	r.openRow[bk] = row
	r.busyUntil[bk] = bStart + lat
	r.busBusy = clock.Max(bStart+lat, r.busBusy) + r.tm.BusBurst
	return r.busBusy
}

// TestRefreshMatchesDivision drives Controller.Access and the
// divide-every-time reference through random arrivals, in and out of
// order and spread over many epochs, and requires the same completion
// time for every access.
func TestRefreshMatchesDivision(t *testing.T) {
	tm := DefaultTiming()
	tm.RefreshEvery = 500
	c, err := NewController(1, 1, 4, tm)
	if err != nil {
		t.Fatal(err)
	}
	ref := &refController{tm: tm, openRow: make([]uint64, 4), busyUntil: make([]clock.Time, 4), epoch: make([]uint64, 4)}
	for i := range ref.openRow {
		ref.openRow[i] = noRow
	}
	rng := rand.New(rand.NewSource(3))
	var now clock.Time
	for i := 0; i < 20000; i++ {
		now += clock.Time(rng.Intn(120))
		at := now
		if rng.Intn(4) == 0 {
			at = clock.Time(rng.Int63n(int64(now) + 1)) // stamped in the past
		}
		bk, row := rng.Intn(4), uint64(rng.Intn(3))
		if got, want := c.Access(0, 0, bk, row, at, false), ref.access(bk, row, at); got != want {
			t.Fatalf("access %d (bank %d, row %d, at %d): completed at %d, reference %d", i, bk, row, at, got, want)
		}
	}
}

func TestGeometryValidation(t *testing.T) {
	if _, err := NewController(0, 1, 1, DefaultTiming()); err == nil {
		t.Error("NewController accepted 0 channels")
	}
	if _, err := NewController(1, 1, 1, Timing{}); err == nil {
		t.Error("NewController accepted zero timing")
	}
	bad := DefaultTiming()
	bad.RefreshEvery = 0
	if _, err := NewController(1, 1, 1, bad); err == nil {
		t.Error("NewController accepted RefreshEvery=0")
	}
}

func TestInvalidBankPanics(t *testing.T) {
	c := newCtrl(t)
	defer func() {
		if recover() == nil {
			t.Error("Access to invalid bank did not panic")
		}
	}()
	c.Access(9, 0, 0, 1, 0, false)
}

func TestSystemRouting(t *testing.T) {
	m, err := phys.DefaultSeparable(256<<20, 4)
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewSystem(m, DefaultTiming())
	if err != nil {
		t.Fatal(err)
	}
	if s.Nodes() != 4 {
		t.Fatalf("Nodes = %d", s.Nodes())
	}
	// An address in node 2's range must be serviced by controller 2.
	base, _ := m.NodeRange(2)
	_, node := s.Access(base+0x1000, 0, false)
	if node != 2 {
		t.Errorf("address routed to node %d, want 2", node)
	}
	if st := s.Controller(2).Stats(); st.Accesses != 1 {
		t.Errorf("controller 2 accesses = %d, want 1", st.Accesses)
	}
	for _, n := range []int{0, 1, 3} {
		if st := s.Controller(n).Stats(); st.Accesses != 0 {
			t.Errorf("controller %d accesses = %d, want 0", n, st.Accesses)
		}
	}
	if tot := s.TotalStats(); tot.Accesses != 1 {
		t.Errorf("TotalStats.Accesses = %d, want 1", tot.Accesses)
	}
}

func TestControllersIndependent(t *testing.T) {
	m, err := phys.DefaultSeparable(256<<20, 4)
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewSystem(m, DefaultTiming())
	if err != nil {
		t.Fatal(err)
	}
	b0, _ := m.NodeRange(0)
	b1, _ := m.NodeRange(1)
	// Saturate controller 0's queue; controller 1 must be unaffected.
	var last clock.Time
	for i := 0; i < 10; i++ {
		last, _ = s.Access(b0, 0, false)
	}
	d1, _ := s.Access(b1, 0, false)
	if d1 >= last {
		t.Errorf("independent controller delayed by other controller's queue: %d vs %d", d1, last)
	}
}

func TestResetStats(t *testing.T) {
	c := newCtrl(t)
	c.Access(0, 0, 0, 1, 0, false)
	c.ResetStats()
	if st := c.Stats(); st.Accesses != 0 || st.TotalLatency != 0 {
		t.Errorf("ResetStats left %+v", st)
	}
}

// Property: adding queue pressure never makes an access complete
// earlier (conservative queueing).
func TestQueuePressureMonotone(t *testing.T) {
	lat := func(warmups int) clock.Time {
		c, err := NewController(2, 2, 8, DefaultTiming())
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < warmups; i++ {
			c.Access(0, 0, i%8, uint64(i), 0, false)
		}
		return c.Access(1, 1, 0, 42, 0, false)
	}
	prev := lat(0)
	for _, w := range []int{1, 2, 4, 8, 16} {
		cur := lat(w)
		if cur < prev {
			t.Fatalf("completion regressed with pressure %d: %d < %d", w, cur, prev)
		}
		prev = cur
	}
}

// Property: interleaving a second thread into the same bank never
// reduces (and with different rows strictly increases) the first
// thread's total service time.
func TestInterleavingNeverHelps(t *testing.T) {
	f := func(rowsA, rowsB uint8, interleave bool) bool {
		tm := DefaultTiming()
		run := func(withB bool) clock.Time {
			c, err := NewController(1, 1, 2, tm)
			if err != nil {
				t.Fatal(err)
			}
			var tA clock.Time
			for i := 0; i < 20; i++ {
				tA = c.Access(0, 0, 0, uint64(rowsA%4), tA, false)
				if withB {
					c.Access(0, 0, 0, uint64(rowsB%4)+10, tA, false)
				}
			}
			return tA
		}
		return run(true) >= run(false)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// Writes to distinct banks of the same channel serialize only on the
// bus; total throughput must exceed single-bank throughput.
func TestBankLevelParallelismThroughput(t *testing.T) {
	tm := DefaultTiming()
	finish := func(banks int) clock.Time {
		c, err := NewController(1, 1, 8, tm)
		if err != nil {
			t.Fatal(err)
		}
		var last clock.Time
		for i := 0; i < 64; i++ {
			d := c.Access(0, 0, i%banks, uint64(i), 0, false)
			if d > last {
				last = d
			}
		}
		return last
	}
	if !(finish(8) < finish(1)) {
		t.Errorf("8-bank streaming (%d) not faster than 1-bank (%d)", finish(8), finish(1))
	}
}
