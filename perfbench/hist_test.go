package main

import (
	"math"
	"testing"
)

func TestHistBucketsCoverValues(t *testing.T) {
	for _, v := range []uint64{0, 1, 31, 32, 33, 63, 64, 65, 100, 1000, 123456, 1 << 40} {
		lo, hi := bucketRange(bucketOf(v))
		if v < lo || v >= hi {
			t.Errorf("value %d in bucket [%d,%d)", v, lo, hi)
		}
		if hi-lo > 1 && float64(hi-lo)/float64(lo) > 1.0/histSub+1e-9 {
			t.Errorf("bucket [%d,%d) wider than 1/%d of its base", lo, hi, histSub)
		}
	}
}

func TestHistQuantile(t *testing.T) {
	var h Hist
	for v := uint64(1); v <= 10000; v++ {
		h.Record(v)
	}
	for _, q := range []float64{0.5, 0.99} {
		got, beyond, err := h.Quantile(q)
		if err != nil {
			t.Fatal(err)
		}
		want := q * 10000
		if math.Abs(got-want)/want > 0.04 {
			t.Errorf("p%g = %.1f, want about %.0f", q*100, got, want)
		}
		if wantBeyond := uint64(10000 - math.Ceil(q*10000)); beyond != wantBeyond {
			t.Errorf("p%g: %d beyond, want %d", q*100, beyond, wantBeyond)
		}
	}
}

func TestHistRefusesThinTail(t *testing.T) {
	var h Hist
	for v := uint64(0); v < 500; v++ {
		h.Record(v)
	}
	if _, beyond, err := h.Quantile(0.99); err == nil {
		t.Errorf("p99 of 500 samples (%d beyond) was not refused", beyond)
	}
	if _, _, err := h.Quantile(0.5); err != nil {
		t.Errorf("p50 of 500 samples refused: %v", err)
	}
	var empty Hist
	if _, _, err := empty.Quantile(0.5); err == nil {
		t.Error("p50 of an empty histogram was not refused")
	}
}

func TestHistMerge(t *testing.T) {
	var a, b Hist
	for v := uint64(0); v < 100; v++ {
		a.Record(v)
		b.Record(v + 1000)
	}
	a.Merge(&b)
	if a.Count() != 200 {
		t.Fatalf("merged count %d, want 200", a.Count())
	}
	p50, _, err := a.Quantile(0.5)
	if err != nil || p50 >= 100 {
		t.Errorf("merged p50 = %v (%v), want below 100", p50, err)
	}
}
