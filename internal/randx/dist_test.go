package randx

import (
	"math"
	"testing"
)

func TestNewZipfValidation(t *testing.T) {
	if _, err := NewZipf(0, 1); err == nil {
		t.Error("NewZipf(0, 1): want error")
	}
	if _, err := NewZipf(3, -1); err == nil {
		t.Error("NewZipf(3, -1): want error")
	}
	if _, err := NewZipf(3, math.NaN()); err == nil {
		t.Error("NewZipf(3, NaN): want error")
	}
}

func TestZipfUniformWhenSZero(t *testing.T) {
	z, err := NewZipf(4, 0)
	if err != nil {
		t.Fatal(err)
	}
	ps := z.Probabilities()
	for i, p := range ps {
		if math.Abs(p-0.25) > 1e-12 {
			t.Errorf("p[%d] = %v, want 0.25", i, p)
		}
	}
}

func TestZipfSkew(t *testing.T) {
	z, err := NewZipf(5, 1.5)
	if err != nil {
		t.Fatal(err)
	}
	ps := z.Probabilities()
	for i := 1; i < len(ps); i++ {
		if ps[i] >= ps[i-1] {
			t.Fatalf("Zipf probabilities not decreasing: p[%d]=%v >= p[%d]=%v",
				i, ps[i], i-1, ps[i-1])
		}
	}
	var sum float64
	for _, p := range ps {
		sum += p
	}
	if math.Abs(sum-1) > 1e-12 {
		t.Fatalf("Zipf probabilities sum to %v", sum)
	}
}

func TestZipfSampleFrequencies(t *testing.T) {
	z, err := NewZipf(3, 1)
	if err != nil {
		t.Fatal(err)
	}
	g := New(77)
	counts := make([]int, 3)
	const n = 30000
	for i := 0; i < n; i++ {
		counts[z.Sample(g)]++
	}
	ps := z.Probabilities()
	for k, c := range counts {
		got := float64(c) / n
		if math.Abs(got-ps[k]) > 0.02 {
			t.Errorf("rank %d frequency %v, want ~%v", k, got, ps[k])
		}
	}
}
