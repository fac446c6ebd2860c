package stats

import (
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func TestSummarize(t *testing.T) {
	tests := []struct {
		name string
		xs   []float64
		want Summary
	}{
		{
			name: "basic",
			xs:   []float64{1, 2, 3, 4, 5},
			want: Summary{N: 5, Mean: 3, StdDev: math.Sqrt(2.5), Min: 1, Max: 5, Median: 3},
		},
		{
			name: "even length median",
			xs:   []float64{1, 2, 3, 4},
			want: Summary{N: 4, Mean: 2.5, StdDev: math.Sqrt(5.0 / 3), Min: 1, Max: 4, Median: 2.5},
		},
		{
			name: "single",
			xs:   []float64{7},
			want: Summary{N: 1, Mean: 7, StdDev: 0, Min: 7, Max: 7, Median: 7},
		},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			got := Summarize(tt.xs)
			if got.N != tt.want.N || math.Abs(got.Mean-tt.want.Mean) > 1e-12 ||
				math.Abs(got.StdDev-tt.want.StdDev) > 1e-12 ||
				got.Min != tt.want.Min || got.Max != tt.want.Max ||
				math.Abs(got.Median-tt.want.Median) > 1e-12 {
				t.Fatalf("Summarize = %+v, want %+v", got, tt.want)
			}
		})
	}
}

func TestSummarizeEmpty(t *testing.T) {
	got := Summarize(nil)
	if got.N != 0 || got.Mean != 0 {
		t.Fatalf("Summarize(nil) = %+v, want zero", got)
	}
	if got.StdErr() != 0 || got.CI95() != 0 {
		t.Fatal("empty summary should have zero error bars")
	}
}

func TestSummaryString(t *testing.T) {
	s := Summarize([]float64{1, 2, 3})
	if !strings.Contains(s.String(), "n=3") {
		t.Errorf("String() = %q missing n=3", s.String())
	}
}

func TestSummarizeMinLeqMax(t *testing.T) {
	f := func(xs []float64) bool {
		clean := xs[:0]
		for _, x := range xs {
			// Metrics in this repository are bounded; exclude magnitudes
			// whose sums overflow float64.
			if !math.IsNaN(x) && !math.IsInf(x, 0) && math.Abs(x) < 1e150 {
				clean = append(clean, x)
			}
		}
		if len(clean) == 0 {
			return true
		}
		s := Summarize(clean)
		return s.Min <= s.Median && s.Median <= s.Max &&
			s.Min <= s.Mean && s.Mean <= s.Max
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestPrecision(t *testing.T) {
	tests := []struct {
		name      string
		estimated map[string]string
		truth     map[string]string
		want      float64
	}{
		{
			name:      "all correct",
			estimated: map[string]string{"t1": "a", "t2": "b"},
			truth:     map[string]string{"t1": "a", "t2": "b"},
			want:      1,
		},
		{
			name:      "half correct",
			estimated: map[string]string{"t1": "a", "t2": "x"},
			truth:     map[string]string{"t1": "a", "t2": "b"},
			want:      0.5,
		},
		{
			name:      "missing estimate counts as miss",
			estimated: map[string]string{"t1": "a"},
			truth:     map[string]string{"t1": "a", "t2": "b"},
			want:      0.5,
		},
		{
			name:      "empty truth",
			estimated: map[string]string{"t1": "a"},
			truth:     nil,
			want:      0,
		},
		{
			name:      "extra estimates ignored",
			estimated: map[string]string{"t1": "a", "zz": "q"},
			truth:     map[string]string{"t1": "a"},
			want:      1,
		},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := Precision(tt.estimated, tt.truth); got != tt.want {
				t.Fatalf("Precision = %v, want %v", got, tt.want)
			}
		})
	}
}
