// Package stats provides the descriptive statistics and evaluation metrics
// used by the IMC2 experiment harness: means, deviations, confidence
// intervals, and the truth-discovery precision metric of the paper
// (§VII-A).
package stats

import (
	"fmt"
	"math"
	"sort"

	"imc2/internal/numeric"
)

// Summary holds descriptive statistics of a sample.
type Summary struct {
	N      int
	Mean   float64
	StdDev float64 // sample standard deviation (n-1)
	Min    float64
	Max    float64
	Median float64
}

// Summarize computes a Summary of xs. An empty sample yields a zero Summary.
func Summarize(xs []float64) Summary {
	if len(xs) == 0 {
		return Summary{}
	}
	s := Summary{
		N:    len(xs),
		Mean: numeric.Mean(xs),
		Min:  math.Inf(1),
		Max:  math.Inf(-1),
	}
	var sq numeric.KahanSum
	for _, x := range xs {
		d := x - s.Mean
		sq.Add(d * d)
		if x < s.Min {
			s.Min = x
		}
		if x > s.Max {
			s.Max = x
		}
	}
	if s.N > 1 {
		s.StdDev = math.Sqrt(sq.Sum() / float64(s.N-1))
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	mid := len(sorted) / 2
	if len(sorted)%2 == 1 {
		s.Median = sorted[mid]
	} else {
		s.Median = (sorted[mid-1] + sorted[mid]) / 2
	}
	return s
}

// StdErr returns the standard error of the mean.
func (s Summary) StdErr() float64 {
	if s.N == 0 {
		return 0
	}
	return s.StdDev / math.Sqrt(float64(s.N))
}

// CI95 returns the half-width of an approximate 95% confidence interval for
// the mean (normal approximation; the harness averages >= 30 repetitions).
func (s Summary) CI95() float64 {
	return 1.96 * s.StdErr()
}

// String renders the summary compactly for logs and tables.
func (s Summary) String() string {
	return fmt.Sprintf("n=%d mean=%.4g ±%.2g sd=%.4g min=%.4g max=%.4g",
		s.N, s.Mean, s.CI95(), s.StdDev, s.Min, s.Max)
}

// Precision is the paper's truth-discovery metric: the fraction of tasks
// whose estimated truth equals the ground truth,
// precision = Σⱼ g(etⱼ = et*ⱼ) / |T|.
// Tasks absent from estimated count as misses. Empty ground truth yields 0.
func Precision(estimated, groundTruth map[string]string) float64 {
	if len(groundTruth) == 0 {
		return 0
	}
	correct := 0
	for task, truth := range groundTruth {
		if estimated[task] == truth {
			correct++
		}
	}
	return float64(correct) / float64(len(groundTruth))
}
