package randx

import (
	"fmt"
	"math"
	"sort"
)

// Zipf draws ranks in [0, n) following a Zipf(s) law: rank k has
// probability proportional to 1/(k+1)^s. Used to model non-uniform
// false-value popularity ("most people think Sydney is the capital").
type Zipf struct {
	cdf []float64
}

// NewZipf builds a Zipf sampler over n ranks with exponent s >= 0.
// s = 0 degenerates to the uniform distribution.
func NewZipf(n int, s float64) (*Zipf, error) {
	if n <= 0 {
		return nil, fmt.Errorf("randx: Zipf needs n > 0, got %d", n)
	}
	if s < 0 || math.IsNaN(s) {
		return nil, fmt.Errorf("randx: Zipf exponent %v must be >= 0", s)
	}
	weights := make([]float64, n)
	var total float64
	for k := 0; k < n; k++ {
		weights[k] = 1 / math.Pow(float64(k+1), s)
		total += weights[k]
	}
	cdf := make([]float64, n)
	var acc float64
	for k := 0; k < n; k++ {
		acc += weights[k] / total
		cdf[k] = acc
	}
	cdf[n-1] = 1 // guard against rounding
	return &Zipf{cdf: cdf}, nil
}

// Sample draws one rank.
func (z *Zipf) Sample(g *RNG) int {
	u := g.Float64()
	return sort.SearchFloat64s(z.cdf, u)
}

// Probabilities returns a copy of the per-rank probability vector.
func (z *Zipf) Probabilities() []float64 {
	out := make([]float64, len(z.cdf))
	prev := 0.0
	for i, c := range z.cdf {
		out[i] = c - prev
		prev = c
	}
	return out
}
