package numeric

// Integrand is a real-valued function of one variable on [a, b].
type Integrand func(x float64) float64

// Simpson integrates f over [a, b] with composite Simpson's rule using n
// panels (n is rounded up to the next even integer, minimum 2).
//
// The §IV-B extension of DATE needs ∫₀¹ h²·f(h) dh for a user-supplied
// false-value density f; Simpson on a fixed grid is exact for the
// polynomial densities used in tests and accurate to ~1e-10 for the smooth
// densities used in experiments.
func Simpson(f Integrand, a, b float64, n int) float64 {
	if n < 2 {
		n = 2
	}
	if n%2 != 0 {
		n++
	}
	h := (b - a) / float64(n)
	var sum KahanSum
	sum.Add(f(a))
	sum.Add(f(b))
	for i := 1; i < n; i++ {
		x := a + float64(i)*h
		if i%2 == 1 {
			sum.Add(4 * f(x))
		} else {
			sum.Add(2 * f(x))
		}
	}
	return sum.Sum() * h / 3
}
