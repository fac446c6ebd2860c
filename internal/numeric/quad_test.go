package numeric

import "testing"

func TestSimpsonPolynomials(t *testing.T) {
	tests := []struct {
		name string
		f    Integrand
		a, b float64
		n    int
		want float64
	}{
		{"constant", func(x float64) float64 { return 2 }, 0, 1, 4, 2},
		{"linear", func(x float64) float64 { return x }, 0, 1, 4, 0.5},
		{"quadratic", func(x float64) float64 { return x * x }, 0, 1, 2, 1.0 / 3},
		{"cubic exact", func(x float64) float64 { return x * x * x }, 0, 2, 2, 4},
		{"uniform density h^2", func(h float64) float64 { return h * h }, 0, 1, 64, 1.0 / 3},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			got := Simpson(tt.f, tt.a, tt.b, tt.n)
			if !AlmostEqual(got, tt.want, 1e-10) {
				t.Fatalf("Simpson = %v, want %v", got, tt.want)
			}
		})
	}
}

func TestSimpsonOddPanelsRounded(t *testing.T) {
	got := Simpson(func(x float64) float64 { return x * x }, 0, 1, 3)
	if !AlmostEqual(got, 1.0/3, 1e-10) {
		t.Fatalf("Simpson with odd n = %v, want 1/3", got)
	}
}

func TestQuadratureAgreement(t *testing.T) {
	// Simpson matches a smooth density integral used by §IV-B:
	// f(h) = 6h(1-h) (a Beta(2,2) density), integral of h^2 f(h) over [0,1].
	f := func(h float64) float64 { return h * h * 6 * h * (1 - h) }
	want := 0.3 // ∫ 6h^3(1-h) dh = 6(1/4 - 1/5)
	if got := Simpson(f, 0, 1, 512); !AlmostEqual(got, want, 1e-9) {
		t.Errorf("simpson = %v, want %v", got, want)
	}
}
