package numeric

import (
	"math"
	"testing"
	"testing/quick"
)

func TestLogSumExp(t *testing.T) {
	tests := []struct {
		name string
		xs   []float64
		want float64
	}{
		{"empty", nil, math.Inf(-1)},
		{"single", []float64{0.5}, 0.5},
		{"two equal", []float64{math.Log(0.5), math.Log(0.5)}, 0},
		{"all -inf", []float64{math.Inf(-1), math.Inf(-1)}, math.Inf(-1)},
		{"one -inf", []float64{math.Inf(-1), math.Log(2)}, math.Log(2)},
		{"large magnitudes", []float64{-1000, -1000}, -1000 + math.Log(2)},
		{"huge spread", []float64{-1e9, 0}, 0},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			got := LogSumExp(tt.xs)
			if math.IsInf(tt.want, -1) {
				if !math.IsInf(got, -1) {
					t.Fatalf("LogSumExp(%v) = %v, want -Inf", tt.xs, got)
				}
				return
			}
			if !AlmostEqual(got, tt.want, 1e-12) {
				t.Fatalf("LogSumExp(%v) = %v, want %v", tt.xs, got, tt.want)
			}
		})
	}
}

func TestLogSumExpNaN(t *testing.T) {
	if got := LogSumExp([]float64{0, math.NaN()}); !math.IsNaN(got) {
		t.Fatalf("LogSumExp with NaN = %v, want NaN", got)
	}
}

func TestSigmoidLogitRoundTrip(t *testing.T) {
	f := func(x float64) bool {
		// Restrict to the region where 1−p retains enough bits for the
		// round-trip; beyond |x|≈15 the logit derivative 1/(p(1−p))
		// amplifies float64 quantization past any fixed tolerance.
		x = math.Mod(x, 15)
		if math.IsNaN(x) {
			return true
		}
		p := Sigmoid(x)
		if p < 0 || p > 1 {
			return false
		}
		if p == 0 || p == 1 {
			return true // saturated; Logit would be ±Inf
		}
		return AlmostEqual(Logit(p), x, 1e-6)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestSigmoidExtremes(t *testing.T) {
	if got := Sigmoid(1000); got != 1 {
		t.Errorf("Sigmoid(1000) = %v, want 1", got)
	}
	if got := Sigmoid(-1000); got != 0 {
		t.Errorf("Sigmoid(-1000) = %v, want 0", got)
	}
	if got := Sigmoid(0); got != 0.5 {
		t.Errorf("Sigmoid(0) = %v, want 0.5", got)
	}
}

func TestClampProb(t *testing.T) {
	tests := []struct{ in, want float64 }{
		{-0.1, 0}, {0, 0}, {0.5, 0.5}, {1, 1}, {1.1, 1},
	}
	for _, tt := range tests {
		if got := ClampProb(tt.in); got != tt.want {
			t.Errorf("ClampProb(%v) = %v, want %v", tt.in, got, tt.want)
		}
	}
	if got := ClampProb(math.NaN()); !math.IsNaN(got) {
		t.Errorf("ClampProb(NaN) = %v, want NaN", got)
	}
}

func TestClampProbOpen(t *testing.T) {
	if got := ClampProbOpen(0, 1e-6); got != 1e-6 {
		t.Errorf("ClampProbOpen(0) = %v, want 1e-6", got)
	}
	if got := ClampProbOpen(1, 1e-6); got != 1-1e-6 {
		t.Errorf("ClampProbOpen(1) = %v, want 1-1e-6", got)
	}
	if got := ClampProbOpen(0.5, 1e-6); got != 0.5 {
		t.Errorf("ClampProbOpen(0.5) = %v, want 0.5", got)
	}
	defer func() {
		if recover() == nil {
			t.Error("ClampProbOpen with bad margin did not panic")
		}
	}()
	ClampProbOpen(0.5, 0.7)
}

func TestNormalizeLogs(t *testing.T) {
	t.Run("simplex", func(t *testing.T) {
		logs := []float64{math.Log(1), math.Log(2), math.Log(3)}
		ps := NormalizeLogsInto(make([]float64, len(logs)), logs)
		want := []float64{1.0 / 6, 2.0 / 6, 3.0 / 6}
		for i := range ps {
			if !AlmostEqual(ps[i], want[i], 1e-12) {
				t.Errorf("ps[%d] = %v, want %v", i, ps[i], want[i])
			}
		}
	})
	t.Run("all -inf gives uniform", func(t *testing.T) {
		ps := NormalizeLogsInto(make([]float64, 2), []float64{math.Inf(-1), math.Inf(-1)})
		for i, p := range ps {
			if !AlmostEqual(p, 0.5, 1e-12) {
				t.Errorf("ps[%d] = %v, want 0.5", i, p)
			}
		}
	})
	t.Run("empty", func(t *testing.T) {
		if ps := NormalizeLogsInto(nil, nil); len(ps) != 0 {
			t.Errorf("NormalizeLogsInto(nil, nil) = %v, want empty", ps)
		}
	})
}

func TestNormalizeLogsSumsToOne(t *testing.T) {
	f := func(raw []float64) bool {
		if len(raw) == 0 {
			return true
		}
		logs := make([]float64, len(raw))
		for i, r := range raw {
			logs[i] = math.Mod(r, 500) // avoid overflow extremes
			if math.IsNaN(logs[i]) {
				return true
			}
		}
		// dst aliases logs, as the estimate pass's scratch may.
		ps := NormalizeLogsInto(logs, logs)
		var sum float64
		for _, p := range ps {
			if p < 0 || p > 1 {
				return false
			}
			sum += p
		}
		return AlmostEqual(sum, 1, 1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
