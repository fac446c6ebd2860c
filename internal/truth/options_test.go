package truth

import (
	"strings"
	"testing"
)

func TestDefaultOptionsValid(t *testing.T) {
	if err := DefaultOptions().Validate(); err != nil {
		t.Fatalf("DefaultOptions invalid: %v", err)
	}
}

func TestOptionsValidate(t *testing.T) {
	valid := DefaultOptions()
	tests := []struct {
		name    string
		mutate  func(*Options)
		wantSub string
	}{
		{"copy prob zero", func(o *Options) { o.CopyProb = 0 }, "CopyProb"},
		{"copy prob one", func(o *Options) { o.CopyProb = 1 }, "CopyProb"},
		{"init accuracy zero", func(o *Options) { o.InitAccuracy = 0 }, "InitAccuracy"},
		{"init accuracy negative", func(o *Options) { o.InitAccuracy = -0.5 }, "InitAccuracy"},
		{"prior one", func(o *Options) { o.PriorDependence = 1 }, "PriorDependence"},
		{"zero iterations", func(o *Options) { o.MaxIterations = 0 }, "MaxIterations"},
		{"similarity weight negative", func(o *Options) { o.SimilarityWeight = -0.1 }, "SimilarityWeight"},
		{"similarity weight above one", func(o *Options) { o.SimilarityWeight = 1.5 }, "SimilarityWeight"},
		{
			"weight without function",
			func(o *Options) { o.SimilarityWeight = 0.5; o.Similarity = nil },
			"without a Similarity",
		},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			o := valid
			tt.mutate(&o)
			err := o.Validate()
			if err == nil {
				t.Fatal("want error, got nil")
			}
			if !strings.Contains(err.Error(), tt.wantSub) {
				t.Fatalf("error %q does not mention %q", err, tt.wantSub)
			}
		})
	}
}

func TestOptionsSimilarityValid(t *testing.T) {
	o := DefaultOptions()
	o.Similarity = func(a, b string) float64 { return 0 }
	o.SimilarityWeight = 0.5
	if err := o.Validate(); err != nil {
		t.Fatalf("similarity options rejected: %v", err)
	}
}

func TestMethodString(t *testing.T) {
	tests := []struct {
		m    Method
		want string
	}{
		{MethodDATE, "DATE"},
		{MethodMV, "MV"},
		{MethodNC, "NC"},
		{MethodED, "ED"},
		{Method(99), "Method(99)"},
	}
	for _, tt := range tests {
		if got := tt.m.String(); got != tt.want {
			t.Errorf("Method(%d).String() = %q, want %q", int(tt.m), got, tt.want)
		}
	}
}

// TestEDDefaults pins ED's ordering counts to 6 and 720, the values that
// every campaign created before they became constants recorded in its
// created event, so a recovered ED campaign settles as it did before.
func TestEDDefaults(t *testing.T) {
	if edExactLimit != 6 || edSamples != 720 {
		t.Errorf("edExactLimit, edSamples = %d, %d; want 6, 720", edExactLimit, edSamples)
	}
}
