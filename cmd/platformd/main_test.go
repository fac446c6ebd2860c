package main

import (
	"testing"

	"imc2/internal/platform"
)

func TestParseMechanism(t *testing.T) {
	tests := []struct {
		name    string
		want    platform.Mechanism
		wantErr bool
	}{
		{"ra", platform.MechanismReverseAuction, false},
		{"ga", platform.MechanismGreedyAccuracy, false},
		{"gb", platform.MechanismGreedyBid, false},
		{"vcg", 0, true},
		{"", 0, true},
	}
	for _, tt := range tests {
		got, err := parseMechanism(tt.name)
		if (err != nil) != tt.wantErr {
			t.Errorf("parseMechanism(%q) error = %v", tt.name, err)
			continue
		}
		if !tt.wantErr && got != tt.want {
			t.Errorf("parseMechanism(%q) = %v, want %v", tt.name, got, tt.want)
		}
	}
}

func TestRunRejectsBadMechanism(t *testing.T) {
	if err := run([]string{"-mechanism", "vcg", "-addr", "127.0.0.1:0"}); err == nil {
		t.Fatal("bad mechanism accepted")
	}
}

func TestRunRejectsBadOptions(t *testing.T) {
	if err := run([]string{"-r", "1.5", "-addr", "127.0.0.1:0"}); err == nil {
		t.Fatal("invalid r accepted")
	}
}

func TestRunRejectsBadParallelism(t *testing.T) {
	if err := run([]string{"-parallelism", "-2", "-addr", "127.0.0.1:0"}); err == nil {
		t.Fatal("negative parallelism accepted")
	}
}

func TestRunRejectsBadCampaignCount(t *testing.T) {
	if err := run([]string{"-campaigns", "0", "-addr", "127.0.0.1:0"}); err == nil {
		t.Fatal("zero campaigns accepted")
	}
}

func TestRunRejectsBadSchedulerFlags(t *testing.T) {
	if err := run([]string{"-max-settles", "-1", "-addr", "127.0.0.1:0"}); err == nil {
		t.Fatal("negative -max-settles accepted")
	}
	if err := run([]string{"-sched-workers", "-3", "-addr", "127.0.0.1:0"}); err == nil {
		t.Fatal("negative -sched-workers accepted")
	}
}
