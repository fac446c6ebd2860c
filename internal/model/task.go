// Package model defines the data model of the crowdsourcing system: tasks,
// workers, sealed bids, observations, and the compiled Dataset consumed by
// the truth-discovery and auction engines.
package model

import (
	"errors"
	"fmt"
	"math"
	"unicode/utf8"
)

// ErrUnknownTask reports an observation referencing an undeclared task.
var ErrUnknownTask = errors.New("model: unknown task")

// ErrDuplicateObservation reports a worker submitting two values for the
// same task; the paper's model admits one value per (worker, task).
var ErrDuplicateObservation = errors.New("model: duplicate observation")

// Task is one crowdsourcing task published by the platform.
type Task struct {
	// ID uniquely names the task.
	ID string `json:"id"`
	// NumFalse is num_j, the number of distinct false values in the
	// underlying answer domain (the domain holds num_j+1 values).
	NumFalse int `json:"num_false"`
	// Requirement is Θ_j, the least total accuracy (confidence) the
	// platform demands to discover this task's truth.
	Requirement float64 `json:"requirement"`
	// Value is the platform's valuation of completing the task; it only
	// enters the platform-utility bookkeeping, not the mechanisms.
	Value float64 `json:"value"`
}

// Validate checks structural invariants of the task definition.
func (t Task) Validate() error {
	if t.ID == "" {
		return errors.New("model: task ID must be non-empty")
	}
	if !utf8.ValidString(t.ID) {
		return fmt.Errorf("model: task ID %q is not valid UTF-8", t.ID)
	}
	if t.NumFalse < 1 {
		return fmt.Errorf("model: task %q needs NumFalse >= 1, got %d", t.ID, t.NumFalse)
	}
	if t.Requirement < 0 {
		return fmt.Errorf("model: task %q has negative requirement %v", t.ID, t.Requirement)
	}
	if t.Value < 0 {
		return fmt.Errorf("model: task %q has negative value %v", t.ID, t.Value)
	}
	return nil
}

// Observation is a single (worker, task, value) submission.
type Observation struct {
	Worker string `json:"worker"`
	Task   string `json:"task"`
	Value  string `json:"value"`
}

// Bid is a worker's sealed submission in the reverse auction: the claimed
// price for performing its task set. The task set and data travel in the
// accompanying observations (D_i determines T_i).
type Bid struct {
	Worker string  `json:"worker"`
	Price  float64 `json:"price"`
}

// Validate checks the bid's structural invariants: a non-empty worker ID
// in valid UTF-8 and a finite, non-negative price. (JSON cannot carry a
// NaN or an infinity, so a bid that passes can always be logged.)
func (b Bid) Validate() error {
	if b.Worker == "" {
		return errors.New("model: bid worker must be non-empty")
	}
	if !utf8.ValidString(b.Worker) {
		return fmt.Errorf("model: bid worker %q is not valid UTF-8", b.Worker)
	}
	if b.Price < 0 || math.IsNaN(b.Price) || math.IsInf(b.Price, 0) {
		return fmt.Errorf("model: bid price %v for %q must be finite and non-negative", b.Price, b.Worker)
	}
	return nil
}
