//go:build !race

package truth_test

const raceEnabled = false
