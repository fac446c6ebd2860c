//go:build race

package truth_test

// raceEnabled is true under the race detector, which slows the
// full-scale contract settles beyond a package test's budget; the
// contract runs in its own step without it.
const raceEnabled = true
