//go:build !race

package mpi

// raceEnabled reports that the test binary was built with -race.
const raceEnabled = false
