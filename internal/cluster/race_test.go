//go:build race

package cluster

// raceEnabled reports whether the race detector is compiled in; tests that
// run a full check after every merge step shrink their workload matrix
// under it, since they run on one goroutine and give the detector nothing
// to find.
const raceEnabled = true
