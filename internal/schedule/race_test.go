//go:build race

package schedule

// The race detector makes sync.Pool drop entries at random, so allocation
// counts of pooled code vary from run to run under -race.
func init() { raceEnabled = true }
