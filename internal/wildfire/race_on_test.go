//go:build race

package wildfire

// raceEnabled reports that this binary was built with -race: the
// detector's instrumentation allocates, and sync.Pool drops pooled
// items at random, so the allocation guards skip themselves.
const raceEnabled = true
