//go:build race

package wire

// raceEnabled reports whether this test binary was built with the race
// detector; allocation gates skip under it (instrumentation allocates).
const raceEnabled = true
