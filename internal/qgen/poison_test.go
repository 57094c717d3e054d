package qgen

import "divsql/internal/engine"

// The tests of this package run with the engine's reclaimed statement
// memory poisoned: a row or result kept past its statement reads
// garbage, never the next statement's data.
func init() { engine.PoisonReclaimed(true) }
