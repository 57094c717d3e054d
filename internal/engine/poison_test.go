package engine

// The tests of this package run with reclaimed statement memory
// poisoned: a row or result kept past its statement reads garbage, never the next
// statement's data.
func init() { PoisonReclaimed(true) }
