package plan

// CacheStats is a point-in-time snapshot of an engine's compiled-plan
// cache counters. Invalidation is by generation equality, not ordering:
// every DDL mints a fresh, never-reused schema epoch, and a transaction
// rollback restores the pre-transaction stamp. An entry is served only
// while its stamp equals the current one — a stale entry (including one
// compiled against a schema generation that was later rolled back)
// counts as an invalidation plus a miss and recompiles transparently.
type CacheStats struct {
	Hits          uint64
	Misses        uint64
	Invalidations uint64
}

// HitRate returns hits / (hits + misses), 0 when idle.
func (s CacheStats) HitRate() float64 {
	total := s.Hits + s.Misses
	if total == 0 {
		return 0
	}
	return float64(s.Hits) / float64(total)
}
