package engine

import (
	"cmp"
	"slices"
	"sort"
	"sync"

	"divsql/internal/sql/types"
)

// This file implements the lazily built lookup indexes behind the
// compiled-plan access paths (see access.go and compiled.go).
//
// The engine stores rows as a plain slice; indexes are a pure cache over
// it, maintained on demand. Validity is tracked by Table.baseSeq, which
// counts only the mutations that invalidate existing row positions
// (update, delete, undo application — Table.touchBase); pure appends
// leave it unchanged. An index records the baseSeq it was built under
// and the number of rows it covers: while baseSeq matches, the covered
// prefix is still exact, so the index extends incrementally over the
// appended tail instead of rebuilding — insert-heavy tables pay O(new
// rows), not O(table), per maintenance step. A position-invalidating
// mutation bumps baseSeq and the next probe rebuilds from scratch (one
// scan, the same cost as the full-scan execution it replaces, so the
// cache never loses against scanning).
//
// Indexes are built from immutable row-range segments. Extension never
// mutates a published index: it publishes a new index value whose
// segment list ends in a new segment, so a session still holding the
// previous value (or a shorter read-view capture of the same table —
// captures of one table share an index-cache lineage, see
// Table.capIC) keeps a consistent view without any locking beyond the
// build itself. Segments merge tiered (the new segment absorbs each
// predecessor covering no more than twice its rows), so the list stays
// logarithmic in the table size and every row takes part in O(log n)
// merges over the table's lifetime — the amortized maintenance bound
// that keeps a steady insert load linear. A merge is a build over the
// merged row range: an equal baseSeq and equal key colVers mean the
// same keys sit at the same positions, so rebuilding from the rows is
// exact.
//
// Tail by count: a small appended tail is not indexed at all. eqIndex
// and rangeIndex return the published index with the row count they
// vetted, and lookup and between scan the rows past the last covered
// segment themselves — a probe makes no index value of its own.
//
// Segments are pointer-free, so the collector never scans them, and a
// segment is one slab whatever its row count: a rebuild allocates the
// index value and that slab. A hash segment is a flat open-addressed
// table from key-tuple hash to the head of a chain of row offsets,
// threaded through one next word per row and built back to front so
// each chain ascends. lookup checks every chained row's key cells
// against the probe, so a hash collision costs time, never a wrong
// candidate.
//
// Correctness contract: an index only accelerates candidate discovery.
// The executor re-evaluates the complete WHERE predicate on every
// candidate, and candidates are returned in table order, so index use
// can never change a result — only skip rows that provably cannot
// satisfy an indexed conjunct. Only INT-kind columns are indexable;
// if a key column holds a non-INT non-NULL value (possible only via the
// SkipDefaultTypeCheck quirk, which stores ill-typed DEFAULTs verbatim)
// the index is poisoned and the executor falls back to a full scan,
// because such values can still satisfy comparisons through the loose
// numeric-string coercion of types.Compare.

// indexCache holds the lazily built lookup indexes of one table
// instance. Every engine-resident table owns exactly one (allocated at
// CREATE TABLE or on header clone); successive clean read-view captures
// of one table share a lineage cache (Table.capIC). The cache has its
// own mutex because concurrent SELECT sessions build and consult
// indexes while holding only the engine read lock; published index
// values are immutable, so the mutex guards only the two lists. The
// zero value is an empty cache.
type indexCache struct {
	mu     sync.Mutex
	hash   []*index // equality indexes, one per key column list
	sorted []*index // range indexes, one per column
}

// indexTailMax is the append-tail size below which probes scan the
// unindexed tail linearly instead of extending the published index.
// Extending on every probe would build a one-row segment per insert;
// deferring until the tail reaches this many rows batches that
// maintenance while keeping the scan cost bounded.
const indexTailMax = 32

// index is one published lookup index: an immutable list of row-range
// segments covering rows [0, n), exact while the table's baseSeq equals
// base, every key column's colVer equals the recorded colVers entry,
// and the table holds at least n rows. An equality index is keyed by
// cols (held, not copied: plans and table keysets never change theirs);
// a range index (cols nil) by col.
type index struct {
	cols    []int
	col     int
	base    uint64
	colVers []uint64 // key columns' versions at build (nil: all zero)
	n       int
	segs    []seg
	one     [1]seg // segs' backing while there is one segment
}

// seg is one immutable segment: rows [start, end) of the table at build
// time. When one of them holds a non-INT, non-NULL key the segment is
// poisoned, and its content incomplete and moot. A hash segment fills
// slots and next, a sorted one ents.
type seg struct {
	start, end int
	poisoned   bool
	// slots holds two words per slot (a power-of-two count, at most
	// half full): the key hash's high half, and the chain head's row
	// offset + 1, 0 marking an empty slot. next holds, per row offset,
	// the next chained row's offset + 1, 0 ending the chain. Both are
	// views of one slab.
	slots, next []uint32
	ents        []sortEnt // keys ascending
}

// sortEnt is one sorted-segment entry: a row's key and position.
type sortEnt struct {
	key int64
	pos int
}

// eqIndex returns the equality index over cols and the row count n it
// answers for: lookup is handed the table's first n rows and scans
// those past the last segment itself (fewer than indexTailMax, vetted
// INT or NULL). nil when a covered row poisons the column set. Callers
// hold the engine lock (either mode); the cache mutex serializes
// concurrent builders, so one session builds and the rest reuse.
func (ic *indexCache) eqIndex(t *Table, cols []int) (*index, int) {
	return ic.get(&ic.hash, t, cols, -1)
}

// rangeIndex returns the sorted index over one column, as eqIndex.
func (ic *indexCache) rangeIndex(t *Table, col int) (*index, int) {
	return ic.get(&ic.sorted, t, nil, col)
}

// get finds the index keyed by cols (or col) in list and brings it up
// to date for t: rebuilt when stale, extended when its unindexed tail
// reached indexTailMax or holds a poisoning value the tail scan cannot
// honor, served as it is otherwise.
func (ic *indexCache) get(list *[]*index, t *Table, cols []int, col int) (*index, int) {
	key := cols
	if cols == nil {
		key = []int{col}
	}
	base, n := t.baseSeq.Load(), len(t.Rows)
	ic.mu.Lock()
	defer ic.mu.Unlock()
	i := slices.IndexFunc(*list, func(ix *index) bool { return ix.col == col && slices.Equal(ix.cols, cols) })
	var ix *index
	if i >= 0 {
		ix = (*list)[i]
	}
	switch {
	case ix == nil || ix.base != base || !colVersMatch(t, key, ix.colVers):
		ix = buildIndex(nil, t, cols, col, key, base)
		if i < 0 {
			*list = append(*list, ix)
		} else {
			(*list)[i] = ix
		}
	case n < ix.n:
		// The probing table is shorter than the published coverage (an
		// older capture sharing the lineage): serve the segment prefix
		// ending exactly at its row count, or a build of its own when no
		// boundary lands there — never republished: the longer index
		// stays current.
		if !slices.ContainsFunc(ix.segs, func(s seg) bool { return s.end == n }) {
			ix = buildIndex(nil, t, cols, col, key, base)
		}
	case n-ix.n >= indexTailMax || !intTail(t.Rows[ix.n:n], key):
		ix = buildIndex(ix, t, cols, col, key, base)
		(*list)[i] = ix
	}
	for j := range ix.segs {
		if s := &ix.segs[j]; s.end <= n && s.poisoned {
			return nil, 0
		}
	}
	return ix, n
}

// buildIndex returns a new index over all of t's rows: prev's segments
// (nil: none) but the ones the new segment absorbs tiered, then that
// segment, built over the remaining rows.
func buildIndex(prev *index, t *Table, cols []int, col int, key []int, base uint64) *index {
	n := len(t.Rows)
	ix := &index{cols: cols, col: col, base: base, n: n}
	start, keep := 0, 0
	if prev == nil {
		ix.colVers = colVersOf(t, key)
	} else {
		ix.colVers, start, keep = prev.colVers, prev.n, len(prev.segs)
		for keep > 0 && prev.segs[keep-1].end-prev.segs[keep-1].start <= 2*(n-start) {
			keep--
			start = prev.segs[keep].start
		}
	}
	var s seg
	if cols == nil {
		s = buildSortedSeg(t.Rows, col, start, n)
	} else {
		s = buildHashSeg(t.Rows, cols, start, n)
	}
	if keep == 0 {
		ix.one[0] = s
		ix.segs = ix.one[:]
	} else {
		ix.segs = append(prev.segs[:keep:keep], s)
	}
	return ix
}

// colVersOf snapshots the versions of the given columns (nil when no
// column of the table was ever updated in place — all-zero).
func colVersOf(t *Table, cols []int) []uint64 {
	if t.colVer == nil {
		return nil
	}
	vs := make([]uint64, len(cols))
	for i, ci := range cols {
		vs[i] = t.colVerOf(ci)
	}
	return vs
}

// colVersMatch reports whether the given columns' current versions
// equal the recorded build-time versions (nil records all-zero).
func colVersMatch(t *Table, cols []int, vers []uint64) bool {
	if vers == nil {
		for _, ci := range cols {
			if t.colVerOf(ci) != 0 {
				return false
			}
		}
		return true
	}
	for i, ci := range cols {
		if t.colVerOf(ci) != vers[i] {
			return false
		}
	}
	return true
}

// intTail reports whether every value of the given columns across rows
// is INT or NULL — the precondition for serving the rows by linear tail
// scan (anything else must go through the poisoning build path).
func intTail(rows [][]types.Value, cols []int) bool {
	for _, row := range rows {
		for _, ci := range cols {
			if k := row[ci].K; k != types.KindInt && k != types.KindNull {
				return false
			}
		}
	}
	return true
}

// keyHash folds one INT key cell into a key-tuple hash (murmur3's
// finalizer: a bijection of the 64-bit state, so distinct single keys
// never share a hash).
func keyHash(h uint64, k int64) uint64 {
	h ^= uint64(k)
	h = (h ^ h>>33) * 0xff51afd7ed558ccd
	h = (h ^ h>>33) * 0xc4ceb9fe1a85ec53
	return h ^ h>>33
}

// slot returns the slot chaining hash h: the first along its linear
// probe sequence that is empty or carries h's high half.
func (s *seg) slot(h uint64) uint64 {
	mask := uint64(len(s.slots)/2 - 1)
	i := h & mask
	for s.slots[2*i+1] != 0 && s.slots[2*i] != uint32(h>>32) {
		i = (i + 1) & mask
	}
	return i
}

// buildHashSeg chains rows [start, end) by key-tuple hash.
func buildHashSeg(rows [][]types.Value, cols []int, start, end int) seg {
	size := 1
	for size < 2*(end-start) {
		size <<= 1
	}
	slab := make([]uint32, 2*size+end-start)
	s := seg{start: start, end: end, slots: slab[:2*size], next: slab[2*size:]}
rows:
	for ri := end - 1; ri >= start; ri-- {
		var h uint64
		for _, ci := range cols {
			switch v := &rows[ri][ci]; v.K {
			case types.KindInt:
				h = keyHash(h, v.I)
			case types.KindNull:
				// NULL keys never satisfy an equality conjunct (the
				// comparison is Unknown), so the row is simply not indexed.
				continue rows
			default:
				s.poisoned = true
				return s
			}
		}
		i := s.slot(h)
		s.next[ri-start] = s.slots[2*i+1]
		s.slots[2*i], s.slots[2*i+1] = uint32(h>>32), uint32(ri-start+1)
	}
	return s
}

// buildSortedSeg sorts rows [start, end) by one column's key.
func buildSortedSeg(rows [][]types.Value, col, start, end int) seg {
	s := seg{start: start, end: end, ents: make([]sortEnt, 0, end-start)}
	for ri := start; ri < end; ri++ {
		switch v := &rows[ri][col]; v.K {
		case types.KindInt:
			s.ents = append(s.ents, sortEnt{v.I, ri})
		case types.KindNull:
			// Range conjuncts on NULL are Unknown: the row cannot match.
		default:
			s.poisoned = true
			return s
		}
	}
	slices.SortFunc(s.ents, func(a, b sortEnt) int { return cmp.Compare(a.key, b.key) })
	return s
}

// keyMatch reports whether a row's key cells are INT and equal keys.
func keyMatch(row []types.Value, cols []int, keys []int64) bool {
	for j, ci := range cols {
		if v := &row[ci]; v.K != types.KindInt || v.I != keys[j] {
			return false
		}
	}
	return true
}

// lookup appends to out the positions among rows (the probing table's
// first n, as eqIndex returned it) whose key cells equal keys, in table
// order: segments cover ascending row ranges and each chain ascends, and
// the rows past the last segment ending at or below n are scanned. It
// allocates only when out has no room left.
func (ix *index) lookup(out []int, rows [][]types.Value, keys []int64) []int {
	var h uint64
	for _, k := range keys {
		h = keyHash(h, k)
	}
	scan := 0
	for i := range ix.segs {
		s := &ix.segs[i]
		if s.end > len(rows) {
			break
		}
		scan = s.end
		for o := s.slots[2*s.slot(h)+1]; o != 0; o = s.next[o-1] {
			if ri := s.start + int(o) - 1; keyMatch(rows[ri], ix.cols, keys) {
				out = append(out, ri)
			}
		}
	}
	for ri := scan; ri < len(rows); ri++ {
		if keyMatch(rows[ri], ix.cols, keys) {
			out = append(out, ri)
		}
	}
	return out
}

// span returns the range of a sorted segment's entries whose key lies
// in [lo, hi] (either bound optional).
func (s *seg) span(lo, hi int64, haveLo, haveHi bool) (int, int) {
	i, j := 0, len(s.ents)
	if haveLo {
		i = sort.Search(j, func(k int) bool { return s.ents[k].key >= lo })
	}
	if haveHi {
		j = sort.Search(j, func(k int) bool { return s.ents[k].key > hi })
	}
	return i, max(i, j)
}

// between appends to out the positions among rows (as for lookup) whose
// key lies in the inclusive range [lo, hi] (either bound optional),
// sorted into table order so index-backed execution emits rows exactly
// as a full scan would. It allocates only when out has no room for them.
func (ix *index) between(out []int, rows [][]types.Value, lo, hi int64, haveLo, haveHi bool) []int {
	size, scan := 0, 0
	for i := range ix.segs {
		if s := &ix.segs[i]; s.end <= len(rows) {
			a, b := s.span(lo, hi, haveLo, haveHi)
			size, scan = size+b-a, s.end
		}
	}
	out = slices.Grow(out, size+len(rows)-scan)
	from := len(out)
	for i := range ix.segs {
		if s := &ix.segs[i]; s.end <= len(rows) {
			a, b := s.span(lo, hi, haveLo, haveHi)
			for _, e := range s.ents[a:b] {
				out = append(out, e.pos)
			}
		}
	}
	for ri := scan; ri < len(rows); ri++ {
		v := &rows[ri][ix.col]
		if v.K != types.KindInt {
			continue // NULL: a range conjunct on NULL is Unknown
		}
		if (haveLo && v.I < lo) || (haveHi && v.I > hi) {
			continue
		}
		out = append(out, ri)
	}
	slices.Sort(out[from:])
	return out
}
