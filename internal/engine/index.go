package engine

import (
	"encoding/binary"
	"sort"
	"sync"

	"divsql/internal/sql/types"
)

// This file implements the lazily built lookup indexes behind the
// compiled-plan access paths (see compiled.go and internal/engine/plan).
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
// segment list appends a tail segment, so a session still holding the
// previous value (or a shorter read-view capture of the same table —
// captures of one table share an index-cache lineage, see
// Table.capIC) keeps a consistent view without any locking beyond the
// build itself. Appended segments merge tiered (a segment merges into
// its predecessor until the predecessor covers more than twice its
// rows), so the list stays logarithmic in the table size and every row
// takes part in O(log n) merges over the table's lifetime — the
// amortized maintenance bound that keeps a steady insert load linear.
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
// values are immutable, so the mutex guards only the cache map. The zero
// value is an empty cache: a cache is made per table per clone or
// capture, most are never probed, so each map is made by its first
// build.
type indexCache struct {
	mu     sync.Mutex
	hash   map[string]*hashIndex // colset key -> equality index
	sorted map[int]*sortedIndex  // column ordinal -> range index
}

// indexTailMax is the append-tail size below which probes scan the
// unindexed tail linearly instead of extending the published index.
// Extending on every probe would allocate a one-row segment (and its
// map) per insert; deferring until the tail reaches this many rows
// batches that maintenance while keeping the scan cost bounded.
const indexTailMax = 32

// hashIndex maps encoded key tuples to row positions for one column
// set, as an immutable list of row-range segments covering rows [0, n).
// Exact while the table's baseSeq equals base, every key column's
// colVer equals the recorded colVers entry, and the table holds at
// least n rows. A probe-local instance may additionally carry a small
// unindexed tail (rows [tailStart, n)), scanned linearly on lookup;
// published instances never do.
type hashIndex struct {
	base     uint64
	colVers  []uint64 // key columns' versions at build, parallel to the colset
	n        int
	poisoned bool
	segs     []*hashSeg

	tail      [][]types.Value
	tailStart int
	tailCols  []int
}

// hashSeg is one immutable row-range segment: rows [start, end) of the
// table at build time, keyed by encoded tuple, positions ascending.
type hashSeg struct {
	start, end int
	poisoned   bool
	m          map[string][]int
}

// sortedIndex holds one column's INT keys as an immutable list of
// per-row-range sorted runs. Coverage, validity and the probe-local
// tail as for hashIndex.
type sortedIndex struct {
	base     uint64
	colVer   uint64 // the key column's version at build
	n        int
	poisoned bool
	segs     []*sortedSeg

	tail      [][]types.Value
	tailStart int
	tailCol   int
}

// sortedSeg is one immutable sorted run over rows [start, end).
type sortedSeg struct {
	start, end int
	poisoned   bool
	keys       []int64
	pos        []int
}

// colsetKey encodes a column ordinal set as a map key.
func colsetKey(cols []int) string {
	b := make([]byte, 0, 2*len(cols))
	for _, c := range cols {
		b = binary.AppendVarint(b, int64(c))
	}
	return string(b)
}

// encodeIntKeys appends the fixed-width encoding of a key tuple.
func encodeIntKeys(dst []byte, keys []int64) []byte {
	for _, k := range keys {
		dst = binary.BigEndian.AppendUint64(dst, uint64(k))
	}
	return dst
}

// eqIndex returns the equality index over cols, building or extending
// it as needed; nil when a covered row poisons the column set. Callers
// hold the engine lock (either mode); the cache mutex serializes
// concurrent builders, so one session builds and the rest reuse.
func (ic *indexCache) eqIndex(t *Table, cols []int) *hashIndex {
	key := colsetKey(cols)
	base := t.baseSeq.Load()
	ic.mu.Lock()
	defer ic.mu.Unlock()
	ix := ic.hash[key]
	if ix != nil && ix.base == base && colVersMatch(t, cols, ix.colVers) {
		switch {
		case ix.n == len(t.Rows):
			// Exact coverage.
		case ix.n < len(t.Rows):
			// Rows were appended since the index was published. A small
			// tail is served by a probe-local instance that scans it
			// linearly — publishing would cost a segment allocation per
			// insert. Once the tail reaches indexTailMax (or holds a
			// poisoning value the linear scan cannot honor), extend for
			// real with a tail segment and merge tiered.
			if len(t.Rows)-ix.n < indexTailMax && intTail(t.Rows[ix.n:len(t.Rows)], cols) {
				ix = &hashIndex{
					base: base, colVers: ix.colVers, n: len(t.Rows), poisoned: ix.poisoned, segs: ix.segs,
					tail: t.Rows[ix.n:len(t.Rows):len(t.Rows)], tailStart: ix.n, tailCols: cols,
				}
				break
			}
			seg := buildHashSeg(t, cols, ix.n, len(t.Rows))
			segs := append(ix.segs[:len(ix.segs):len(ix.segs)], seg)
			for len(segs) >= 2 {
				a, b := segs[len(segs)-2], segs[len(segs)-1]
				if a.end-a.start > 2*(b.end-b.start) {
					break
				}
				segs = append(segs[:len(segs)-2:len(segs)-2], mergeHashSegs(a, b))
			}
			nix := &hashIndex{base: base, colVers: ix.colVers, n: len(t.Rows), segs: segs}
			nix.poisoned = ix.poisoned || seg.poisoned
			ic.hash[key] = nix
			ix = nix
		default:
			// The probing table is shorter than the published coverage
			// (an older capture sharing the lineage): serve the segment
			// prefix ending exactly at its row count, or a build of its
			// own when no boundary lands there — never republished: the
			// longer index stays current.
			if ix = hashPrefix(ix, base, len(t.Rows)); ix == nil {
				ix = buildHashIndex(t, cols, base)
			}
		}
	} else {
		ix = nil
	}
	if ix == nil {
		ix = buildHashIndex(t, cols, base)
		if ic.hash == nil {
			ic.hash = make(map[string]*hashIndex)
		}
		ic.hash[key] = ix
	}
	if ix.poisoned {
		return nil
	}
	return ix
}

// buildHashIndex indexes every row of the table in one segment.
func buildHashIndex(t *Table, cols []int, base uint64) *hashIndex {
	seg := buildHashSeg(t, cols, 0, len(t.Rows))
	return &hashIndex{
		base: base, colVers: colVersOf(t, cols), n: len(t.Rows),
		poisoned: seg.poisoned, segs: []*hashSeg{seg},
	}
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

// hashPrefix returns an index over the segment prefix covering exactly
// n rows, or nil when no segment boundary lands on n.
func hashPrefix(ix *hashIndex, base uint64, n int) *hashIndex {
	for i, seg := range ix.segs {
		if seg.end != n {
			continue
		}
		pre := &hashIndex{base: base, colVers: ix.colVers, n: n, segs: ix.segs[: i+1 : i+1]}
		for _, s := range pre.segs {
			pre.poisoned = pre.poisoned || s.poisoned
		}
		return pre
	}
	return nil
}

// mergeHashSegs combines two adjacent segments into a fresh one. Both
// inputs stay untouched (published prefix indexes may still hold them);
// a's positions precede b's, so appending keeps per-key table order.
func mergeHashSegs(a, b *hashSeg) *hashSeg {
	seg := &hashSeg{
		start:    a.start,
		end:      b.end,
		poisoned: a.poisoned || b.poisoned,
		m:        make(map[string][]int, len(a.m)+len(b.m)),
	}
	for k, ps := range a.m {
		seg.m[k] = ps[:len(ps):len(ps)]
	}
	for k, ps := range b.m {
		seg.m[k] = append(seg.m[k], ps...)
	}
	return seg
}

// buildHashSeg indexes rows [start, end) of the table.
func buildHashSeg(t *Table, cols []int, start, end int) *hashSeg {
	seg := &hashSeg{start: start, end: end, m: make(map[string][]int, end-start)}
	kb := make([]byte, 0, 8*len(cols))
build:
	for ri := start; ri < end; ri++ {
		row := t.Rows[ri]
		kb = kb[:0]
		for _, ci := range cols {
			v := row[ci]
			switch v.K {
			case types.KindInt:
				kb = binary.BigEndian.AppendUint64(kb, uint64(v.I))
			case types.KindNull:
				// NULL keys never satisfy an equality conjunct (the
				// comparison is Unknown), so the row is simply not indexed.
				continue build
			default:
				seg.poisoned = true
				break build
			}
		}
		seg.m[string(kb)] = append(seg.m[string(kb)], ri)
	}
	return seg
}

// rangeIndex returns the sorted index over one column, building or
// extending it as needed; nil when a covered row poisons the column.
// Locking as for eqIndex.
func (ic *indexCache) rangeIndex(t *Table, col int) *sortedIndex {
	ic.mu.Lock()
	defer ic.mu.Unlock()
	base := t.baseSeq.Load()
	ver := t.colVerOf(col)
	ix := ic.sorted[col]
	if ix != nil && ix.base == base && ix.colVer == ver {
		switch {
		case ix.n == len(t.Rows):
		case ix.n < len(t.Rows):
			// Small appended tails are served probe-locally, as in eqIndex.
			if len(t.Rows)-ix.n < indexTailMax && intTail(t.Rows[ix.n:len(t.Rows)], []int{col}) {
				ix = &sortedIndex{
					base: base, colVer: ver, n: len(t.Rows), poisoned: ix.poisoned, segs: ix.segs,
					tail: t.Rows[ix.n:len(t.Rows):len(t.Rows)], tailStart: ix.n, tailCol: col,
				}
				break
			}
			seg := buildSortedSeg(t, col, ix.n, len(t.Rows))
			segs := append(ix.segs[:len(ix.segs):len(ix.segs)], seg)
			for len(segs) >= 2 {
				a, b := segs[len(segs)-2], segs[len(segs)-1]
				if a.end-a.start > 2*(b.end-b.start) {
					break
				}
				segs = append(segs[:len(segs)-2:len(segs)-2], mergeSortedSegs(a, b))
			}
			nix := &sortedIndex{base: base, colVer: ver, n: len(t.Rows), segs: segs}
			nix.poisoned = ix.poisoned || seg.poisoned
			ic.sorted[col] = nix
			ix = nix
		default:
			// An older capture, as in eqIndex: never republished.
			if ix = sortedPrefix(ix, base, len(t.Rows)); ix == nil {
				ix = buildSortedIndex(t, col, base, ver)
			}
		}
	} else {
		ix = nil
	}
	if ix == nil {
		ix = buildSortedIndex(t, col, base, ver)
		if ic.sorted == nil {
			ic.sorted = make(map[int]*sortedIndex)
		}
		ic.sorted[col] = ix
	}
	if ix.poisoned {
		return nil
	}
	return ix
}

// buildSortedIndex indexes every row of the table in one sorted run.
func buildSortedIndex(t *Table, col int, base, ver uint64) *sortedIndex {
	seg := buildSortedSeg(t, col, 0, len(t.Rows))
	return &sortedIndex{base: base, colVer: ver, n: len(t.Rows), poisoned: seg.poisoned, segs: []*sortedSeg{seg}}
}

// sortedPrefix is hashPrefix for range indexes.
func sortedPrefix(ix *sortedIndex, base uint64, n int) *sortedIndex {
	for i, seg := range ix.segs {
		if seg.end != n {
			continue
		}
		pre := &sortedIndex{base: base, colVer: ix.colVer, n: n, segs: ix.segs[: i+1 : i+1]}
		for _, s := range pre.segs {
			pre.poisoned = pre.poisoned || s.poisoned
		}
		return pre
	}
	return nil
}

// buildSortedSeg builds one sorted run over rows [start, end).
func buildSortedSeg(t *Table, col, start, end int) *sortedSeg {
	seg := &sortedSeg{start: start, end: end}
	for ri := start; ri < end; ri++ {
		v := t.Rows[ri][col]
		switch v.K {
		case types.KindInt:
			seg.keys = append(seg.keys, v.I)
			seg.pos = append(seg.pos, ri)
		case types.KindNull:
			// Range conjuncts on NULL are Unknown: the row cannot match.
		default:
			seg.poisoned = true
			return seg
		}
	}
	if len(seg.keys) > 1 {
		ord := make([]int, len(seg.keys))
		for i := range ord {
			ord[i] = i
		}
		sort.Slice(ord, func(a, b int) bool { return seg.keys[ord[a]] < seg.keys[ord[b]] })
		keys := make([]int64, len(ord))
		pos := make([]int, len(ord))
		for i, o := range ord {
			keys[i] = seg.keys[o]
			pos[i] = seg.pos[o]
		}
		seg.keys, seg.pos = keys, pos
	}
	return seg
}

// mergeSortedSegs merges two adjacent sorted runs into one covering
// [a.start, b.end). Inputs are immutable (they may still be referenced
// by published indexes); the merged run gets fresh key/pos slices. A
// poisoned input poisons the result, whose key content is then moot
// because probes short-circuit on the poisoned flag.
func mergeSortedSegs(a, b *sortedSeg) *sortedSeg {
	seg := &sortedSeg{start: a.start, end: b.end, poisoned: a.poisoned || b.poisoned}
	if seg.poisoned {
		return seg
	}
	seg.keys = make([]int64, 0, len(a.keys)+len(b.keys))
	seg.pos = make([]int, 0, len(a.pos)+len(b.pos))
	i, j := 0, 0
	for i < len(a.keys) && j < len(b.keys) {
		if a.keys[i] <= b.keys[j] {
			seg.keys = append(seg.keys, a.keys[i])
			seg.pos = append(seg.pos, a.pos[i])
			i++
		} else {
			seg.keys = append(seg.keys, b.keys[j])
			seg.pos = append(seg.pos, b.pos[j])
			j++
		}
	}
	seg.keys = append(seg.keys, a.keys[i:]...)
	seg.pos = append(seg.pos, a.pos[i:]...)
	seg.keys = append(seg.keys, b.keys[j:]...)
	seg.pos = append(seg.pos, b.pos[j:]...)
	return seg
}

// lookup returns the row positions matching one encoded key tuple, in
// table order (segments cover ascending row ranges; positions ascend
// within each segment).
func (ix *hashIndex) lookup(keys []int64) []int {
	kb := encodeIntKeys(make([]byte, 0, 8*len(keys)), keys)
	k := string(kb)
	if len(ix.segs) == 1 && len(ix.tail) == 0 {
		return ix.segs[0].m[k]
	}
	var out []int
	for _, seg := range ix.segs {
		out = append(out, seg.m[k]...)
	}
	for i, row := range ix.tail {
		match := true
		for j, ci := range ix.tailCols {
			// intTail vetted the tail: values are INT or NULL, and NULL
			// never satisfies an equality conjunct.
			if v := row[ci]; v.K != types.KindInt || v.I != keys[j] {
				match = false
				break
			}
		}
		if match {
			out = append(out, ix.tailStart+i)
		}
	}
	return out
}

// between returns the row positions whose key lies in the inclusive
// range [lo, hi] (either bound optional), re-sorted into table order so
// index-backed execution emits rows exactly as a full scan would.
func (ix *sortedIndex) between(lo, hi int64, haveLo, haveHi bool) []int {
	var out []int
	for _, seg := range ix.segs {
		i := 0
		if haveLo {
			i = sort.Search(len(seg.keys), func(k int) bool { return seg.keys[k] >= lo })
		}
		j := len(seg.keys)
		if haveHi {
			j = sort.Search(len(seg.keys), func(k int) bool { return seg.keys[k] > hi })
		}
		if i < j {
			out = append(out, seg.pos[i:j]...)
		}
	}
	for i, row := range ix.tail {
		v := row[ix.tailCol]
		if v.K != types.KindInt {
			continue // NULL: a range conjunct on NULL is Unknown
		}
		if (haveLo && v.I < lo) || (haveHi && v.I > hi) {
			continue
		}
		out = append(out, ix.tailStart+i)
	}
	sort.Ints(out)
	return out
}
