package engine

import (
	"strings"
	"sync"
	"sync/atomic"

	"divsql/internal/sql/types"
)

// This file is the session's statement memory. Every row and scratch
// buffer that cannot outlive the statement — join and cross-product
// outputs with their pairs, matched flags and hash tables, filtered row
// lists, the projections of nested selects (subqueries, derived tables,
// view bodies), grouping and sort scratch, builtin argument vectors,
// evaluation envs, an INSERT's VALUES and an UPDATE's replaced rows — is
// carved from the session's arena, which is reclaimed whole when the
// session's next statement starts (Session.Exec,
// Session.ExecSelectVariant). So is the statement's Result — its struct
// and its rows — which is why a result is valid only until the session's
// next statement (Result). An INSERT ... SELECT's source rows, and
// anything stored in a table, an undo record or a read view never come
// from it: those outlive the statement.

// arena is a session's statement-scoped slab pool, one slab per element
// type. A nil *arena allocates from the heap, so an operator that builds
// either a statement's result or an intermediate takes the arena its
// output belongs to.
type arena struct {
	vals slab[types.Value]
	rows slab[[]types.Value]
	ints slab[int]
	envs slab[env]
	// results holds the statement's Result. It is taken once, after every
	// evaluation of the statement, so no rewind reaches it.
	results slab[Result]
	// poison is what the last reset filled reclaimed memory with, and what
	// a rewind fills it with until the next, in poison mode.
	poison poisonFill
}

// A slab keeps, at reset, its largest chunk within these element counts
// and drops the rest: one large statement must not pin its high-water
// mark to the session. Each is at least the most one statement held at
// once on the bench workloads, its result included (hunt, seeds 1 and
// 3: 4 334 values, 1 740 row headers, 3 048 ints, 87 envs; TPC-C: 5 082
// values — its consistency check's scan of ORDERS — and 726 row
// headers; pointread: 16 or fewer of each; one result per statement),
// so the kept chunk can serve any of their statements.
const (
	keepVals = 8192 // 256 KiB
	keepRows = 4096
	keepInts = 8192
	keepEnvs = 256
	// keepResults keeps the first chunk: a statement takes one Result.
	keepResults = minChunk
	// minChunk is the first chunk's size; each further chunk of one
	// statement doubles the last.
	minChunk = 64
)

// poisonReclaimed makes reset fill reclaimed values, row headers and
// results with a poison fill (nil for row headers) instead of zeroing
// them, and keeps what a statement used out of the next statement's
// reach, so a row or result kept past its statement reads garbage that
// fails loudly, never the next statement's data. Test-only
// (PoisonReclaimed).
var poisonReclaimed atomic.Bool

// poisonText begins every sentinel a reclaimed value or column name
// reads; the number of the reset that filled it, modulo 4 096, follows
// in three hex digits.
const poisonText = "\x00reclaimed by the statement arena\x00"

// poisonFill is what one reset fills reclaimed memory with in poison
// mode: a value reading its sentinel, and a result with no kind, a
// negative count, and one row and column of it. Each reset has its own,
// so what two statements left behind never reads equal: two kept
// results compared with each other disagree instead of agreeing on one
// shared sentinel.
type poisonFill struct {
	val types.Value
	res Result
}

// poisonResets numbers the resets of every session's arenas in poison
// mode; reset n fills with poisonRing()[n % poisonRingLen]. The ring is
// built once, on first use, so a reset allocates nothing: a kept result
// only reads equal to one kept a multiple of 4 096 resets apart.
var poisonResets atomic.Uint64

const poisonRingLen = 4096

var poisonRing = sync.OnceValue(func() []poisonFill {
	w := len(poisonText) + 3
	var b strings.Builder
	b.Grow(poisonRingLen * w)
	for i := range poisonRingLen {
		b.WriteString(poisonText)
		for shift := 8; shift >= 0; shift -= 4 {
			b.WriteByte("0123456789abcdef"[i>>shift&15])
		}
	}
	text := b.String()
	vals := make([]types.Value, poisonRingLen)
	rows := make([][]types.Value, poisonRingLen)
	cols := make([]string, poisonRingLen)
	ring := make([]poisonFill, poisonRingLen)
	for i := range ring {
		cols[i] = text[i*w : (i+1)*w]
		vals[i] = types.NewString(cols[i])
		rows[i] = vals[i : i+1 : i+1]
		ring[i] = poisonFill{vals[i], Result{Columns: cols[i : i+1 : i+1], Rows: rows[i : i+1 : i+1], Affected: -1}}
	}
	return ring
})

// PoisonReclaimed arms or disarms poison mode for every session's
// arena. Test-only: the test binaries of every package that executes
// SQL arm it in an init.
func PoisonReclaimed(on bool) { poisonReclaimed.Store(on) }

// mark is a point in an arena's allocation order: rewind reclaims what
// was taken after it.
type mark struct{ vals, rows, ints, envs slabMark }

// slabMark is a slab's position: its retired chunk count and how much
// of the chunk it was carving had been handed out.
type slabMark struct{ done, n int }

func (a *arena) mark() mark {
	return mark{a.vals.mark(), a.rows.mark(), a.ints.mark(), a.envs.mark()}
}

// rewind reclaims everything the arena handed out since m, which must
// be a mark of this statement that no later rewind has passed. Every
// evaluation whose arena memory dies with it — a nested select run per
// row, a builtin's argument vector — rewinds to a mark taken before it
// once its answer is read, so the statement holds one such run at a
// time, not one per row.
func (a *arena) rewind(m mark) {
	poison := poisonReclaimed.Load()
	a.vals.rewind(m.vals, a.poison.val, poison)
	a.rows.rewind(m.rows, nil, poison)
	a.ints.rewind(m.ints, 0, false)
	a.envs.rewind(m.envs, env{}, false)
}

// reset reclaims everything the arena handed out since the last reset.
func (a *arena) reset() {
	poison := poisonReclaimed.Load()
	if poison {
		a.poison = poisonRing()[poisonResets.Add(1)%poisonRingLen]
	}
	a.vals.reset(a.poison.val, poison, keepVals)
	a.rows.reset(nil, poison, keepRows)
	a.ints.reset(0, false, keepInts)
	a.envs.reset(env{}, false, keepEnvs)
	a.results.reset(a.poison.res, poison, keepResults)
}

// slab hands out slices carved from chunks of T. The chunk being carved
// is buf (buf[:len] is handed out); chunks filled earlier in the
// statement wait in done.
type slab[T any] struct {
	buf  []T
	done [][]T
	// spare is an emptied chunk a rewind took back: take carves from it
	// once buf is full, before it makes a new chunk.
	spare []T
	// aside, in poison mode, is the chunk the previous statement kept: it
	// sits out one statement, so what was read from it past its
	// statement reads the poison, not the next statement's data.
	aside []T
	// dirty marks a slab that poison mode has filled since it last held
	// only zeroes past what it handed out: what take hands out is
	// cleared first.
	dirty bool
}

// take returns n zeroed elements, capacity-clipped so that appending to
// them never reaches the next.
func (p *slab[T]) take(n int) []T {
	if cap(p.buf)-len(p.buf) < n {
		if p.buf != nil {
			p.done = append(p.done, p.buf)
		}
		if cap(p.spare) >= n {
			p.buf, p.spare = p.spare, nil
		} else {
			p.buf = make([]T, 0, max(n, 2*cap(p.buf), minChunk))
		}
	}
	i := len(p.buf)
	p.buf = p.buf[:i+n]
	out := p.buf[i : i+n : i+n]
	if p.dirty {
		clear(out)
	}
	return out
}

func (p *slab[T]) mark() slabMark { return slabMark{len(p.done), len(p.buf)} }

// room returns the unused rest of the chunk being carved, empty, with
// room for at least n: an append of unknown length writes into it, and
// claim hands out what the append kept there. Nothing may be taken from
// the slab between the two.
func (p *slab[T]) room(n int) []T {
	p.take(n)
	i := len(p.buf) - n
	p.buf = p.buf[:i]
	return p.buf[i:i:cap(p.buf)]
}

// claim hands out out, an append into what room returned, when the
// append stayed in the chunk (it moved to the heap when it outgrew it).
func (p *slab[T]) claim(room, out []T) {
	if len(out) > 0 && cap(out) == cap(room) {
		p.buf = p.buf[:len(p.buf)+len(out)]
	}
}

// rewind reclaims what the slab handed out since m. When chunks were
// retired since, the chunk m was set in is carved again from m, the ones
// after it are dropped, and the largest of those is kept emptied as the
// spare: a run repeated per row reuses it once the chunk of the mark
// fills, instead of growing anew, and what the statement keeps between
// runs (a list growing per row) fills the chunk of the mark first.
func (p *slab[T]) rewind(m slabMark, fill T, poison bool) {
	if len(p.done) == m.done {
		p.reclaim(p.buf[m.n:], fill, poison)
		p.buf = p.buf[:m.n]
		return
	}
	at := p.done[m.done]
	p.reclaim(at[m.n:], fill, poison)
	p.done = append(p.done, p.buf)
	for _, c := range p.done[m.done+1:] {
		p.reclaim(c, fill, poison)
		if cap(c) > cap(p.spare) {
			p.spare = c[:0]
		}
	}
	clear(p.done[m.done:])
	p.done = p.done[:m.done]
	p.buf = at[:m.n]
}

// reclaim zeroes c, or in poison mode fills it with fill and marks the
// slab dirty, so what take hands out from it again is cleared first.
func (p *slab[T]) reclaim(c []T, fill T, poison bool) {
	if poison {
		fillAll(c, fill)
		p.dirty = true
		return
	}
	clear(c)
}

// reset reclaims what the slab handed out: each element is zeroed, or
// set to fill in poison mode. The largest chunk no larger than keep
// elements is kept for the next statement and the rest are dropped: a
// statement that outgrew the cap leaves the next one a chunk near it
// to grow from, not minChunk.
func (p *slab[T]) reset(fill T, poison bool, keep int) {
	if p.buf != nil {
		p.done = append(p.done, p.buf)
	}
	if p.spare != nil {
		p.done, p.spare = append(p.done, p.spare), nil
	}
	var kept []T
	for _, c := range p.done {
		if poison {
			fillAll(c, fill)
		}
		if cap(c) <= keep && cap(c) > cap(kept) {
			kept = c
		}
	}
	clear(p.done)
	p.done = p.done[:0]
	switch {
	case poison:
		// What this statement used sits out the next one; the chunk set
		// aside a statement ago, filled then, is carved instead.
		kept, p.aside = p.aside, kept
	case p.aside != nil:
		// Poison mode was switched off.
		if cap(p.aside) <= keep && cap(p.aside) > cap(kept) {
			kept = p.aside
		}
		p.aside = nil
	}
	switch {
	case kept == nil:
		p.buf, p.dirty = nil, false
	case poison:
		p.buf, p.dirty = kept[:0], true
	case p.dirty:
		// Poison from an earlier statement may lie past what this one used.
		clear(kept[:cap(kept)])
		p.buf, p.dirty = kept[:0], false
	default:
		clear(kept)
		p.buf = kept[:0]
	}
}

func fillAll[T any](c []T, v T) {
	for i := range c {
		c[i] = v
	}
}

// grow returns buf with room for n more elements: buf itself when it has
// it, else a copy in a chunk twice as large.
func grow[T any](p *slab[T], buf []T, n int) []T {
	if cap(buf)-len(buf) >= n {
		return buf
	}
	out := p.take(max(2*cap(buf), len(buf)+n, 8))[:len(buf)]
	copy(out, buf)
	return out
}

// values returns n zeroed values: scratch rows, argument vectors, keys.
func (a *arena) values(n int) []types.Value {
	if a == nil {
		return make([]types.Value, n)
	}
	return a.vals.take(n)
}

// env returns an empty env enclosed by outer. The evaluator's envs
// outlive no statement, but escape analysis cannot tell (eval recurses
// through nested selects), so they come from the arena, not the heap.
func (a *arena) env(outer *env) *env {
	en := &a.envs.take(1)[0]
	en.outer = outer
	return en
}

// result returns r carved from the arena.
func (a *arena) result(r Result) *Result {
	res := &a.results.take(1)[0]
	*res = r
	return res
}

// list returns an empty row list with room for n rows.
func (a *arena) list(n int) [][]types.Value {
	if a == nil {
		return make([][]types.Value, 0, n)
	}
	return a.rows.take(n)[:0]
}

// appendRow appends one row to a list the arena (or, nil, the heap)
// holds.
func (a *arena) appendRow(rows [][]types.Value, row ...[]types.Value) [][]types.Value {
	if a == nil {
		return append(rows, row...)
	}
	return append(grow(&a.rows, rows, len(row)), row...)
}

// table returns n zeroed rows of width w carved from one slab of values.
// Each row is capacity-clipped: stripping hidden sort keys from one or
// appending to it never reaches the next.
func (a *arena) table(n, w int) [][]types.Value {
	var rows [][]types.Value
	var slab []types.Value
	if a == nil {
		rows, slab = make([][]types.Value, n), make([]types.Value, n*w)
	} else {
		rows, slab = a.rows.take(n), a.vals.take(n*w)
	}
	for i := range rows {
		rows[i] = slab[i*w : (i+1)*w : (i+1)*w]
	}
	return rows
}
