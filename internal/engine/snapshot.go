package engine

import (
	"slices"

	"divsql/internal/sql/types"
)

// This file implements the copy-on-write consistent-snapshot subsystem.
//
// The engine's live state is READ UNCOMMITTED: writes become visible to
// every session the moment they execute, and a session's open
// transaction is represented only by its undo log. A state transfer that
// copied the live state verbatim could therefore ship uncommitted data —
// which is why resync historically had to wait for a global transaction
// boundary (every session idle), a boundary that may never come under
// sustained transactional load.
//
// Snapshot removes the wait. It produces a consistent image of the
// COMMITTED state at the instant of the call, with no quiescence, from
// the same two routines that build read views (readview.go):
//
//  1. committedCatalog copies the catalog maps and rewinds every open
//     transaction's catalog and sequence records on the copies.
//  2. One image per live table: a header clone (cloneHeader), with the
//     open transactions' row records rewound where a table has any
//     (committedTable). Row storage is shared — the row value slices, because rows are
//     immutable once written (UPDATE replaces the row slice, it never
//     mutates one in place), and the Rows array, which both sides treat
//     as shared (Table.rowsShared): the first in-place replacement on
//     either side copies it, and an append past the clone's clipped
//     capacity reallocates. The image is O(catalog), not O(row count).
//
// Undo records apply to an abstract *state (undoRec.apply), so the same
// records that implement ROLLBACK on the live plane peel the uncommitted
// changes off the clones. Records target tables by name and rows by
// slice identity; identities are preserved by the header clone, so the
// rewind lands exactly on the transaction's own changes.
//
// The result is immutable: nothing in the engine retains a reference to
// the image's headers but the live table the image was taken of (below),
// and the shared row storage is never written in place. So one State can
// be restored into any number of engines (and the donor keeps executing
// throughout).
//
// State transfer copies only what changed, both ways:
//
//   - Snapshot hands out a clean table's previous image again while
//     nothing has touched the table: the live Table keeps the image it
//     last took (at most one per table) with the table's mutation stamp
//     and the engine's schema stamp at that moment, and the image stays
//     valid while both stamps still match.
//   - Restore and RestoreScoped keep every in-scope object that already
//     equals the image's copy — a table's definition and rows, cell by
//     cell — with its header, latch, stamps and lookup indexes, and
//     clone headers only for the tables that differ. The schema stamp
//     moves only when an object is added, dropped or redefined; changed
//     rows or sequence values void the cached read view alone.

// State is an immutable, consistent image of an engine's committed
// state, produced by Snapshot and consumed by Restore/RestoreScoped.
type State struct {
	Tables map[string]*Table
	Views  map[string]*View
	Indexs map[string]*Index
	Seqs   map[string]*Sequence
	// CommitSeq is the donor's commit high-water mark at the instant the
	// snapshot was taken: every mutation committed up to (and none after)
	// this point is included. Redo shipped on top of the image anchors
	// here.
	CommitSeq uint64
}

// cloneHeader copies a table's mutable headers — the struct and the
// Uniques slice — while sharing the immutable storage: column
// definitions, check expressions, inner keyset slices, the row value
// slices and the Rows array itself. It is the only way a Table header
// is copied. The shared array is capacity-clipped, so an append on the
// clone reallocates, and the clone is marked rowsShared, so its first
// in-place row replacement copies first. The source must not write the
// array in place either: a live source is marked rowsShared by its
// caller, under its latch.
func (t *Table) cloneHeader() *Table {
	// Field-by-field: Table embeds a latch and an atomic mutation
	// counter, neither of which may be copied. The clone starts with a
	// fresh latch, mutSeq 0, no column versions and its own index cache
	// (two engines invalidating each other's indexes would be a race).
	n := len(t.Rows)
	return &Table{
		Name:       t.Name,
		Cols:       t.Cols,
		Rows:       t.Rows[:n:n],
		rowsShared: true,
		PKCols:     t.PKCols,
		Uniques:    append([][]int(nil), t.Uniques...),
		Checks:     t.Checks,
		reads:      t.reads,
		ic:         &indexCache{},
	}
}

// Snapshot returns a consistent image of the committed state at this
// instant: the committed catalog, and one committed image per live
// table. It never waits for transaction boundaries — open transactions
// are rewound on copy-on-write clones while the live state, including
// those transactions, keeps executing — and concurrent readers proceed
// throughout (Snapshot holds only the read lock). A table nothing has
// touched since the last Snapshot gets that Snapshot's image again.
//
// Snapshot builds no read view and takes no viewMu or viewTable lock:
// materialization takes a viewTable's lock before the table latch, so a
// Snapshot holding every latch must never wait for one.
func (e *Engine) Snapshot() *State {
	e.mu.RLock()
	defer e.mu.RUnlock()
	// Writers no longer hold the engine write lock: DML runs under the
	// read lock plus per-table latches, and COMMIT bumps the sequence
	// under commitMu. Acquiring every table latch plus commitMu (in the
	// standard latch-then-commitMu order) excludes both, so the stamp
	// matches the image exactly.
	// The schema facts list every table sorted: every latch holder
	// acquires in the same global order, so Snapshot can never form a
	// lock-order cycle with concurrent DML (or another Snapshot).
	names := e.facts().tables
	e.latchTables(names)
	defer e.unlatchTables(names)
	e.commitMu.Lock()
	defer e.commitMu.Unlock()
	cat, dirty := e.committedCatalog(true)
	for n, t := range cat.tables {
		switch {
		case t != e.st.tables[n]:
			// Re-installed by a catalog rewind: already a private image.
		case slices.Contains(dirty, n):
			cat.tables[n] = e.committedTable(t, nil)
		default:
			if ms := t.mutSeq.Load(); t.img == nil || t.imgStamp != [2]uint64{ms, e.schemaVersion} {
				t.img, t.imgStamp = t.cloneHeader(), [2]uint64{ms, e.schemaVersion}
				t.rowsShared = true
			}
			cat.tables[n] = t.img
		}
	}
	return &State{
		Tables:    cat.tables,
		Views:     cat.views,
		Indexs:    cat.indexs,
		Seqs:      cat.seqs,
		CommitSeq: e.commitSeq.Load(),
	}
}

// CommitSeq returns the engine's commit high-water mark.
func (e *Engine) CommitSeq() uint64 {
	return e.commitSeq.Load()
}

// Restore replaces the engine state with a snapshot: every object is
// restored, and transactions open on any session are discarded, not
// rolled back — their undo records refer to the replaced state. The
// snapshot stays immutable: headers are cloned on installation, so the
// same State can be restored into several engines (or twice into one).
func (e *Engine) Restore(st *State) {
	e.mu.Lock()
	defer e.mu.Unlock()
	schema, data := e.restoreLocked(st, func(string) bool { return true })
	// A discarded transaction's DDL moved the stamps, and its row
	// records are now committed rows a cached view may have rewound.
	for s := range e.sessions {
		s.txMu.Lock()
		schema, data = schema || s.didDDL, data || s.inTxn
		s.txMu.Unlock()
	}
	e.discardAllTxnsLocked()
	e.transferred(schema, data)
}

// RestoreScoped replaces only the engine objects selected by keep with
// the snapshot's objects selected by keep, leaving the rest of the
// engine — including other sessions' open transactions over it —
// untouched. This is the per-stream resync primitive: a differential
// stream working in its own table namespace can realign one server with
// the oracle without disturbing sibling streams' state or transactions.
//
// The caller is responsible for the scoped sessions' transaction state
// (e.g. aborting its own open transaction first): RestoreScoped discards
// nothing, and undo records of a transaction that touched replaced
// objects would rewind into the newly installed state.
func (e *Engine) RestoreScoped(st *State, keep func(name string) bool) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.transferred(e.restoreLocked(st, keep))
}

// restoreLocked is the body of Restore and RestoreScoped: it makes the
// selected objects the image's, keeping every live one that already
// equals its image. Views and indexes are immutable and shared;
// sequences advance in place and are copied; tables get cloneHeader.
// schema reports an object added, dropped or redefined, data a table's
// rows or a sequence's value replaced. Caller holds the exclusive lock.
func (e *Engine) restoreLocked(st *State, keep func(name string) bool) (schema, data bool) {
	s1, d1 := install(e.st.tables, st.Tables, keep, e.sameTable, (*Table).cloneHeader)
	s2, _ := install(e.st.views, st.Views, keep, sameView, shared)
	s3, _ := install(e.st.indexs, st.Indexs, keep, sameIndex, shared)
	s4, d4 := install(e.st.seqs, st.Seqs, keep, sameSeq, copySeq)
	return s1 || s2 || s3 || s4, d1 || d4
}

// transferred voids what a state transfer outdated: a changed catalog
// moves the schema stamp (and with it the plan memos, the schema facts
// and the cached read view), changed rows or sequence values the cached
// read view alone.
func (e *Engine) transferred(schema, data bool) {
	switch {
	case schema:
		e.bumpSchemaLocked()
	case data:
		e.viewGen.Add(1)
	}
}

// install makes the entries of live that keep selects those of img: a
// live entry same finds identical to its image stays, every other is
// replaced by clone(image) or dropped. same reports whether the two share
// a definition and whether they share contents. schema reports an entry
// added, dropped or redefined, data one whose contents alone differed.
func install[T any](live, img map[string]*T, keep func(string) bool, same func(cur, want *T) (def, data bool), clone func(*T) *T) (schema, data bool) {
	for n := range live {
		if _, ok := img[n]; !ok && keep(n) {
			delete(live, n)
			schema = true
		}
	}
	for n, want := range img {
		if !keep(n) {
			continue
		}
		if cur, ok := live[n]; !ok {
			schema = true
		} else if def, rows := same(cur, want); def && rows {
			continue
		} else {
			schema, data = schema || !def, true
		}
		live[n] = clone(want)
	}
	return schema, data
}

func shared[T any](x *T) *T { return x }

// sameTable compares a live table a to its image b: the definition
// (check expressions by identity, which is conservative), then the rows
// cell by cell with struct ==, which tells an INT 1 from a FLOAT 1.0. Two
// equal lengths of one shared Rows array are the same rows: a shared
// array is never written in place. Rows that compare equal cell by cell
// are adopted — a takes b's array, shared, so the next comparison is by
// identity — unless an open transaction holds undo records on the
// table, which target its rows by identity. Positions are unchanged, so
// the table's lookup indexes stay valid. Caller holds the exclusive
// lock.
func (e *Engine) sameTable(a, b *Table) (def, rows bool) {
	def = a.Name == b.Name && slices.Equal(a.Cols, b.Cols) && slices.Equal(a.PKCols, b.PKCols) &&
		slices.EqualFunc(a.Uniques, b.Uniques, slices.Equal[[]int]) &&
		slices.Equal(a.Checks, b.Checks) && slices.Equal(a.reads, b.reads)
	n := len(b.Rows)
	switch {
	case !def || len(a.Rows) != n:
		return def, false
	case n == 0 || &a.Rows[0] == &b.Rows[0]:
		return true, true
	case !slices.EqualFunc(a.Rows, b.Rows, slices.Equal[[]types.Value]):
		return true, false
	}
	if !e.undoTargets(a.Name) {
		a.Rows, a.rowsShared = b.Rows[:n:n], true
	}
	return true, true
}

// undoTargets reports whether an open transaction holds undo records on
// the table's rows.
func (e *Engine) undoTargets(table string) bool {
	for s := range e.sessions {
		s.txMu.Lock()
		held := slices.ContainsFunc(s.undo, func(r undoRec) bool { return r.kind == kindTable && r.table == table })
		s.txMu.Unlock()
		if held {
			return true
		}
	}
	return false
}

// sameView compares views by definition: the parsed select by identity.
func sameView(a, b *View) (bool, bool) {
	return a.Name == b.Name && a.Select == b.Select && slices.Equal(a.Columns, b.Columns) &&
		slices.Equal(a.reads, b.reads) && slices.Equal(a.funcs, b.funcs), true
}

func sameIndex(a, b *Index) (bool, bool) {
	return a.Name == b.Name && a.Table == b.Table && slices.Equal(a.Cols, b.Cols) &&
		a.Unique == b.Unique && a.Clustered == b.Clustered, true
}

func sameSeq(a, b *Sequence) (bool, bool) { return a.Name == b.Name, a.Next == b.Next }

func copySeq(sq *Sequence) *Sequence {
	cp := *sq
	return &cp
}

// Reset drops all state. Open transactions on every session are discarded.
func (e *Engine) Reset() {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.st = newState()
	e.discardAllTxnsLocked()
	e.bumpSchemaLocked()
}
