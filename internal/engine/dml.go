package engine

import (
	"fmt"
	"slices"

	"divsql/internal/sql/ast"
	"divsql/internal/sql/types"
)

func (e *Session) execInsert(ins *ast.Insert) (*Result, error) {
	t, ok := e.eng.st.tables[up(ins.Table)]
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrTableNotFound, ins.Table)
	}
	targets, err := e.insertTargets(t, ins.Columns)
	if err != nil {
		return nil, err
	}
	checks, err := e.lowerChecks(t)
	if err != nil {
		return nil, err
	}
	var db [8]colDefault
	defs, err := e.lowerDefaults(db[:0], t, targets)
	if err != nil {
		return nil, err
	}

	// Every source row is evaluated before any row is built, so an
	// evaluation error anywhere precedes a count or constraint error. A
	// VALUES list, which reads no row, is lowered whole, then evaluated
	// into the statement's arena, its rows back to back; only the stored
	// rows are allocated.
	var selRows [][]types.Value
	var vals []types.Value
	n := len(ins.Rows)
	if ins.Select != nil {
		_, rows, err := e.runUnowned(ins.Select)
		if err != nil {
			return nil, err
		}
		selRows, n = rows, len(rows)
	} else {
		xs := e.insVals[:0]
		for _, exprRow := range ins.Rows {
			for _, ex := range exprRow {
				x, err := e.lowerAlone(ex, nil)
				if err != nil {
					return nil, err
				}
				xs = append(xs, x)
			}
		}
		vals = e.mem.values(len(xs))
		for i, x := range xs {
			if vals[i], err = e.eval(x, nil); err != nil {
				return nil, err
			}
		}
		clear(xs)
		e.insVals = xs[:0]
	}
	width := len(targets)
	if targets == nil {
		width = len(t.Cols)
	}

	inserted := 0
	// Statement atomicity: a failure on any row unwinds the rows this
	// statement already appended. Without this, a mid-statement error
	// would leave rows that no undo record covers — ROLLBACK would keep
	// them and Snapshot's committed-image rewind would leak them.
	undoPartial := func() {
		if inserted > 0 {
			t.removeRowsByIdentity(t.Rows[len(t.Rows)-inserted:])
		}
	}
	off := 0
	for i := 0; i < n; i++ {
		var src []types.Value
		if ins.Select != nil {
			src = selRows[i]
		} else {
			src = vals[off : off+len(ins.Rows[i])]
			off += len(src)
		}
		if len(src) != width {
			undoPartial()
			return nil, fmt.Errorf("INSERT has %d values for %d columns", len(src), width)
		}
		row, err := e.buildRow(t, targets, defs, src)
		if err != nil {
			undoPartial()
			return nil, err
		}
		if err := e.checkConstraints(t, row, -1, checks); err != nil {
			undoPartial()
			return nil, err
		}
		t.Rows = append(t.Rows, row)
		inserted++
	}
	if inserted > 0 {
		// Undo by row identity, not by position: other sessions'
		// statements may land between this insert and a rollback, so
		// truncating the tail could remove their rows instead of ours.
		// The record is logged before the mutation stamp moves (see
		// buildView).
		if e.inTxn {
			rec := undoRec{kind: kindTable, op: opInsert, table: t.Name}
			if added := t.Rows[len(t.Rows)-inserted:]; inserted == 1 {
				rec.row = added[0]
			} else {
				rec.rows = slices.Clone(added)
			}
			e.logUndoRec(rec)
		}
		t.touch()
	}
	return e.mem.result(Result{Kind: ResultCount, Affected: int64(inserted)}), nil
}

// removeRowsByIdentity deletes the given row slices from the table,
// matching by slice identity rather than value, so a rollback removes
// exactly the transaction's own rows even when statements from other
// sessions interleaved after the insert. rows may alias the table's
// tail.
func (t *Table) removeRowsByIdentity(rows [][]types.Value) {
	var drop map[*types.Value]bool
	if len(rows) > 1 {
		drop = make(map[*types.Value]bool, len(rows))
		for _, r := range rows {
			if len(r) > 0 {
				drop[&r[0]] = true
			}
		}
	}
	// Rebuild into a fresh backing array: read views capture the live
	// Rows slice header, so surviving rows must never shift in place
	// beneath a published capture.
	kept := make([][]types.Value, 0, len(t.Rows))
	for _, r := range t.Rows {
		if drop == nil && len(rows) == 1 && sameRow(r, rows[0]) || len(r) > 0 && drop[&r[0]] {
			continue
		}
		kept = append(kept, r)
	}
	t.Rows = kept
	t.rowsShared = false
	t.touchBase()
}

// sameRow reports whether two rows are the same storage slice.
func sameRow(a, b []types.Value) bool {
	return len(a) > 0 && len(b) > 0 && &a[0] == &b[0]
}

// insertTargets maps the INSERT column list to column indexes, into the
// session's scratch; nil stands for all columns in order (an empty
// list).
func (e *Session) insertTargets(t *Table, cols []string) ([]int, error) {
	if len(cols) == 0 {
		return nil, nil
	}
	idx := e.insCols[:0]
	for _, c := range cols {
		i := t.colIndex(c)
		if i < 0 {
			return nil, fmt.Errorf("unknown column %s in table %s", c, t.Name)
		}
		if slices.Contains(idx, i) {
			return nil, fmt.Errorf("column %s specified twice", c)
		}
		idx = append(idx, i)
	}
	e.insCols = idx
	return idx, nil
}

// colDefault is the lowered DEFAULT of a column an INSERT leaves out.
type colDefault struct {
	col int
	x   rexpr
}

// lowerDefaults appends to defs, once per INSERT, the lowered DEFAULT
// of every column its column list leaves out (none when targets is nil:
// every column is listed).
func (e *Session) lowerDefaults(defs []colDefault, t *Table, targets []int) ([]colDefault, error) {
	for ci, col := range t.Cols {
		if col.Default == nil || targets == nil || slices.Contains(targets, ci) {
			continue
		}
		x, err := e.lowerAlone(col.Default, nil)
		if err != nil {
			return nil, err
		}
		defs = append(defs, colDefault{col: ci, x: x})
	}
	return defs, nil
}

// buildRow produces a full storage row from target column values
// (targets nil: src holds every column in order) and the lowered
// DEFAULTs of the columns left out (NULL without one), applying
// coercion and NOT NULL checks. The row is the only allocation.
func (e *Session) buildRow(t *Table, targets []int, defs []colDefault, src []types.Value) ([]types.Value, error) {
	row := make([]types.Value, len(t.Cols))
	for i, v := range src {
		ci := i
		if targets != nil {
			ci = targets[i]
		}
		v, err := coerce(v, t.Cols[ci].Kind)
		if err != nil {
			return nil, fmt.Errorf("column %s: %w", t.Cols[ci].Name, err)
		}
		row[ci] = v
	}
	for _, d := range defs {
		col := t.Cols[d.col]
		dv, err := e.eval(d.x, nil)
		if err != nil {
			return nil, err
		}
		if col.RawDefault {
			// Quirk path (bug 217042(3)): the invalid default was
			// accepted at CREATE TABLE and is applied verbatim,
			// bypassing coercion — an ill-typed value lands in the row.
			row[d.col] = dv
			continue
		}
		cv, err := coerce(dv, col.Kind)
		if err != nil {
			return nil, fmt.Errorf("default for column %s: %w", col.Name, err)
		}
		row[d.col] = cv
	}
	for ci, col := range t.Cols {
		if col.NotNull && row[ci].IsNull() {
			return nil, fmt.Errorf("%w: column %s is NOT NULL", ErrConstraint, col.Name)
		}
	}
	return row, nil
}

// lowerAlone lowers an expression no plan owns — an INSERT value, a
// DEFAULT, a CHECK — in scope sc, or returns its static error: a node
// that did not lower is never evaluated.
func (e *Session) lowerAlone(x ast.Expr, sc *scope) (rexpr, error) {
	l := lowering{s: e}
	rx := l.lower(x, sc, false)
	return rx, l.err
}

// lowerChecks lowers a table's CHECK constraints, in the table's scope,
// once for the statement that creates the table or checks rows.
func (e *Session) lowerChecks(t *Table) ([]rexpr, error) {
	if len(t.Checks) == 0 {
		return nil, nil
	}
	l := lowering{s: e}
	checks := l.lowerAll(t.Checks, &scope{cols: tableScopeCols(nil, t.Name, t)})
	return checks, l.err
}

// checkConstraints verifies PK/UNIQUE and the lowered CHECKs for a
// candidate row. skipIdx excludes one row position (the row being
// updated), -1 for inserts.
func (e *Session) checkConstraints(t *Table, row []types.Value, skipIdx int, checks []rexpr) error {
	// The primary key (k = -1), then each unique keyset.
	for k := -1; k < len(t.Uniques); k++ {
		key := t.PKCols
		if k >= 0 {
			key = t.Uniques[k]
		}
		if len(key) == 0 {
			continue
		}
		// An UPDATE that leaves this key as it was cannot create a
		// duplicate: the old row's key was unique, and a row this same
		// statement rewrote INTO that key earlier was itself checked
		// against the old row and refused. Only a key that moves is
		// scanned for.
		if skipIdx >= 0 && sameKey(t.Rows[skipIdx], row, key) {
			continue
		}
		allSet := true
		allInt := true
		for _, ci := range key {
			switch row[ci].K {
			case types.KindNull:
				allSet = false
			case types.KindInt:
			default:
				allInt = false
			}
		}
		if !allSet {
			continue // NULLs never collide under UNIQUE
		}
		// Fast path, inserts only: when the candidate key is all-INT,
		// probe the lazily maintained equality index instead of
		// scanning. The index extends incrementally over appended rows
		// (index.go), so a run of inserts pays O(1) amortized per
		// duplicate check instead of O(table) — the difference between
		// linear and quadratic load cost on append-heavy tables. A
		// poisoned index (non-INT value in a key column somewhere in
		// the table) falls back to the scan, as does a non-INT
		// candidate. Updates always scan: mid-statement the index is
		// stale (rows already replaced in place are invalidated only at
		// statement end), so a probe could see replaced key values.
		if allInt && skipIdx == -1 {
			if ix, n := t.ic.eqIndex(t, key); ix != nil {
				var kb [8]int64
				var pb [16]int
				keys := kb[:0]
				for _, ci := range key {
					keys = append(keys, row[ci].I)
				}
				if len(ix.lookup(pb[:0], t.Rows[:n], keys)) > 0 {
					return fmt.Errorf("%w: duplicate key in table %s", ErrConstraint, t.Name)
				}
				continue
			}
		}
		for ri, existing := range t.Rows {
			if ri != skipIdx && sameKey(existing, row, key) {
				return fmt.Errorf("%w: duplicate key in table %s", ErrConstraint, t.Name)
			}
		}
	}
	if len(checks) == 0 {
		return nil
	}
	en := e.mem.env(nil)
	en.row = row
	for _, chk := range checks {
		v, err := e.eval(chk, en)
		if err != nil {
			return err
		}
		if types.TruthOf(v) == types.False {
			return fmt.Errorf("%w: CHECK failed on table %s", ErrConstraint, t.Name)
		}
	}
	return nil
}

// sameKey reports whether two rows carry identical values in the key
// columns.
func sameKey(a, b []types.Value, key []int) bool {
	for _, ci := range key {
		if !types.Identical(a[ci], b[ci]) {
			return false
		}
	}
	return true
}

// findDuplicate returns the index of a row that collides with another on
// the given key columns, or -1. Rows are keyed by their key cells'
// injective encoding (types.AppendRowKey), so no cell content can forge
// a collision between distinct rows.
func (t *Table) findDuplicate(key []int) int {
	seen := make(map[string]struct{}, len(t.Rows))
	cells := make([]types.Value, len(key))
	var kb []byte
rows:
	for ri, row := range t.Rows {
		for i, ci := range key {
			if row[ci].IsNull() {
				continue rows
			}
			cells[i] = row[ci]
		}
		kb = types.AppendRowKey(kb[:0], cells)
		if _, dup := seen[string(kb)]; dup {
			return ri
		}
		seen[string(kb)] = struct{}{}
	}
	return -1
}

func (e *Session) execUpdate(upd *ast.Update, shape ast.Statement) (*Result, error) {
	t, ok := e.eng.st.tables[up(upd.Table)]
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrTableNotFound, upd.Table)
	}
	dp, err := e.planDML(shape, upd, t, upd.Where, upd.Sets)
	if err != nil {
		return nil, err
	}
	setIdx := dp.cols
	checks, err := e.lowerChecks(t)
	if err != nil {
		return nil, err
	}
	var affected int64
	// changes are the rows replaced, as (old, new) pairs flattened.
	changes := e.mem.list(0)
	// Statement atomicity: a failure on any row swaps back the rows this
	// statement already replaced (see execInsert for why partial effects
	// must not survive an error).
	undoPartial := func() {
		for i := len(changes) - 2; i >= 0; i -= 2 {
			for ri, r := range t.Rows {
				if sameRow(r, changes[i+1]) {
					t.Rows[ri] = changes[i]
					break
				}
			}
		}
		if len(changes) > 0 {
			t.bumpCols(setIdx)
		}
	}
	// One env reused across the scan, its row swapped per row.
	en := e.mem.env(nil)
	// updateRow applies the statement to one row position; the caller
	// runs undoPartial on error.
	updateRow := func(ri int, row []types.Value) error {
		en.row = row
		if dp.where != nil {
			v, err := e.eval(dp.where, en)
			if err != nil {
				return err
			}
			if types.TruthOf(v) != types.True {
				return nil
			}
		}
		newRow := append([]types.Value(nil), row...)
		for i, x := range dp.sets {
			v, err := e.eval(x, en)
			if err != nil {
				return err
			}
			cv, err := coerce(v, t.Cols[setIdx[i]].Kind)
			if err != nil {
				return fmt.Errorf("column %s: %w", t.Cols[setIdx[i]].Name, err)
			}
			if t.Cols[setIdx[i]].NotNull && cv.IsNull() {
				return fmt.Errorf("%w: column %s is NOT NULL", ErrConstraint, t.Cols[setIdx[i]].Name)
			}
			newRow[setIdx[i]] = cv
		}
		if err := e.checkConstraints(t, newRow, ri, checks); err != nil {
			return err
		}
		if len(changes) == 0 && t.rowsShared {
			// Copy-on-write: while a read view holds a capture of the
			// current Rows header, the first replacement installs a fresh
			// backing array so the capture keeps a stable committed
			// image. Unshared tables are written in place — the copy is
			// O(table), which would otherwise tax every UPDATE.
			t.Rows = append([][]types.Value(nil), t.Rows...)
			t.rowsShared = false
		}
		changes = e.mem.appendRow(changes, row, newRow)
		t.Rows[ri] = newRow
		// Per-replacement version bump: only the SET columns' indexes
		// invalidate (positions never move), and a subquery evaluated for
		// a later row of this same statement sees the replacement.
		t.bumpCols(setIdx)
		affected++
		return nil
	}
	// Candidate narrowing — by the rules, and behind the gates, of a
	// SELECT's row visit — makes point UPDATEs O(matched), not O(table):
	// positions are computed from the pre-statement index (in-place
	// replacements never move a position), each visited at most once
	// with its pre-statement row image — exactly the rows and values the
	// full scan would have visited and found WHERE-true.
	cands, narrowed := e.candidateRows(dp.p, t)
	n := len(t.Rows)
	if narrowed {
		n = len(cands)
	}
	for i := 0; i < n; i++ {
		ri := i
		if narrowed {
			ri = cands[i]
		}
		if err := updateRow(ri, t.Rows[ri]); err != nil {
			undoPartial()
			return nil, err
		}
	}
	if len(changes) > 0 && e.inTxn {
		// Undo by row identity (unreplaceRows): the replacement is found
		// wherever it now sits and the original swapped back. The record
		// is logged before the statement's last stamp move (see
		// buildView).
		rec := undoRec{kind: kindTable, op: opUpdate, table: t.Name, cols: setIdx}
		if len(changes) == 2 {
			rec.old, rec.row = changes[0], changes[1]
		} else {
			rec.rows = slices.Clone(changes)
		}
		e.logUndoRec(rec)
		t.touch()
	}
	return e.mem.result(Result{Kind: ResultCount, Affected: affected}), nil
}

// unreplaceRows is an UPDATE's undo: for each (old, new) pair of the
// flattened pairs, last first, it finds the replacement row by identity
// wherever it now sits and swaps the original back. Positional restore
// would panic or clobber other sessions' rows if the table shifted
// between the update and the rollback; identity restore is a no-op for
// a row another session deleted meanwhile. cols are the SET ordinals.
func (t *Table) unreplaceRows(pairs [][]types.Value, cols []int) {
	// Copy-on-write for the same reason as the forward path: the swaps
	// below must not reach into a captured row image.
	if t.rowsShared {
		t.Rows = append([][]types.Value(nil), t.Rows...)
		t.rowsShared = false
	}
	if len(pairs) == 2 {
		for ri, r := range t.Rows {
			if sameRow(r, pairs[1]) {
				t.Rows[ri] = pairs[0]
				break
			}
		}
	} else {
		// One position map keeps a many-row rewind linear in the table.
		pos := make(map[*types.Value]int, len(t.Rows))
		for ri, r := range t.Rows {
			if len(r) > 0 {
				pos[&r[0]] = ri
			}
		}
		for i := len(pairs) - 2; i >= 0; i -= 2 {
			if nw := pairs[i+1]; len(nw) > 0 {
				if ri, ok := pos[&nw[0]]; ok {
					t.Rows[ri] = pairs[i]
				}
			}
		}
	}
	t.bumpCols(cols)
}

func (e *Session) execDelete(del *ast.Delete, shape ast.Statement) (*Result, error) {
	t, ok := e.eng.st.tables[up(del.Table)]
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrTableNotFound, del.Table)
	}
	dp, err := e.planDML(shape, del, t, del.Where, nil)
	if err != nil {
		return nil, err
	}
	// The positions WHERE is true on, in table order: among the
	// candidates an index names — rows outside them provably fail an
	// equality conjunct — or among all. None leaves the table untouched.
	cands, narrowed := e.candidateRows(dp.p, t)
	n := len(t.Rows)
	if narrowed {
		n = len(cands)
	}
	var gone []int
	en := e.mem.env(nil)
	for i := 0; i < n; i++ {
		ri := i
		if narrowed {
			ri = cands[i]
		}
		if dp.where != nil {
			en.row = t.Rows[ri]
			v, err := e.eval(dp.where, en)
			if err != nil {
				return nil, err
			}
			if types.TruthOf(v) != types.True {
				continue
			}
		}
		gone = append(grow(&e.mem.ints, gone, 1), ri)
	}
	if len(gone) == 0 {
		return e.mem.result(Result{Kind: ResultCount}), nil
	}
	oldRows := t.Rows
	kept := make([][]types.Value, 0, len(t.Rows)-len(gone))
	removed := make([][]types.Value, 0, len(gone))
	for ri, row := range t.Rows {
		if len(removed) < len(gone) && gone[len(removed)] == ri {
			removed = append(removed, row)
		} else {
			kept = append(kept, row)
		}
	}
	t.Rows = kept
	// Inside a transaction the undo record holds kept too, to tell
	// whether the table is untouched when it runs: the array stays
	// shared, so another session's in-place replacement copies first
	// instead of writing into it (which would make the record restore
	// the pre-delete rows over that session's committed change).
	t.rowsShared = e.inTxn
	if e.inTxn {
		e.logUndoRec(undoRec{kind: kindTable, op: opDelete, table: t.Name, rows: removed, pre: oldRows, post: kept})
	}
	t.touchBase()
	return e.mem.result(Result{Kind: ResultCount, Affected: int64(len(gone))}), nil
}

// undelete is a DELETE's undo. When the table is untouched since the
// delete (every row of post still in place), it restores the original
// row list, pre — exact order and all. Otherwise other sessions'
// statements interleaved: it re-appends the removed rows instead, so a
// stale row list cannot erase their committed changes. A snapshot clone
// gets a fresh backing array: pre aliases the live table's storage,
// which a later live rollback would hand back to the (mutable) live
// plane.
func (t *Table) undelete(removed, pre, post [][]types.Value, toSnap bool) {
	untouched := len(t.Rows) == len(post)
	if untouched {
		for i := range post {
			if !sameRow(t.Rows[i], post[i]) {
				untouched = false
				break
			}
		}
	}
	switch {
	case untouched && toSnap:
		t.Rows = append([][]types.Value(nil), pre...)
	case untouched:
		t.Rows = pre
		// pre may alias an array a read view captured before the delete;
		// mark it shared so the next in-place replacement copies first.
		t.rowsShared = true
	default:
		t.Rows = append(t.Rows, removed...)
	}
	t.touchBase()
}
