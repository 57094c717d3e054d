package engine

import (
	"slices"
	"strings"

	"divsql/internal/engine/plan"
	"divsql/internal/sql/ast"
	"divsql/internal/sql/types"
)

// This file holds the engine's narrowing rules: the access path of one
// base table's row visit — a SELECT core whose FROM is exactly that
// table, wherever the core sits, or the target of an UPDATE/DELETE — and
// the key a join may hash on. Both read the predicate as lowering left
// it: names are resolved once, a column is a scope depth and an ordinal,
// and the values a plan probes by are the predicate's own lowered nodes.
//
// A rule only ever names candidates — rows of the table, pairs of the
// join — never final rows: the executor evaluates the whole predicate
// on every candidate, in table order. So a rule may only skip what
// provably cannot satisfy an indexed conjunct, and only when evaluating
// the predicate cannot fail (skipping a row that would have raised an
// error changes what the statement answers). Plan choice is thereby
// invisible in results, which is what the plan-variant oracle checks
// (metamorph.Plan: normal execution against plan.ForceFullScan, the
// same plan with the choices declined by candidateRows and hashRight).

// visit is the access plan of one base table's row visit.
type visit struct {
	table string
	path  plan.AccessPath
	// PointLookup: the key columns and their values, pairwise.
	keyCols []int
	keyVals []rexpr
	// RangeScan: the scanned column and its bounds — nil for an open end,
	// strict for an exclusive one (< or >).
	rangeCol           int
	lo, hi             rexpr
	loStrict, hiStrict bool
	// maxParam is the highest parameter ordinal of the statement: the
	// executor probes only when the bound arguments cover it, so
	// bind-arity errors surface identically on every access path.
	maxParam int
}

// accessPath plans the row visit of t under its predicate, lowered as
// where, in a statement whose highest parameter ordinal is maxParam,
// into v.
// The equality-covered prefix of a keyset — the primary key, then the
// declared indexes sorted by name, then the unique constraints — becomes
// a point lookup, the longest winning and the first among equals;
// failing that, bounds on a keyset's leading column become a range scan
// over it; otherwise every row is visited. Under ForceFullScan, and
// when the predicate can fail, every row is.
func (s *Session) accessPath(v *visit, t *Table, where rexpr, maxParam int) {
	*v = visit{table: t.Name, maxParam: maxParam}
	if where == nil || where.canFail() {
		return
	}
	var cb [8]rexpr
	conj := conjuncts(where, cb[:0])
	var kb [8][]int
	keysets := append(kb[:0], t.PKCols)
	var ib [8]*Index
	idxs := ib[:0]
	for _, ix := range s.catalogIndexes() {
		if ix.Table == t.Name {
			idxs = append(idxs, ix)
		}
	}
	slices.SortFunc(idxs, func(a, b *Index) int { return strings.Compare(a.Name, b.Name) })
	for _, ix := range idxs {
		keysets = append(keysets, ix.Cols)
	}
	keysets = append(keysets, t.Uniques...)

	var best []int
	for _, ks := range keysets {
		n := 0
		for n < len(ks) && colBounds(conj, t, ks[n]).eq != nil {
			n++
		}
		if n > len(best) {
			best = ks[:n]
		}
	}
	if len(best) > 0 {
		// The key columns are on the heap wherever the plan is: the
		// lookup index they build keeps them.
		v.path = plan.PointLookup
		v.keyCols = slices.Clone(best)
		v.keyVals = s.pm.exprList(len(best))
		for i, c := range best {
			v.keyVals[i] = colBounds(conj, t, c).eq
		}
		return
	}
	for _, ks := range keysets {
		if len(ks) == 0 {
			continue
		}
		if b := colBounds(conj, t, ks[0]); b.lo != nil || b.hi != nil {
			v.path, v.rangeCol = plan.RangeScan, ks[0]
			v.lo, v.hi, v.loStrict, v.hiStrict = b.lo, b.hi, b.loStrict, b.hiStrict
			return
		}
	}
}

// bounds is what a predicate's conjuncts say about one column: the
// value of its first equality, and its first lower and upper bound.
type bounds struct {
	eq, lo, hi         rexpr
	loStrict, hiStrict bool
}

// colBounds reads the conjuncts an index over column col of t can
// serve: `col op value` with op one of = < <= > >= (either operand
// order) and non-negated `col BETWEEN value AND value`, where col is an
// INT column and value a literal, a lifted literal or a parameter.
// Everything else is left to the executor, which evaluates the whole
// predicate: the rule only has to be sound, never complete.
func colBounds(conj []rexpr, t *Table, col int) (b bounds) {
	if t.Cols[col].Kind != types.KindInt {
		return b
	}
	for _, c := range conj {
		switch x := c.(type) {
		case *binX:
			op := x.op
			var val rexpr
			switch {
			case isColumn(x.l, col) && isValue(x.r):
				val = x.r
			case isColumn(x.r, col) && isValue(x.l):
				val, op = x.l, flip(op)
			default:
				continue
			}
			switch op {
			case ast.OpEq:
				if b.eq == nil {
					b.eq = val
				}
			case ast.OpGt, ast.OpGe:
				if b.lo == nil {
					b.lo, b.loStrict = val, op == ast.OpGt
				}
			case ast.OpLt, ast.OpLe:
				if b.hi == nil {
					b.hi, b.hiStrict = val, op == ast.OpLt
				}
			}
		case *betweenX:
			if x.not || !isColumn(x.x, col) || !isValue(x.lo) || !isValue(x.hi) {
				continue
			}
			if b.lo == nil {
				b.lo = x.lo
			}
			if b.hi == nil {
				b.hi = x.hi
			}
		}
	}
	return b
}

// conjuncts flattens the top-level AND tree of a lowered predicate.
func conjuncts(x rexpr, out []rexpr) []rexpr {
	if b, ok := x.(*binX); ok && b.op == ast.OpAnd {
		return conjuncts(b.r, conjuncts(b.l, out))
	}
	return append(out, x)
}

// isColumn reports whether x reads column col of the row the predicate
// filters (not an enclosing query's).
func isColumn(x rexpr, col int) bool {
	c, ok := x.(*colX)
	return ok && c.depth == 0 && c.i == col
}

// isValue reports whether x is the same on every row: a literal, a
// lifted literal or a parameter, evaluated once per execution.
func isValue(x rexpr) bool {
	switch x.(type) {
	case litX, slotX, paramX:
		return true
	}
	return false
}

// flip mirrors an ordering operator across swapped operands.
func flip(op ast.BinaryOp) ast.BinaryOp {
	switch op {
	case ast.OpLt:
		return ast.OpGt
	case ast.OpLe:
		return ast.OpGe
	case ast.OpGt:
		return ast.OpLt
	case ast.OpGe:
		return ast.OpLe
	}
	return op
}

// joinKey is a hash join's key: left and right index the rows of the
// join's two inputs; maxParam is the highest parameter ordinal of the
// select, for the bind-arity gate an access path applies too.
type joinKey struct{ left, right, maxParam int }

// hashKey is the key a join may hash on: the first top-level conjunct of
// its ON, lowered as on in the join's scope (whose first nleft columns
// are the left input's), that equates one column left of the join with
// one right of it, either way round. It is nil — every pair is visited —
// when there is none, under ForceFullScan, and when evaluating ON can
// fail on a pair the key would leave out.
func hashKey(on rexpr, nleft, maxParam int) *joinKey {
	if on.canFail() {
		return nil
	}
	var cb [8]rexpr
	for _, c := range conjuncts(on, cb[:0]) {
		b, ok := c.(*binX)
		if !ok || b.op != ast.OpEq {
			continue
		}
		l, lok := b.l.(*colX)
		r, rok := b.r.(*colX)
		if !lok || !rok || l.depth != 0 || r.depth != 0 {
			continue
		}
		lo, ro := min(l.i, r.i), max(l.i, r.i)
		if lo < nleft && ro >= nleft {
			return &joinKey{left: lo, right: ro - nleft, maxParam: maxParam}
		}
	}
	return nil
}
