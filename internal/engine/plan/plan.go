// Package plan is the engine's analyzer: it picks the access path of
// one base table's row visit — a SELECT core whose FROM is exactly that
// table, or the target of an UPDATE/DELETE — through a pipeline of
// small, atomic rules, in the spirit of rule-based analyzers like
// go-mysql-server's. The package is pure — it sees one table's catalog
// image (TableMeta) and never touches engine state — so the rules are
// independently testable and the engine keeps the execution monopoly.
//
// The contract with the executor is deliberately narrow: a plan names
// candidate rows (which index to consult with which key expressions),
// never final rows. The executor re-evaluates the complete WHERE
// predicate over every candidate and emits candidates in table order,
// so a plan can only skip rows that provably cannot satisfy an indexed
// conjunct — access-path choice is invisible in results, which is
// exactly what the forced-variant oracle (metamorph.Plan) verifies.
package plan

import (
	"strings"

	"divsql/internal/sql/ast"
	"divsql/internal/sql/types"
)

// AccessPath enumerates how a plan reaches its rows.
type AccessPath int

// Access paths.
const (
	// FullScan visits every row (the fallback, and a forceable variant).
	FullScan AccessPath = iota
	// PointLookup probes a hash index over an equality-covered prefix of
	// the primary key or a secondary index.
	PointLookup
	// RangeScan walks a sorted single-column index between bounds.
	RangeScan
)

// String names the access path (for plan introspection and tests).
func (p AccessPath) String() string {
	switch p {
	case PointLookup:
		return "point-lookup"
	case RangeScan:
		return "range-scan"
	default:
		return "full-scan"
	}
}

// Force overrides the analyzer's access-path choice, the hook behind
// multi-plan differential execution: the same statement runs once
// normally and once forced, and any result disagreement is an engine
// bug.
type Force int

// Force modes.
const (
	// ForceAuto lets the analyzer choose.
	ForceAuto Force = iota
	// ForceFullScan skips the access-path rule: every core of the
	// statement visits all of its rows.
	ForceFullScan
)

// String names the force mode (for variant-disagreement reports).
func (f Force) String() string {
	if f == ForceFullScan {
		return "force-full-scan"
	}
	return "auto"
}

// ColMeta describes one column as the analyzer sees it.
type ColMeta struct {
	Name string
	Kind types.Kind
}

// TableMeta is the catalog image of one base table: its columns, the
// primary-key ordinals and every secondary keyset (declared indexes and
// unique constraints) usable for access-path selection.
type TableMeta struct {
	Name    string
	Cols    []ColMeta
	PK      []int
	Indexes [][]int
}

// Bound is one end of a range-scan interval. Val must be an *ast.Literal
// or *ast.Param (classifyPredicates admits nothing else); Strict marks
// an exclusive bound (< or >).
type Bound struct {
	Val    ast.Expr
	Strict bool
}

// SelectPlan is the access plan of one base table's row visit.
type SelectPlan struct {
	Table string // resolved (upper-cased) base-table name
	Alias string // correlation name in effect, "" when none

	Path AccessPath
	// PointLookup: the key column ordinals and their value expressions
	// (literals or parameters), pairwise.
	KeyCols []int
	KeyVals []ast.Expr
	// RangeScan: the scanned column ordinal and the optional bounds.
	RangeCol int
	Lo, Hi   *Bound

	// MaxParam is the highest parameter ordinal the statement references;
	// the executor must verify the bound-argument vector covers it before
	// skipping rows, so bind-arity errors surface identically on every
	// access path.
	MaxParam int
}

// Analyze plans the row visit of one base table by running rules 2 and
// 3, classifyPredicates → chooseAccessPath, over the predicate that
// filters it. Rule 1, source resolution, is the engine's: it calls here
// only for a SELECT core whose FROM is exactly one base table — wherever
// the core sits in its statement — and for the target of an
// UPDATE/DELETE; every other source is read whole. alias is the
// correlation name in effect ("" when none) and maxParam the highest
// parameter ordinal of the statement the predicate belongs to.
func Analyze(meta TableMeta, alias string, where ast.Expr, maxParam int, force Force) SelectPlan {
	p := SelectPlan{Table: meta.Name, Alias: alias, MaxParam: maxParam}
	if force != ForceFullScan {
		chooseAccessPath(&p, meta, classifyPredicates(where, &p, meta))
	}
	return p
}

// JoinAlgo names how a join pairs its inputs.
type JoinAlgo int

// Join algorithms.
const (
	// NestedLoop evaluates ON for every pair (the fallback, and what
	// ForceFullScan forces).
	NestedLoop JoinAlgo = iota
	// HashJoin buckets the right input by an INT key column and evaluates
	// ON only for the pairs whose keys are equal.
	HashJoin
)

// String names the algorithm (for plan introspection and metric labels).
func (a JoinAlgo) String() string {
	if a == HashJoin {
		return "hash"
	}
	return "nested-loop"
}

// EquiJoinKey is the join rule: it picks the key a join may hash on from
// the top-level AND conjuncts of its ON predicate — the first `col = col`
// whose sides are one column left of the join and one right of it.
// ordinal resolves a reference in the scope ON is evaluated in — the
// join's own, whose first nleft columns are the left input's — and
// answers -1 for a reference that is not exactly one column of it
// (unknown, ambiguous, or an enclosing query's). left indexes the left
// input's rows, right the right input's. Like an access path, the key
// only ever names candidate pairs: the executor evaluates the whole ON
// on each, and asks only when that evaluation cannot fail.
func EquiJoinKey(on ast.Expr, ordinal func(*ast.ColumnRef) int, nleft int) (left, right int, ok bool) {
	for _, c := range conjuncts(on, make([]ast.Expr, 0, 4)) {
		b, isBin := c.(*ast.Binary)
		if !isBin || b.Op != ast.OpEq {
			continue
		}
		l, lok := b.L.(*ast.ColumnRef)
		r, rok := b.R.(*ast.ColumnRef)
		if !lok || !rok {
			continue
		}
		lo, ro := ordinal(l), ordinal(r)
		if lo > ro {
			lo, ro = ro, lo
		}
		if lo >= 0 && lo < nleft && ro >= nleft {
			return lo, ro - nleft, true
		}
	}
	return 0, 0, false
}

// colPredicates are the conjuncts an index over one column can serve:
// the first equality value and the first bound of each side.
type colPredicates struct {
	eq     ast.Expr
	lo, hi *Bound
}

// classifyPredicates (rule 2) walks the top-level AND tree of the WHERE
// clause and extracts the conjuncts an index can serve: `col op value`
// comparisons (either operand order) and non-negated BETWEENs, where
// col is an INT column of the plan's table and value is a literal or
// parameter. Everything else is ignored here — the executor re-applies
// the full predicate — so classification only has to be sound, never
// complete.
func classifyPredicates(where ast.Expr, p *SelectPlan, meta TableMeta) []colPredicates {
	preds := make([]colPredicates, len(meta.Cols))
	for _, c := range conjuncts(where, make([]ast.Expr, 0, 4)) {
		switch x := c.(type) {
		case *ast.Binary:
			col, val, op, ok := comparisonLeaf(x, p, meta)
			if !ok {
				continue
			}
			b := &preds[col]
			switch op {
			case ast.OpEq:
				if b.eq == nil {
					b.eq = val
				}
			case ast.OpGt, ast.OpGe:
				if b.lo == nil {
					b.lo = &Bound{Val: val, Strict: op == ast.OpGt}
				}
			case ast.OpLt, ast.OpLe:
				if b.hi == nil {
					b.hi = &Bound{Val: val, Strict: op == ast.OpLt}
				}
			}
		case *ast.Between:
			if x.Not {
				continue
			}
			col, ok := columnLeaf(x.X, p, meta)
			if !ok || !valueLeaf(x.Lo) || !valueLeaf(x.Hi) {
				continue
			}
			b := &preds[col]
			if b.lo == nil {
				b.lo = &Bound{Val: x.Lo}
			}
			if b.hi == nil {
				b.hi = &Bound{Val: x.Hi}
			}
		}
	}
	return preds
}

// conjuncts flattens the top-level AND tree into its leaves.
func conjuncts(e ast.Expr, out []ast.Expr) []ast.Expr {
	if e == nil {
		return out
	}
	if b, ok := e.(*ast.Binary); ok && b.Op == ast.OpAnd {
		return conjuncts(b.R, conjuncts(b.L, out))
	}
	return append(out, e)
}

// comparisonLeaf matches `col op value` or `value op col` (flipping the
// operator), for the ordering comparison operators.
func comparisonLeaf(b *ast.Binary, p *SelectPlan, meta TableMeta) (col int, val ast.Expr, op ast.BinaryOp, ok bool) {
	switch b.Op {
	case ast.OpEq, ast.OpLt, ast.OpLe, ast.OpGt, ast.OpGe:
	default:
		return 0, nil, 0, false
	}
	if c, cok := columnLeaf(b.L, p, meta); cok && valueLeaf(b.R) {
		return c, b.R, b.Op, true
	}
	if c, cok := columnLeaf(b.R, p, meta); cok && valueLeaf(b.L) {
		return c, b.L, flip(b.Op), true
	}
	return 0, nil, 0, false
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
	default:
		return op
	}
}

// columnLeaf resolves a column reference to an INT column ordinal of
// the plan's table, honouring the correlation name in effect.
func columnLeaf(e ast.Expr, p *SelectPlan, meta TableMeta) (int, bool) {
	cr, ok := e.(*ast.ColumnRef)
	if !ok {
		return 0, false
	}
	if q := strings.ToUpper(cr.Table); q != "" {
		visible := p.Alias
		if visible == "" {
			visible = p.Table
		}
		if q != visible {
			return 0, false
		}
	}
	name := strings.ToUpper(cr.Column)
	for i, c := range meta.Cols {
		if c.Name == name {
			if c.Kind != types.KindInt {
				return 0, false
			}
			return i, true
		}
	}
	return 0, false
}

// valueLeaf reports whether an expression is a row-independent value
// the executor can evaluate once per statement.
func valueLeaf(e ast.Expr) bool {
	switch e.(type) {
	case *ast.Literal, *ast.Param:
		return true
	default:
		return false
	}
}

// chooseAccessPath (rule 3) selects the cheapest applicable path:
// the longest equality-covered prefix of the primary key or a secondary
// keyset becomes a point lookup; failing that, usable bounds on the
// leading column of a keyset become a range scan; otherwise the plan
// stays a full scan. Preference order is PK first, then the secondary
// keysets in catalog order (the engine feeds them sorted by name, so
// the choice is deterministic).
func chooseAccessPath(p *SelectPlan, meta TableMeta, preds []colPredicates) {
	keysets := make([][]int, 0, 1+len(meta.Indexes))
	if len(meta.PK) > 0 {
		keysets = append(keysets, meta.PK)
	}
	keysets = append(keysets, meta.Indexes...)

	var bestCols []int
	for _, ks := range keysets {
		n := 0
		for _, c := range ks {
			if preds[c].eq == nil {
				break
			}
			n++
		}
		if n > len(bestCols) {
			bestCols = ks[:n]
		}
	}
	if len(bestCols) > 0 {
		p.Path = PointLookup
		p.KeyCols = append([]int(nil), bestCols...)
		p.KeyVals = make([]ast.Expr, len(bestCols))
		for i, c := range bestCols {
			p.KeyVals[i] = preds[c].eq
		}
		return
	}

	for _, ks := range keysets {
		if b := preds[ks[0]]; b.lo != nil || b.hi != nil {
			p.Path = RangeScan
			p.RangeCol = ks[0]
			p.Lo, p.Hi = b.lo, b.hi
			return
		}
	}
	p.Path = FullScan
}

// Info describes how one statement's rows were reached. Table and Path
// are those of a statement that is a single base-table core (a SELECT
// over one table, an UPDATE or a DELETE) and zero — full scan —
// otherwise; Cores lists every single-base-table core the statement
// compiled to, and Joins the algorithm chosen for every join with an ON
// predicate, nested ones included, in compile order (a hash join still
// falls back to the nested loop at run time on key values it cannot
// hash); CacheHit reports whether the plan came out of the shared memo.
// Exposed via Session.LastPlan for tests and the forced-variant difftest
// oracle.
type Info struct {
	Table    string
	Path     AccessPath
	CacheHit bool
	Cores    []Core
	Joins    []JoinAlgo
}

// String renders the plan on one line, for divergence reports:
// "cores KV:point-lookup U:full-scan; joins hash nested-loop".
func (i Info) String() string {
	var b strings.Builder
	b.WriteString("cores")
	for _, c := range i.Cores {
		b.WriteString(" " + c.Table + ":" + c.Path.String())
	}
	b.WriteString("; joins")
	for _, j := range i.Joins {
		b.WriteString(" " + j.String())
	}
	return b.String()
}

// Core is one single-base-table core of a compiled statement.
type Core struct {
	Table string
	Path  AccessPath
}
