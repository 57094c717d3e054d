package engine

import (
	"errors"
	"fmt"
	"math"
	"sort"

	"divsql/internal/engine/plan"
	"divsql/internal/sql/ast"
	"divsql/internal/sql/types"
)

// This file is the execution side of the analyzer (internal/engine/plan):
// compiling an eligible SELECT once into a compiledSelect — references
// resolved to ordinals, projection pre-expanded, access path chosen —
// and executing it under the engine read lock without repeating any of
// that per statement.
//
// Compilations are shared through one cache on the Engine: planMemo,
// keyed by the *ast.Select's address. core.Resolve interns statement
// text, so while a text is interned every session, layer and replica
// that executes it — inline or prepared — hands the engine the same
// tree, and the address identifies the text without rendering it. An
// entry is validated against the engine's schema-version stamp; a stale
// one recompiles transparently (DDL — including DDL rolled back inside a
// transaction — never serves a plan compiled against a schema generation
// that is no longer current).
//
// Correctness contract with the interpreter (select.go): the compiled
// path must be observationally identical — same rows in the same order,
// same column names, and the same errors raised at the same precedence.
// It mirrors the interpreter's phases exactly: reference validation
// (compile time, replayed as compileErr), WHERE filtering over the full
// predicate in table order, projection-shape errors (projErr) after
// filtering, projection, hidden-column ORDER BY, LIMIT. Index use only
// narrows which rows the WHERE is evaluated on — and only when that
// evaluation provably cannot error (whereSafeForSkip), because skipping
// a row that would have errored would change observable behaviour.

// memoEntry is one planMemo entry.
type memoEntry struct {
	version uint64
	cs      *compiledSelect
}

// compiledSelect is one statement's compilation: either a full compiled
// execution (p non-nil) or a cached decision to stay on the interpreter
// (p nil — ineligible shapes such as joins, DISTINCT, UNION, GROUP BY,
// views and derived tables).
type compiledSelect struct {
	p   *plan.SelectPlan
	sel *ast.Select

	// cols is the FROM relation's scope (the table's columns under the
	// correlation name in effect), resolved once.
	cols []scopeCol
	// grouped marks a global aggregate (no GROUP BY by eligibility);
	// projection is delegated to projectGrouped per execution.
	grouped bool
	// outCols/projs are the pre-expanded projection: visible output
	// names and all projection expressions (visible first, then hidden
	// ORDER BY keys). Unused when grouped.
	outCols []string
	projs   []projExpr
	// keyCol mirrors evalSelectHiddenOrder: per ORDER BY key, >= 0 is a
	// hidden trailing column offset, < 0 encodes a 1-based output
	// position as -(pos).
	keyCol []int

	// compileErr replays a reference-validation error (raised before any
	// row work, as the interpreter does); projErr replays a projection-
	// shape error (raised after WHERE filtering, as the interpreter
	// does).
	compileErr error
	projErr    error
}

// sessionCatalog adapts the session's active read plane (read view,
// own-writes overlay, or live state) to the analyzer's Catalog
// interface. The caller holds the engine lock.
type sessionCatalog struct{ s *Session }

// TableMeta resolves one base table: columns, primary key, and the
// secondary keysets usable for access paths — declared indexes (sorted
// by index name, so access-path choice is deterministic) and unique
// constraints.
func (c sessionCatalog) TableMeta(name string) (plan.TableMeta, bool) {
	t, ok := c.s.lookupTable(name)
	if !ok {
		return plan.TableMeta{}, false
	}
	m := plan.TableMeta{Name: t.Name, PK: t.PKCols}
	m.Cols = make([]plan.ColMeta, len(t.Cols))
	for i, col := range t.Cols {
		m.Cols[i] = plan.ColMeta{Name: col.Name, Kind: col.Kind}
	}
	idxs := c.s.catalogIndexes()
	var names []string
	for n, ix := range idxs {
		if ix.Table == t.Name {
			names = append(names, n)
		}
	}
	sort.Strings(names)
	for _, n := range names {
		m.Indexes = append(m.Indexes, idxs[n].Cols)
	}
	m.Indexes = append(m.Indexes, t.Uniques...)
	return m, true
}

// compileSelect lowers one SELECT into its compiled form, performing the
// interpreter's plan-time validation once. Ineligible statements return
// a compiledSelect with p == nil (the cached interpreter-fallback
// decision). Caller holds the engine lock.
func (s *Session) compileSelect(sel *ast.Select, force plan.Force) *compiledSelect {
	if sel.Union != nil || sel.Distinct || len(sel.GroupBy) > 0 || sel.Having != nil {
		return &compiledSelect{sel: sel}
	}
	p, ok := plan.Analyze(sel, sessionCatalog{s}, force)
	if !ok {
		return &compiledSelect{sel: sel}
	}
	t, _ := s.lookupTable(p.Table)
	qual := p.Alias
	if qual == "" {
		qual = p.Table
	}
	cols := make([]scopeCol, len(t.Cols))
	for i, c := range t.Cols {
		cols[i] = scopeCol{qual: qual, name: c.Name}
	}

	// Mirror evalSelectHiddenOrder: non-positional ORDER BY keys become
	// hidden trailing projection items, stripped again after the sort.
	items := sel.Items
	var keyCol []int
	if len(sel.OrderBy) > 0 {
		items = append([]ast.SelectItem(nil), sel.Items...)
		keyCol = make([]int, len(sel.OrderBy))
		hidden := 0
		for k, o := range sel.OrderBy {
			if lit, ok := o.Expr.(*ast.Literal); ok && lit.Val.K == types.KindInt {
				keyCol[k] = -int(lit.Val.I)
				continue
			}
			items = append(items, ast.SelectItem{Expr: o.Expr, Alias: "__SORT__"})
			keyCol[k] = hidden
			hidden++
		}
	}
	cp := *sel
	cp.Items = items
	grouped := selectHasAggregate(&cp)
	if grouped && len(sel.OrderBy) > 0 {
		// Aggregates combined with hidden sort keys re-enter grouped
		// projection in a shape the target workloads never use; stay on
		// the interpreter.
		return &compiledSelect{sel: sel}
	}

	cs := &compiledSelect{p: p, sel: sel, cols: cols, grouped: grouped, keyCol: keyCol}

	// Index skipping is only sound when evaluating the WHERE clause can
	// never error: the interpreter evaluates it on every row, so a
	// predicate that can fail (division by zero, scalar subqueries, type
	// errors) must keep full-iteration semantics.
	if p.Path != plan.FullScan && !whereSafeForSkip(sel.Where) {
		p.Path = plan.FullScan
		p.KeyCols, p.KeyVals, p.Lo, p.Hi = nil, nil, nil, nil
	}

	// Plan-time validation, in the interpreter's order: projection items
	// (including hidden ORDER BY keys), then WHERE. Errors replay on
	// every execution until schema change recompiles.
	for _, it := range cp.Items {
		if !it.Star {
			if err := s.validateRefs(it.Expr, cols, nil); err != nil {
				cs.compileErr = err
				return cs
			}
		}
	}
	if err := s.validateRefs(sel.Where, cols, nil); err != nil {
		cs.compileErr = err
		return cs
	}
	if grouped {
		// projectGrouped computes output names and aggregates per
		// execution (its errors already follow filtering, as required).
		return cs
	}
	outNames, projs, err := s.expandItems(&cp, &relation{cols: cols})
	if err != nil {
		cs.projErr = err
		return cs
	}
	hidden := len(cp.Items) - len(sel.Items)
	cs.outCols = outNames[:len(outNames)-hidden]
	cs.projs = projs
	return cs
}

// whereSafeForSkip reports whether evaluating the expression can never
// return an error, assuming every referenced parameter is bound
// (candidateRows checks arity separately) and every column reference
// validated. Comparisons are safe because compareTruth swallows
// comparison errors as Unknown; arithmetic, functions, subqueries and
// CAST are not.
func whereSafeForSkip(x ast.Expr) bool {
	switch n := x.(type) {
	case nil:
		return true
	case *ast.Literal, *ast.Param, *ast.ColumnRef:
		return true
	case *ast.Binary:
		switch n.Op {
		case ast.OpEq, ast.OpNe, ast.OpLt, ast.OpLe, ast.OpGt, ast.OpGe,
			ast.OpAnd, ast.OpOr, ast.OpConcat:
			return whereSafeForSkip(n.L) && whereSafeForSkip(n.R)
		}
		return false // arithmetic: division by zero, non-numeric operands
	case *ast.Unary:
		switch n.Op {
		case "NOT", "+":
			return whereSafeForSkip(n.X)
		}
		return false // unary minus errors on non-numeric operands
	case *ast.Between:
		return whereSafeForSkip(n.X) && whereSafeForSkip(n.Lo) && whereSafeForSkip(n.Hi)
	case *ast.IsNull:
		return whereSafeForSkip(n.X)
	case *ast.Like:
		return whereSafeForSkip(n.X) && whereSafeForSkip(n.Pattern)
	case *ast.In:
		if n.Select != nil {
			return false
		}
		if !whereSafeForSkip(n.X) {
			return false
		}
		for _, it := range n.List {
			if !whereSafeForSkip(it) {
				return false
			}
		}
		return true
	default:
		return false // FuncCall, Case, Cast, Exists, Subquery
	}
}

// candidateRows evaluates the plan's key expressions and consults the
// table's lazy index. It returns (positions, true) when the index
// answered — positions are a superset of the WHERE-true rows, in table
// order, possibly empty — or (nil, false) when only a full scan is
// sound (unbound parameters, non-INT key values that could still match
// through loose coercion, poisoned index).
func (s *Session) candidateRows(p *plan.SelectPlan, t *Table) ([]int, bool) {
	if p.MaxParam > len(s.bind) {
		// Bind-arity errors must surface identically on every access
		// path; only full iteration reaches the Param evaluation.
		return nil, false
	}
	switch p.Path {
	case plan.PointLookup:
		keys := make([]int64, len(p.KeyVals))
		for i, kv := range p.KeyVals {
			v, err := s.evalExpr(kv, nil)
			if err != nil {
				return nil, false
			}
			switch v.K {
			case types.KindInt:
				keys[i] = v.I
			case types.KindNull:
				// Equality with NULL is Unknown on every row: provably
				// empty.
				return []int{}, true
			default:
				// A float or string key can still match an INT column
				// through types.Compare's loose coercion; only a scan is
				// sound.
				return nil, false
			}
		}
		ix := t.ic.eqIndex(t, p.KeyCols)
		if ix == nil {
			return nil, false
		}
		return ix.lookup(keys), true
	case plan.RangeScan:
		var lo, hi int64
		haveLo, haveHi := false, false
		if p.Lo != nil {
			v, err := s.evalExpr(p.Lo.Val, nil)
			if err != nil {
				return nil, false
			}
			switch v.K {
			case types.KindInt:
				lo, haveLo = v.I, true
				if p.Lo.Strict {
					if lo == math.MaxInt64 {
						return []int{}, true
					}
					lo++
				}
			case types.KindNull:
				return []int{}, true
			default:
				return nil, false
			}
		}
		if p.Hi != nil {
			v, err := s.evalExpr(p.Hi.Val, nil)
			if err != nil {
				return nil, false
			}
			switch v.K {
			case types.KindInt:
				hi, haveHi = v.I, true
				if p.Hi.Strict || plantedRangeBoundDefect.Load() {
					if hi == math.MinInt64 {
						return []int{}, true
					}
					hi--
				}
			case types.KindNull:
				return []int{}, true
			default:
				return nil, false
			}
		}
		ix := t.ic.rangeIndex(t, p.RangeCol)
		if ix == nil {
			return nil, false
		}
		return ix.between(lo, hi, haveLo, haveHi), true
	}
	return nil, false
}

// filterCompiled evaluates the full WHERE predicate — over index
// candidates when the plan has a usable access path, over every row
// otherwise — returning the matching rows in table order.
func (s *Session) filterCompiled(cs *compiledSelect, t *Table) ([][]types.Value, error) {
	where := cs.sel.Where
	sc := scope{cols: cs.cols}
	if cs.p.Path != plan.FullScan {
		if cands, indexed := s.candidateRows(cs.p, t); indexed {
			var filtered [][]types.Value
			for _, ri := range cands {
				row := t.Rows[ri]
				sc.vals = row
				v, err := s.evalExpr(where, &sc)
				if err != nil {
					return nil, err
				}
				if types.TruthOf(v) == types.True {
					filtered = append(filtered, row)
				}
			}
			return filtered, nil
		}
	}
	if where == nil {
		// Safe to share: result rows are built fresh by projection, and
		// the slice is only read under the lock held for this statement.
		return t.Rows, nil
	}
	var filtered [][]types.Value
	for _, row := range t.Rows {
		sc.vals = row
		v, err := s.evalExpr(where, &sc)
		if err != nil {
			return nil, err
		}
		if types.TruthOf(v) == types.True {
			filtered = append(filtered, row)
		}
	}
	return filtered, nil
}

// runCompiled executes a compiled SELECT. Caller holds the engine lock
// (at least read mode) and has set s.bind.
func (s *Session) runCompiled(cs *compiledSelect) (*Result, error) {
	if cs.compileErr != nil {
		return nil, cs.compileErr
	}
	// Resolve the table by name per execution, on the session's active
	// read plane: a compiled plan is shared across views and sessions,
	// and Restore and snapshot installs replace the *Table header
	// behind an unchanged name.
	t, ok := s.lookupTable(cs.p.Table)
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrTableNotFound, cs.p.Table)
	}
	filtered, err := s.filterCompiled(cs, t)
	if err != nil {
		return nil, err
	}
	sel := cs.sel
	if cs.grouped {
		res, err := s.projectGrouped(sel, &relation{cols: cs.cols, rows: filtered}, nil)
		if err != nil {
			return nil, err
		}
		applyLimit(sel, res)
		return res, nil
	}
	if cs.projErr != nil {
		return nil, cs.projErr
	}
	res := &Result{Kind: ResultRows, Columns: append([]string(nil), cs.outCols...)}
	sc := scope{cols: cs.cols}
	for _, row := range filtered {
		sc.vals = row
		out := make([]types.Value, len(cs.projs))
		for i, px := range cs.projs {
			if px.star >= 0 {
				out[i] = row[px.star]
				continue
			}
			v, err := s.evalExpr(px.expr, &sc)
			if err != nil {
				return nil, err
			}
			out[i] = v
		}
		res.Rows = append(res.Rows, out)
	}
	if len(sel.OrderBy) > 0 {
		visible := len(cs.outCols)
		keyIdx := make([]int, len(cs.keyCol))
		for k, kc := range cs.keyCol {
			if kc >= 0 {
				keyIdx[k] = visible + kc
			} else {
				pos := -kc - 1
				if pos < 0 || pos >= visible {
					return nil, fmt.Errorf("ORDER BY position %d out of range", -kc)
				}
				keyIdx[k] = pos
			}
		}
		sort.SliceStable(res.Rows, func(i, j int) bool {
			for k, item := range sel.OrderBy {
				c := compareForSort(res.Rows[i][keyIdx[k]], res.Rows[j][keyIdx[k]])
				if c == 0 {
					continue
				}
				if item.Desc {
					return c > 0
				}
				return c < 0
			}
			return false
		})
		for i, row := range res.Rows {
			res.Rows[i] = row[:visible]
		}
	}
	applyLimit(sel, res)
	return res, nil
}

// execSelectRLocked is the read-lock SELECT fast path: probe the memo by
// the tree's address, compile on a miss or a stale stamp, and execute.
// Caller holds the engine read lock and has set s.bind.
func (s *Session) execSelectRLocked(sel *ast.Select) (*Result, error) {
	e := s.eng
	ver := s.planVersion()
	v, known := e.planMemo.Load(sel)
	if known {
		if me := v.(*memoEntry); me.version == ver {
			e.memoHits.Add(1)
			return s.dispatchCompiled(me.cs, true)
		}
		e.memoStale.Add(1)
	}
	e.memoMisses.Add(1)
	cs := s.compileSelect(sel, plan.ForceAuto)
	if !known {
		if e.planMemoLen.Load() >= planMemoCap {
			e.planMemo.Clear()
			e.planMemoLen.Store(0)
		}
		e.planMemoLen.Add(1)
	}
	e.planMemo.Store(sel, &memoEntry{version: ver, cs: cs})
	return s.dispatchCompiled(cs, false)
}

// dispatchCompiled records the plan taken and runs the compiled form or
// the interpreter fallback.
func (s *Session) dispatchCompiled(cs *compiledSelect, cacheHit bool) (*Result, error) {
	if cs.p == nil {
		s.eng.interpSelects.Add(1)
		s.lastPlan = plan.Info{CacheHit: cacheHit}
		return s.exec(cs.sel)
	}
	if p := int(cs.p.Path); p >= 0 && p < len(s.eng.pathExecs) {
		s.eng.pathExecs[p].Add(1)
	}
	s.lastPlan = plan.Info{Table: cs.p.Table, Path: cs.p.Path, Compiled: true, CacheHit: cacheHit}
	return s.runCompiled(cs)
}

// LastPlan describes how the session's most recent SELECT executed: the
// access path, whether the compiled path ran, and whether the plan came
// out of the shared cache.
func (s *Session) LastPlan() plan.Info { return s.lastPlan }

// ExecSelectVariant executes a pure SELECT under a forced access-path
// variant, compiling fresh and bypassing the plan memo (a forced
// plan must never leak into normal execution). This is the hook behind
// the forced-variant differential oracle: the same statement runs once
// per variant and any result disagreement convicts the engine.
func (s *Session) ExecSelectVariant(sel *ast.Select, force plan.Force, args []types.Value) (*Result, error) {
	e := s.eng
	e.mu.RLock()
	defer e.mu.RUnlock()
	if s.closed {
		return nil, ErrSessionClosed
	}
	if e.selectAdvancesSequences(sel) {
		return nil, errors.New("variant execution requires a pure SELECT")
	}
	// Variant execution reads the committed view like any pure SELECT
	// (the live plane is no longer stable under the read lock alone);
	// inside a transaction that has written, read through the own-writes
	// path so variants agree with the primary execution.
	if s.inTxn && (s.didDDL || s.touchesRefs(sel)) {
		refs := e.statementRefsLocked(sel)
		release := e.latchTables(refs)
		defer release()
		var overlay map[string]*Table
		for _, n := range refs {
			t, ok := e.st.tables[n]
			if !ok {
				continue
			}
			if e.othersInTxnOn(n, s) {
				if overlay == nil {
					overlay = make(map[string]*Table, len(refs))
				}
				overlay[n] = e.committedTable(t, s)
			}
		}
		s.ownTabs = overlay
		defer func() { s.ownTabs = nil }()
	} else if s.inTxn && s.level == LevelRepeatableRead && s.pinned != nil {
		s.curRead = s.pinned
		defer func() { s.curRead = nil }()
	} else {
		s.curRead = e.currentView()
		defer func() { s.curRead = nil }()
	}
	s.bind = e.cfg.Bind.Apply(args)
	cs := s.compileSelect(sel, force)
	res, err := s.dispatchCompiled(cs, false)
	s.bind = nil
	return res, err
}

// PlanCacheStats returns the shared compiled-plan cache counters.
func (e *Engine) PlanCacheStats() plan.CacheStats {
	return plan.CacheStats{
		Hits:          e.memoHits.Load(),
		Misses:        e.memoMisses.Load(),
		Invalidations: e.memoStale.Load(),
	}
}
