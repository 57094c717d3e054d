package engine

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"sync"
	"sync/atomic"

	"divsql/internal/engine/plan"
	"divsql/internal/sql/ast"
	"divsql/internal/sql/stmt"
	"divsql/internal/sql/types"
)

// This file is the compile side of the engine's one SELECT executor.
// Every query expression — whatever its shape, wherever it sits in its
// statement — is lowered once by compileSelect into a compiledSelect,
// and runSelect (select.go) is the only code that turns one into rows.
//
// What compilation hoists out of execution: source resolution (base
// table, view body, derived table, join chain), the scope those sources
// produce, every expression lowered to its resolved form (lower.go:
// references, nested selects — each compiled against the scope it is met
// in and held by the node that evaluates it — builtins, casts), *
// expansion, output names, sort-key resolution and, for a core whose
// FROM is exactly one base table, the access path (access.go). It
// raises every static error, execution only those rows and arguments
// cause: a statement that does not compile fails before anything runs.
// The first static error wins — FROM sources left to right (ONs
// included), then references in evaluation order (a nested select's
// where its node sits), projection shape, UNION column count, ORDER BY.
//
// Plans are immutable once built and shared through the engine's memos,
// keyed by the handle's shape (stmt.Parsed.Shape): the tree of the first
// interned text that differs from the executing one only in the values
// of lifted literals — operands of a WHERE or JOIN ON predicate at any
// depth and UPDATE SET values, outside function arguments. Lowering turns
// each literal of the handle's Lits into a slot (slotX) that reads the
// executing handle's value — an access path probes by those same nodes
// — so every text of a shape — inline or prepared, on every session,
// layer and replica — runs one plan. Every other literal is
// part of the shape, because compilation reads it: a select list names
// the result's columns, ORDER BY and GROUP BY may be positional, a
// function's argument may name a sequence. A lifted literal is the
// text's value, not a client's argument: it never passes BindRules. An
// entry is validated against the schema-version stamp of the read plane
// it runs on; a stale one recompiles transparently (DDL — including DDL
// rolled back inside a transaction — never serves a plan compiled
// against a schema generation that is no longer current). There is one
// compile mode: a plan variant (ExecSelectVariant) runs the memoised
// plan, and the narrowing choices it turns off are answered where
// execution reads them (candidateRows, hashRight, the once rule).
//
// Index use only narrows which rows a WHERE is evaluated on — and only
// when that evaluation provably cannot error (its lowered form cannot
// fail), because skipping a row that would have errored would change
// observable behaviour.

// planMemoCap bounds each plan memo, which is dropped wholesale at
// capacity — the workloads that matter re-fill it within one batch.
const planMemoCap = 4096

// memo is one schema-stamped memo of compiled plans of type P.
type memo[P any] struct {
	m sync.Map     // ast.Statement -> *memoEntry[P]
	n atomic.Int64 // approximate size, for the cap
}

// memoEntry is one compile: its plan, or the static error it met.
type memoEntry[P any] struct {
	version uint64
	plan    *P
	err     error
}

// load returns the statement's entry when it was compiled against schema
// generation ver (nil otherwise), and whether the statement has an entry
// at all.
func (c *memo[P]) load(st ast.Statement, ver uint64) (me *memoEntry[P], known bool) {
	v, known := c.m.Load(st)
	if known {
		if me := v.(*memoEntry[P]); me.version == ver {
			return me, true
		}
	}
	return nil, known
}

// store publishes a compile's entry; known is load's second result.
func (c *memo[P]) store(st ast.Statement, known bool, ver uint64, p *P, err error) *memoEntry[P] {
	if !known {
		if c.n.Load() >= planMemoCap {
			c.drop()
		}
		c.n.Add(1)
	}
	me := &memoEntry[P]{version: ver, plan: p, err: err}
	c.m.Store(st, me)
	return me
}

// drop empties the memo, reporting how many plans it held.
func (c *memo[P]) drop() uint64 {
	c.m.Clear()
	return uint64(c.n.Swap(0))
}

// publishSchema stamps the committed catalog: with the live schema
// generation when the two catalogs are one, with a fresh epoch while an
// open transaction holds uncommitted DDL (the live stamp names its
// catalog, which the read views do not see). When the stamp moved, the
// memoised plans are stale — generations are never reused — so the
// memos are emptied rather than left to hold dead plans until their
// caps (a statement the memo forgot too early only recompiles). Caller
// holds the exclusive engine lock.
func (e *Engine) publishSchema() {
	v := e.schemaVersion
	for s := range e.sessions {
		if s.didDDL {
			e.schemaEpoch++
			v = e.schemaEpoch
			break
		}
	}
	if e.committedSchema != v {
		e.committedSchema = v
		e.memoStale.Add(e.planMemo.drop() + e.dmlMemo.drop())
	}
}

// planBody lists what the plan of any statement kind compiled under it:
// every single-base-table core, nested ones included, in compile order
// (plan.Info.Cores).
type planBody struct {
	paths []plan.Core
	joins []plan.JoinAlgo // likewise, of every join with an ON (plan.Info.Joins)
}

// adopt lists a nested plan's cores and joins under the plan that owns it.
func (b *planBody) adopt(sub *planBody) {
	b.paths = append(b.paths, sub.paths...)
	b.joins = append(b.joins, sub.joins...)
}

// compiledSelect is one query expression lowered to the pipeline
// source tree → filter → project|group → distinct (per core) → union →
// sort → limit.
type compiledSelect struct {
	planBody
	sel *ast.Select
	// cores are the SELECT and its UNION branches, in order.
	cores []core
	// hidden counts the trailing columns of cores[0]'s rows that are not
	// output: the sort keys a plain SELECT computes in its source scope,
	// stripped after the sort.
	hidden int32
	keys   []sortKey
	// correlated marks a select that reads a scope enclosing it or calls
	// a sequence function: each evaluation may answer differently. once
	// is, for an uncorrelated select nested in another, its slot in
	// Session.once (-1 otherwise): a pure SELECT runs it at most once per
	// execution (runSelect).
	correlated bool
	once       int32
}

// compileFrame is one select being compiled: the scope it is met in,
// and whether a reference inside it has resolved there or further out.
type compileFrame struct {
	outer      *scope
	correlated bool
}

// onceResult is what an uncorrelated nested select produced in this
// execution, rows in Session.onceMem; for IN, set chains them once a
// probe asked (setState 1; -1: they cannot be chained, inSet).
type onceResult struct {
	done     bool
	rows     [][]types.Value
	err      error
	set      hashTable
	hasNull  bool
	setState int8
}

// outCols are the visible output names of a plan.
func (cs *compiledSelect) outCols() []string {
	names := cs.cores[0].names
	n := len(names) - int(cs.hidden)
	return names[:n:n]
}

// sortKey is one resolved ORDER BY key, read from the rows sorted.
type sortKey struct {
	expr rexpr
	desc bool
}

// core is one SELECT of a query expression, before UNION/ORDER/LIMIT.
type core struct {
	// from is the source tree, flattened in the order execution opens it,
	// and width the columns of the rows it produces.
	from  []fromStep
	width int
	// p is the access plan when the FROM is exactly one base table.
	p *visit
	// where, having and groupBy are the core's lowered clauses; names the
	// output names, hidden sort keys last, and projs the projection, *
	// expanded — over the group when grouped is set.
	where, having rexpr
	groupBy       []rexpr
	names         []string
	projs         []rexpr
	grouped       bool
	distinct      bool
	// unionAll tells how the branch attaches to what precedes it.
	unionAll bool
}

// fromStep is one FROM reference: the first of a comma-separated FROM
// entry (join nil; entries combine by cross product) or the right side
// of a join onto what its entry has produced so far, under the lowered
// ON. key, when set, is the column pair the join may hash on (hashKey).
type fromStep struct {
	source
	join *ast.Join
	on   rexpr
	key  *joinKey
}

// source is one FROM reference. A base table is resolved by name per
// execution, on the session's active read plane: a plan is shared across
// views and sessions, and Restore and snapshot installs replace the
// *Table header behind an unchanged name.
type source struct {
	name  string          // base table or view
	sub   *compiledSelect // derived table, or the body of a view
	view  bool
	width int // columns per row
}

// compileSelect lowers one query expression, or returns its first static
// error. outer is the scope the expression is met in (nil at top level):
// the enclosing query's, for its correlated references. distinct is
// sel.Distinct, except that the LeftJoinDistinctViewDup quirk drops a
// view body's. Caller holds the engine lock.
func (s *Session) compileSelect(sel *ast.Select, outer *scope, distinct bool) (*compiledSelect, error) {
	if len(s.frames) == 0 {
		s.onceN = 0
	}
	s.frames = append(s.frames, compileFrame{outer: outer})
	cs, err := s.compileQuery(sel, outer, distinct)
	f := s.frames[len(s.frames)-1]
	s.frames = s.frames[:len(s.frames)-1]
	if err != nil {
		return nil, err
	}
	cs.correlated, cs.once = f.correlated, -1
	if len(s.frames) > 0 && !f.correlated {
		cs.once = s.onceN
		s.onceN++
	}
	return cs, nil
}

// noteRef records a reference that resolved in scope sc: every select
// being compiled that sc encloses is correlated.
func (s *Session) noteRef(sc *scope) {
	for i := range s.frames {
		f := &s.frames[i]
		for o := f.outer; o != nil && !f.correlated; o = o.parent {
			f.correlated = o == sc
		}
	}
}

// noteSeqCall records a sequence function call: it advances state, so
// every select being compiled is correlated.
func (s *Session) noteSeqCall() {
	for i := range s.frames {
		s.frames[i].correlated = true
	}
}

// compileQuery is compileSelect's body.
func (s *Session) compileQuery(sel *ast.Select, outer *scope, distinct bool) (*compiledSelect, error) {
	cs := &compiledSelect{sel: sel}
	// ORDER BY keys may reference source columns that are not projected;
	// a plain SELECT computes the non-positional ones as hidden trailing
	// columns in its source scope. A DISTINCT/UNION result resolves its
	// keys against the output columns, as SQL requires.
	hiddenSort := sel.Union == nil && !distinct && len(sel.OrderBy) > 0
	items := sel.Items
	if hiddenSort {
		items = append([]ast.SelectItem(nil), sel.Items...)
		for _, o := range sel.OrderBy {
			if _, positional := orderPosition(o); !positional {
				items = append(items, ast.SelectItem{Expr: o.Expr, Alias: "__SORT__"})
			}
		}
		cs.hidden = int32(len(items) - len(sel.Items))
	}
	n := 1
	for u := sel.Union; u != nil; u = u.Union {
		n++
	}
	cs.cores = make([]core, n)
	first := &cs.cores[0]
	if err := s.compileCore(cs, first, sel, items, outer, distinct); err != nil {
		return nil, err
	}
	for i, prev, u := 1, sel, sel.Union; u != nil; i, prev, u = i+1, u, u.Union {
		c := &cs.cores[i]
		if err := s.compileCore(cs, c, u, u.Items, outer, u.Distinct); err != nil {
			return nil, err
		}
		c.unionAll = prev.UnionAll
		if len(c.names) != len(first.names) {
			return nil, errors.New("UNION branches have different column counts")
		}
	}
	if len(sel.OrderBy) == 0 {
		return cs, nil
	}
	outCols := cs.outCols()
	visible := len(outCols)
	next := visible
	var outScope *scope // the output row's, for the keys evaluated against it
	for _, o := range sel.OrderBy {
		k := sortKey{desc: o.Desc}
		cr, isRef := o.Expr.(*ast.ColumnRef)
		switch pos, positional := orderPosition(o); {
		case positional && (pos < 1 || pos > int64(visible)):
			return nil, fmt.Errorf("ORDER BY position %d out of range", pos)
		case positional:
			k.expr = column(0, int(pos)-1)
		case hiddenSort:
			k.expr = column(0, next)
			next++
		case isRef:
			// Column references match output columns by name, ignoring any
			// table qualifier (the source tables are gone by then).
			i := slices.IndexFunc(outCols, func(c string) bool { return up(c) == up(cr.Column) })
			if i < 0 {
				return nil, fmt.Errorf("ORDER BY column %s must appear in the select list", refName(cr))
			}
			k.expr = column(0, i)
		default:
			if outScope == nil {
				outScope = &scope{cols: scopeCols(nil, "", outCols), parent: outer}
			}
			l := lowering{s: s, owned: true}
			if k.expr = l.lower(o.Expr, outScope, false); l.err != nil {
				return nil, l.err
			}
			cs.adopt(&l.body)
		}
		cs.keys = append(cs.keys, k)
	}
	return cs, nil
}

// orderPosition reports whether an ORDER BY key is positional (ORDER BY
// 2) and its 1-based position.
func orderPosition(o ast.OrderItem) (int64, bool) {
	if lit, ok := o.Expr.(*ast.Literal); ok && lit.Val.K == types.KindInt {
		return lit.Val.I, true
	}
	return 0, false
}

// compileCore lowers one SELECT of the query expression cs: sources,
// expressions, access path, projection shape. It stops at the first
// static error.
func (s *Session) compileCore(cs *compiledSelect, c *core, sel *ast.Select, items []ast.SelectItem, outer *scope, distinct bool) error {
	c.distinct = distinct
	cols, err := s.compileFrom(cs, c, sel, outer)
	if err != nil {
		return err
	}
	c.width = len(cols)
	// Lowered in evaluation order — items, WHERE, HAVING, GROUP BY — so the
	// first static error is the one raised. The cores and joins nested in
	// them are listed after the core's own path.
	sc := &scope{cols: cols, parent: outer}
	l := lowering{s: s, owned: true}
	exprs := make([]rexpr, len(items))
	for i, it := range items {
		if !it.Star {
			exprs[i] = l.lower(it.Expr, sc, true)
		}
	}
	// An aggregate in an item or in HAVING groups the core; one inside a
	// subquery aggregates the subquery's rows, not this core's.
	c.grouped = l.aggs || len(sel.GroupBy) > 0 || sel.Having != nil
	c.where = l.lower(sel.Where, sc, false)
	c.having = l.lower(sel.Having, sc, true)
	c.groupBy = l.lowerAll(sel.GroupBy, sc)
	if l.err != nil {
		return l.err
	}
	if len(c.from) == 1 && c.from[0].sub == nil {
		t, _ := s.lookupTable(c.from[0].name)
		c.p = s.accessPath(t, c.where, ast.NumParams(sel))
		cs.paths = append(cs.paths, plan.Core{Table: c.p.table, Path: c.p.path})
	}
	cs.adopt(&l.body)
	c.names, c.projs, err = s.expandItems(items, exprs, cols, c.grouped)
	return err
}

// compileFrom resolves the FROM clause of sel into the core's source
// tree, in the order execution opens it, and returns the scope the tree
// produces, or the first static error of its sources and ONs.
func (s *Session) compileFrom(cs *compiledSelect, c *core, sel *ast.Select, outer *scope) (cols []scopeCol, err error) {
	add := func(tr ast.TableRef, j *ast.Join, skipViewDistinct bool) error {
		src, more, err := s.compileRef(&cs.planBody, tr, cols, outer, skipViewDistinct)
		cols = more
		c.from = append(c.from, fromStep{source: src, join: j})
		return err
	}
	for i := range sel.From {
		fi := &sel.From[i]
		entry := len(cols)
		if err := add(fi.Table, nil, false); err != nil {
			return nil, err
		}
		for k := range fi.Joins {
			j := &fi.Joins[k]
			nleft := len(cols) - entry
			if err := add(j.Right, j, j.Type == ast.JoinLeft && s.eng.cfg.Quirks.LeftJoinDistinctViewDup); err != nil {
				return nil, err
			}
			// ON reads the entry's columns so far, not an earlier entry's.
			sc := &scope{cols: cols[entry:], parent: outer}
			l := lowering{s: s, owned: true}
			step := &c.from[len(c.from)-1]
			if step.on = l.lower(j.On, sc, false); l.err != nil {
				return nil, l.err
			}
			cs.adopt(&l.body)
			if j.Type != ast.JoinCross && j.On != nil {
				algo := plan.NestedLoop
				if step.key = hashKey(step.on, nleft, ast.NumParams(sel)); step.key != nil {
					algo = plan.HashJoin
				}
				cs.joins = append(cs.joins, algo)
			}
		}
	}
	return cols, nil
}

// compileRef resolves one FROM reference — base table, view, or derived
// table — and appends the columns it adds to the scope cols.
// skipViewDistinct implements the LeftJoinDistinctViewDup quirk: the
// DISTINCT of a view definition is dropped when the view is expanded on
// the right of a LEFT OUTER JOIN.
func (s *Session) compileRef(b *planBody, tr ast.TableRef, cols []scopeCol, outer *scope, skipViewDistinct bool) (source, []scopeCol, error) {
	if tr.Subquery != nil {
		sub, err := s.compileSelect(tr.Subquery, outer, tr.Subquery.Distinct)
		if err != nil {
			return source{}, nil, err
		}
		b.adopt(&sub.planBody)
		names := sub.outCols()
		return source{sub: sub, width: len(names)}, scopeCols(cols, up(tr.Alias), names), nil
	}
	name := up(tr.Name)
	qual := name
	if tr.Alias != "" {
		qual = up(tr.Alias)
	}
	if t, ok := s.lookupTable(name); ok {
		return source{name: name, width: len(t.Cols)}, tableScopeCols(cols, qual, t), nil
	}
	v, ok := s.lookupView(name)
	if !ok {
		return source{}, nil, fmt.Errorf("%w: %s", ErrTableNotFound, name)
	}
	sub, err := s.compileSelect(v.Select, nil, v.Select.Distinct && !skipViewDistinct)
	if err != nil {
		return source{}, nil, fmt.Errorf("expanding view %s: %w", name, err)
	}
	b.adopt(&sub.planBody)
	names := sub.outCols()
	if len(v.Columns) > 0 {
		// Checked at CREATE VIEW too; a SELECT * body widens or narrows
		// when its table is recreated.
		if len(v.Columns) != len(names) {
			return source{}, nil, fmt.Errorf("view %s column list does not match definition", name)
		}
		names = v.Columns
	}
	return source{name: name, sub: sub, view: true, width: len(names)}, scopeCols(cols, qual, names), nil
}

// scopeCols appends a result's columns, named under one qualifier.
func scopeCols(cols []scopeCol, qual string, names []string) []scopeCol {
	cols = append(make([]scopeCol, 0, len(cols)+len(names)), cols...)
	for _, n := range names {
		cols = append(cols, scopeCol{qual: qual, name: up(n)})
	}
	return cols
}

// tableScopeCols appends one base table's columns under a qualifier.
func tableScopeCols(cols []scopeCol, qual string, t *Table) []scopeCol {
	cols = append(make([]scopeCol, 0, len(cols)+len(t.Cols)), cols...)
	for _, c := range t.Cols {
		cols = append(cols, scopeCol{qual: qual, name: c.Name})
	}
	return cols
}

// probeRoom is the least room an index probe is handed in the arena's
// ints slab: it appends its positions to the rest of the slab's chunk,
// and spills to the heap only past it.
const probeRoom = 16

// candidateRows evaluates the plan's key expressions and consults the
// table's lazy index. It returns (positions, true) when the index
// answered — positions are a superset of the WHERE-true rows, in table
// order, possibly empty — or (nil, false) under a full-scan variant and
// when only a full scan is sound (no access path, unbound parameters,
// non-INT key values that could still match through loose coercion,
// poisoned index).
func (s *Session) candidateRows(p *visit, t *Table) ([]int, bool) {
	if s.variant == plan.ForceFullScan || p.maxParam > len(s.bind) {
		// A full-scan variant visits every row. Bind-arity errors must
		// surface identically on every access path; only full iteration
		// reaches the Param evaluation.
		return nil, false
	}
	switch p.path {
	case plan.PointLookup:
		var kb [8]int64
		keys := kb[:0]
		for _, kv := range p.keyVals {
			v, null, ok := s.keyValue(kv)
			if !ok || null {
				return []int{}, ok
			}
			keys = append(keys, v)
		}
		ix, n := t.ic.eqIndex(t, p.keyCols)
		if ix == nil {
			return nil, false
		}
		room := s.mem.ints.room(probeRoom)
		out := ix.lookup(room, t.Rows[:n], keys)
		s.mem.ints.claim(room, out)
		return out, true
	case plan.RangeScan:
		// Bounds become inclusive; a strict one at the end of the INT
		// range admits nothing.
		var lo, hi int64
		if p.lo != nil {
			v, null, ok := s.keyValue(p.lo)
			if !ok || null || (p.loStrict && v == math.MaxInt64) {
				return []int{}, ok
			}
			lo = v
			if p.loStrict {
				lo++
			}
		}
		if p.hi != nil {
			strict := p.hiStrict || plantedRangeBoundDefect.Load()
			v, null, ok := s.keyValue(p.hi)
			if !ok || null || (strict && v == math.MinInt64) {
				return []int{}, ok
			}
			hi = v
			if strict {
				hi--
			}
		}
		ix, n := t.ic.rangeIndex(t, p.rangeCol)
		if ix == nil {
			return nil, false
		}
		room := s.mem.ints.room(probeRoom)
		out := ix.between(room, t.Rows[:n], lo, hi, p.lo != nil, p.hi != nil)
		s.mem.ints.claim(room, out)
		return out, true
	}
	return nil, false
}

// keyValue evaluates one key expression of an access plan — a literal, a
// lifted literal's slot or a parameter. An INT probes; NULL proves the
// visit empty (a comparison with NULL is Unknown on every row); for
// anything else ok is false and only a scan is sound — a float or string
// key can still match an INT column through types.Compare's loose
// coercion, and an error must surface from the scan.
func (s *Session) keyValue(x rexpr) (v int64, null, ok bool) {
	val, err := s.eval(x, nil)
	if err != nil {
		return 0, false, false
	}
	return val.I, val.K == types.KindNull, val.K == types.KindInt || val.K == types.KindNull
}

// dmlPlan is the plan of one UPDATE or DELETE: its WHERE and SET values
// lowered in the target table's scope, and the access path of its row
// visit — chosen by the rules, and behind the gates, a SELECT core's is.
type dmlPlan struct {
	planBody
	p     *visit
	where rexpr
	sets  []rexpr
	cols  []int // the SET columns' ordinals, index-aligned with sets
}

// planDML returns the memoised plan of the shape of an UPDATE/DELETE st
// over t, compiling st on a miss, or its static error. Caller holds t's
// latch on the live plane.
func (s *Session) planDML(shape, st ast.Statement, t *Table, where ast.Expr, sets []ast.SetClause) (*dmlPlan, error) {
	e := s.eng
	me, known := e.dmlMemo.load(shape, e.schemaVersion)
	hit := me != nil
	if !hit {
		dp, err := s.compileDML(st, t, where, sets)
		me = e.dmlMemo.store(shape, known, e.schemaVersion, dp, err)
	}
	if me.err != nil {
		return nil, me.err
	}
	dp := me.plan
	s.lastPlan = plan.Info{Table: t.Name, Path: dp.p.path, CacheHit: hit, Cores: dp.paths, Joins: dp.joins}
	return dp, nil
}

// compileDML compiles an UPDATE/DELETE over t (planDML). An unknown SET
// column is raised ahead of WHERE's static errors, then the SET values'.
func (s *Session) compileDML(st ast.Statement, t *Table, where ast.Expr, sets []ast.SetClause) (*dmlPlan, error) {
	dp := &dmlPlan{cols: make([]int, len(sets))}
	for i, set := range sets {
		if dp.cols[i] = t.colIndex(set.Column); dp.cols[i] < 0 {
			return nil, fmt.Errorf("unknown column %s in table %s", set.Column, t.Name)
		}
	}
	l := lowering{s: s, owned: true}
	sc := &scope{cols: tableScopeCols(nil, t.Name, t)}
	dp.where, dp.sets = l.lower(where, sc, false), make([]rexpr, len(sets))
	for i, set := range sets {
		dp.sets[i] = l.lower(set.Value, sc, false)
	}
	if l.err != nil {
		return nil, l.err
	}
	dp.p = s.accessPath(t, dp.where, ast.NumParams(st))
	dp.paths = append([]plan.Core{{Table: t.Name, Path: dp.p.path}}, l.body.paths...)
	dp.joins = l.body.joins
	return dp, nil
}

// execSelectRLocked is the read-lock SELECT path: probe the memo by the
// handle's shape, compile the handle's tree on a miss or a stale stamp,
// and execute. A plan variant (ExecSelectVariant) runs the same plan
// with the once rule off; it records no plan and counts as a full scan.
// Caller holds the engine read lock, has chosen the read plane and has
// set s.bind and s.lits.
func (s *Session) execSelectRLocked(p *stmt.Parsed) (*Result, error) {
	e := s.eng
	ver := s.planVersion()
	me, known := e.planMemo.load(p.Shape, ver)
	hit := me != nil
	if hit {
		e.memoHits.Add(1)
	} else {
		if known {
			e.memoStale.Add(1)
		}
		e.memoMisses.Add(1)
		cs, err := s.compileSelect(p.Select, nil, p.Select.Distinct)
		me = e.planMemo.store(p.Shape, known, ver, cs, err)
	}
	if me.err != nil {
		return nil, me.err
	}
	cs := me.plan
	path := plan.FullScan // what a variant counts as
	if s.variant == plan.ForceAuto {
		// A pure SELECT reads one plane that nothing changes while it
		// runs, and calls no sequence function: an uncorrelated nested
		// select answers the same each time, so it runs once.
		s.onceOn = true
		defer func() { s.onceOn = false }()
		// The plan taken is counted once, under its core's path when the
		// statement is a single base-table core and as a full scan
		// otherwise.
		s.lastPlan = plan.Info{CacheHit: hit, Cores: cs.paths, Joins: cs.joins}
		if c := cs.cores[0].p; c != nil && len(cs.cores) == 1 {
			s.lastPlan.Table, s.lastPlan.Path = c.table, c.path
		}
		path = s.lastPlan.Path
	}
	e.pathExecs[path].Add(1)
	rows, err := s.runSelect(cs, nil, &s.mem)
	if err != nil {
		return nil, err
	}
	return s.rowsResult(cs, rows), nil
}

// rowsResult names the rows a statement-level SELECT produced. The
// names are the plan's own, shared with every execution of it: a
// caller that changes a result changes a Clone.
func (s *Session) rowsResult(cs *compiledSelect, rows [][]types.Value) *Result {
	return s.mem.result(Result{Kind: ResultRows, Columns: cs.outCols(), Rows: rows})
}

// runUnowned compiles and runs a select no memoised plan owns — an
// INSERT's source, a view definition under validation, a
// sequence-advancing statement, none of which may publish to the memo —
// counting the compile as the miss it is.
func (s *Session) runUnowned(sel *ast.Select) (*compiledSelect, [][]types.Value, error) {
	s.eng.memoMisses.Add(1)
	cs, err := s.compileSelect(sel, nil, sel.Distinct)
	if err != nil {
		return nil, nil, err
	}
	rows, err := s.runSelect(cs, nil, nil)
	return cs, rows, err
}

// LastPlan describes how the session's most recent SELECT, UPDATE or
// DELETE reached its rows: the access path of the statement and of every
// core nested in it, and whether the plan came out of the shared memo.
func (s *Session) LastPlan() plan.Info { return s.lastPlan }

// ExecSelectVariant executes a pure SELECT as a plan variant, on the
// read plane a normal execution would use: the memoised plan, with the
// narrowing choices force turns off declined at run time. This is the
// hook behind the plan-variant differential oracle: any disagreement
// with a normal run convicts the engine. Like Exec, it starts a
// statement: the session's previous result is reclaimed, and this one
// is valid until the next (Result).
func (s *Session) ExecSelectVariant(p *stmt.Parsed, force plan.Force, args []types.Value) (*Result, error) {
	e := s.eng
	s.startStatement()
	e.mu.RLock()
	defer e.mu.RUnlock()
	if s.closed {
		return nil, ErrSessionClosed
	}
	if p.Select == nil || e.selectAdvancesSequences(p) {
		return nil, errors.New("variant execution requires a pure SELECT")
	}
	s.variant = force
	defer func() { s.variant = plan.ForceAuto }()
	return s.execSelectRead(p, e.cfg.Bind.Apply(args))
}

// PlanCacheStats returns the shared SELECT plan memo's counters. A miss
// is a compilation no memo entry served: a statement's first execution
// under a schema generation, or a select compiled where it is evaluated.
func (e *Engine) PlanCacheStats() plan.CacheStats {
	return plan.CacheStats{
		Hits:          e.memoHits.Load(),
		Misses:        e.memoMisses.Load(),
		Invalidations: e.memoStale.Load(),
	}
}
