package qgen

import (
	"fmt"

	"divsql/internal/sql/ast"
	"divsql/internal/sql/types"
)

// scopeEntry is one relation visible to a query under an optional alias.
type scopeEntry struct {
	alias string
	rel   *relation
}

// scope is the set of relations a query's expressions may reference.
type scope []scopeEntry

// ref builds a (qualified when aliased) column reference.
func (e scopeEntry) ref(c *column) *ast.ColumnRef {
	return &ast.ColumnRef{Table: e.alias, Column: c.name}
}

// randomCol picks one column from the scope.
func (s scope) randomCol(g *Generator, want func(*column) bool) (scopeEntry, *column, bool) {
	order := g.rnd.Perm(len(s))
	for _, i := range order {
		if ci := s[i].rel.pick(g.rnd, want); ci >= 0 {
			return s[i], s[i].rel.col(ci), true
		}
	}
	return scopeEntry{}, nil, false
}

func anyCol(*column) bool { return true }

func numericCol(c *column) bool { return c.kind == types.KindInt || c.kind == types.KindFloat }

// ---------------------------------------------------------------------------
// Expressions

// scalar builds a typed scalar expression over the scope for a select
// item. depth caps decoration nesting.
func (g *Generator) scalar(s scope, depth int) ast.Expr {
	e, c, ok := s.randomCol(g, anyCol)
	if !ok {
		return &ast.Literal{Val: types.NewInt(1)}
	}
	ref := e.ref(c)
	if depth <= 0 || g.rnd.Intn(3) == 0 {
		return ref
	}
	lit := func() *ast.Literal { return &ast.Literal{Val: g.literal(c.kind)} }
	switch c.kind {
	case types.KindInt:
		choices := []func() ast.Expr{
			func() ast.Expr { return &ast.FuncCall{Name: "ABS", Args: []ast.Expr{ref}} },
			func() ast.Expr { return &ast.FuncCall{Name: "SIGN", Args: []ast.Expr{ref}} },
			func() ast.Expr { return &ast.Binary{Op: ast.OpAdd, L: ref, R: lit()} },
			// Integer multiplication stays integral: no float-precision
			// quirk region is entered.
			func() ast.Expr {
				return &ast.Binary{Op: ast.OpMul, L: ref, R: &ast.Literal{Val: types.NewInt(int64(2 + g.rnd.Intn(5)))}}
			},
			func() ast.Expr { return &ast.FuncCall{Name: "NULLIF", Args: []ast.Expr{ref, lit()}} },
			func() ast.Expr {
				return &ast.Case{Whens: []ast.WhenClause{{
					Cond: &ast.Binary{Op: ast.OpGt, L: ref, R: lit()},
					Then: &ast.Literal{Val: types.NewInt(1)},
				}}, Else: &ast.Literal{Val: types.NewInt(0)}}
			},
			func() ast.Expr { return &ast.Cast{X: ref, To: ast.TypeName{Name: "VARCHAR", Args: []int{12}}} },
		}
		return choices[g.rnd.Intn(len(choices))]()
	case types.KindFloat:
		choices := []func() ast.Expr{
			func() ast.Expr { return &ast.FuncCall{Name: "FLOOR", Args: []ast.Expr{ref}} },
			func() ast.Expr { return &ast.FuncCall{Name: "CEIL", Args: []ast.Expr{ref}} },
			func() ast.Expr {
				return &ast.FuncCall{Name: "ROUND", Args: []ast.Expr{ref, &ast.Literal{Val: types.NewInt(1)}}}
			},
			func() ast.Expr { return &ast.Binary{Op: ast.OpAdd, L: ref, R: lit()} },
			func() ast.Expr { return &ast.Binary{Op: ast.OpSub, L: ref, R: lit()} },
		}
		return choices[g.rnd.Intn(len(choices))]()
	default:
		choices := []func() ast.Expr{
			func() ast.Expr { return &ast.FuncCall{Name: "UPPER", Args: []ast.Expr{ref}} },
			func() ast.Expr { return &ast.FuncCall{Name: "LOWER", Args: []ast.Expr{ref}} },
			func() ast.Expr { return &ast.FuncCall{Name: "TRIM", Args: []ast.Expr{ref}} },
			func() ast.Expr { return &ast.Binary{Op: ast.OpConcat, L: ref, R: lit()} },
			func() ast.Expr {
				return &ast.FuncCall{Name: "REPLACE", Args: []ast.Expr{
					ref,
					&ast.Literal{Val: types.NewString(alphabet[g.rnd.Intn(len(alphabet))])},
					&ast.Literal{Val: types.NewString(g.word())},
				}}
			},
		}
		return choices[g.rnd.Intn(len(choices))]()
	}
}

// predicate builds a boolean expression over the scope. depth caps both
// AND/OR nesting and subquery use (subqueries only while depth ≥ 1).
func (g *Generator) predicate(s scope, depth int) ast.Expr {
	if depth > 0 && g.rnd.Intn(10) < 4 {
		l := g.predicate(s, depth-1)
		r := g.predicate(s, depth-1)
		op := ast.OpAnd
		if g.rnd.Intn(2) == 0 {
			op = ast.OpOr
		}
		if g.rnd.Intn(8) == 0 {
			return &ast.Unary{Op: "NOT", X: &ast.Binary{Op: op, L: l, R: r}}
		}
		return &ast.Binary{Op: op, L: l, R: r}
	}
	e, c, ok := s.randomCol(g, anyCol)
	if !ok {
		return &ast.Binary{Op: ast.OpEq, L: &ast.Literal{Val: types.NewInt(1)}, R: &ast.Literal{Val: types.NewInt(1)}}
	}
	ref := e.ref(c)
	cmpOps := []ast.BinaryOp{ast.OpEq, ast.OpNe, ast.OpLt, ast.OpLe, ast.OpGt, ast.OpGe}
	kind := 0
	switch c.kind {
	case types.KindString:
		kind = g.rnd.Intn(5) // cmp, like, isnull, inlist, subq
	default:
		kind = []int{0, 0, 2, 3, 4, 5}[g.rnd.Intn(6)] // cmp, isnull, inlist, subq, between
	}
	switch kind {
	case 1: // LIKE (string only)
		return &ast.Like{
			X:   ref,
			Not: g.rnd.Intn(6) == 0,
			Pattern: &ast.Literal{
				Val: types.NewString(alphabet[g.rnd.Intn(len(alphabet))] + "%"),
			},
		}
	case 2:
		return &ast.IsNull{X: ref, Not: g.rnd.Intn(2) == 0}
	case 3:
		n := 2 + g.rnd.Intn(2)
		list := make([]ast.Expr, n)
		for i := range list {
			list[i] = &ast.Literal{Val: g.literal(c.kind)}
		}
		return &ast.In{X: ref, Not: g.rnd.Intn(6) == 0, List: list}
	case 4:
		if depth >= 1 {
			if sub := g.subqueryFor(c.kind, depth-1); sub != nil {
				return &ast.In{X: ref, Not: g.rnd.Intn(6) == 0, Select: sub}
			}
		}
		fallthrough
	case 5:
		if kind == 5 && depth >= 1 && g.rnd.Intn(2) == 0 {
			if sub := g.existsSubquery(depth - 1); sub != nil {
				return &ast.Exists{Not: g.rnd.Intn(4) == 0, Select: sub}
			}
		}
		if c.kind != types.KindString && g.rnd.Intn(3) == 0 {
			lo := int64(g.rnd.Intn(40))
			return &ast.Between{
				X:  ref,
				Lo: &ast.Literal{Val: types.NewInt(lo)},
				Hi: &ast.Literal{Val: types.NewInt(lo + int64(1+g.rnd.Intn(40)))},
			}
		}
		fallthrough
	default:
		return &ast.Binary{Op: cmpOps[g.rnd.Intn(len(cmpOps))], L: ref, R: &ast.Literal{Val: g.literal(c.kind)}}
	}
}

// subqueryFor builds SELECT col FROM rel [WHERE ...] yielding the kind.
func (g *Generator) subqueryFor(k types.Kind, depth int) *ast.Select {
	order := g.rnd.Perm(len(g.tables))
	for _, i := range order {
		t := g.tables[i]
		if ci := t.pick(g.rnd, func(c *column) bool { return c.kind == k }); ci >= 0 {
			sel := &ast.Select{
				Items: []ast.SelectItem{{Expr: &ast.ColumnRef{Column: t.col(ci).name}}},
				From:  []ast.FromItem{{Table: ast.TableRef{Name: t.name}}},
			}
			if g.rnd.Intn(2) == 0 {
				sel.Where = g.predicate(scope{{"", t}}, depth)
			}
			return sel
		}
	}
	return nil
}

// existsSubquery builds an uncorrelated EXISTS body.
func (g *Generator) existsSubquery(depth int) *ast.Select {
	t := g.anyTable()
	if t == nil {
		return nil
	}
	ci := t.pick(g.rnd, anyCol)
	return &ast.Select{
		Items: []ast.SelectItem{{Expr: &ast.ColumnRef{Column: t.col(ci).name}}},
		From:  []ast.FromItem{{Table: ast.TableRef{Name: t.name}}},
		Where: g.predicate(scope{{"", t}}, depth),
	}
}

// seqCallExpr returns NEXTVAL(seq) over a live sequence, or nil when
// the profile has sequences off or none exists yet. Wiring the call
// into SELECT items makes the stream exercise the sequence-advancing
// SELECT classification end to end: every layer must treat such a query
// as a write (lock mode, ordering, read policy) or the servers drift.
// Profiles that include MS must keep Sequences off — MS has no
// sequences, and IB spells the function GEN_ID — so the harness gates
// this behind a PG/OR server set (see difftest.Config.WithSequences).
func (g *Generator) seqCallExpr() ast.Expr {
	if !g.opts.Sequences || len(g.seqs) == 0 {
		return nil
	}
	name := g.seqs[g.rnd.Intn(len(g.seqs))]
	return &ast.FuncCall{Name: "NEXTVAL", Args: []ast.Expr{&ast.ColumnRef{Column: name}}}
}

// scalarAggSubquery builds a single-row scalar subquery (aggregate).
func (g *Generator) scalarAggSubquery() *ast.Select {
	t := g.anyTable()
	if t == nil {
		return nil
	}
	var agg ast.Expr
	if ci := t.pick(g.rnd, numericCol); ci >= 0 && g.rnd.Intn(2) == 0 {
		names := []string{"MIN", "MAX", "SUM"}
		agg = &ast.FuncCall{Name: names[g.rnd.Intn(len(names))], Args: []ast.Expr{&ast.ColumnRef{Column: t.col(ci).name}}}
	} else {
		agg = &ast.FuncCall{Name: "COUNT", Star: true}
	}
	// The aggregate is aliased even though the scalar value is all the
	// outer query uses: an unaliased AVG/SUM select item is a quirk
	// region (IB blanks the name, MS errors out).
	return &ast.Select{
		Items: []ast.SelectItem{{Expr: agg, Alias: "A1"}},
		From:  []ast.FromItem{{Table: ast.TableRef{Name: t.name}}},
	}
}

// ---------------------------------------------------------------------------
// Query shapes

// pickShape draws a SELECT shape from the adaptive Weights plane
// (weight order matches Shapes).
func (g *Generator) pickShape() Shape {
	w := g.w
	i := g.weightedPick([]int{w.SimpleSelect, w.JoinSelect, w.GroupSelect, w.UnionSelect, w.StarSelect, w.PointSelect, w.RangeSelect})
	if i < 0 {
		return ShapeSimple
	}
	return Shapes[i]
}

func (g *Generator) genSelect() ast.Statement {
	switch g.pickShape() {
	case ShapeJoin:
		if st := g.genJoinSelect(); st != nil {
			return st
		}
		return g.genSimpleSelect()
	case ShapeGroup:
		if st := g.genGroupSelect(); st != nil {
			return st
		}
		return g.genSimpleSelect()
	case ShapeUnion:
		if st := g.genUnionSelect(); st != nil {
			return st
		}
		return g.genSimpleSelect()
	case ShapeStar:
		return g.genStarSelect()
	case ShapePoint:
		if st := g.genPointSelect(); st != nil {
			return st
		}
		return g.genSimpleSelect()
	case ShapeRange:
		if st := g.genRangeSelect(); st != nil {
			return st
		}
		return g.genSimpleSelect()
	default:
		return g.genSimpleSelect()
	}
}

// aliasItems wraps expressions as a deterministic aliased select list.
// Every expression item carries an alias so result column names agree
// across servers (and the unaliased-aggregate quirk region on IB/MS is
// never entered by accident).
func aliasItems(exprs []ast.Expr) []ast.SelectItem {
	items := make([]ast.SelectItem, len(exprs))
	for i, e := range exprs {
		items[i] = ast.SelectItem{Expr: e, Alias: fmt.Sprintf("X%d", i+1)}
	}
	return items
}

// maybeOrderBy attaches a positional ORDER BY (probability ~1/2).
// Positional keys are the only ORDER BY form valid in every query shape
// the engine offers (select-list aliases are not sort keys).
func (g *Generator) maybeOrderBy(sel *ast.Select, nItems int) {
	if nItems > 0 && g.rnd.Intn(2) == 0 {
		sel.OrderBy = []ast.OrderItem{{
			Expr: &ast.Literal{Val: types.NewInt(int64(1 + g.rnd.Intn(nItems)))},
			Desc: g.rnd.Intn(3) == 0,
		}}
	}
}

func (g *Generator) genSimpleSelect() ast.Statement {
	r := g.anyRelation()
	if r == nil {
		return nil
	}
	s := scope{{"", r}}
	if g.opts.PartitionSympathy && g.rnd.Intn(4) == 0 {
		return g.genAggSelect(r, s)
	}
	n := 1 + g.rnd.Intn(3)
	exprs := make([]ast.Expr, 0, n)
	for i := 0; i < n; i++ {
		if g.rnd.Intn(7) == 0 {
			if sq := g.seqCallExpr(); sq != nil {
				exprs = append(exprs, sq)
				continue
			}
		}
		if g.rnd.Intn(12) == 0 {
			if sub := g.scalarAggSubquery(); sub != nil {
				exprs = append(exprs, &ast.Subquery{Select: sub})
				continue
			}
		}
		exprs = append(exprs, g.scalar(s, maxExprDepth))
	}
	sel := &ast.Select{
		Items: aliasItems(exprs),
		From:  []ast.FromItem{{Table: ast.TableRef{Name: r.name}}},
	}
	whereIn10 := 7
	if g.opts.PartitionSympathy {
		whereIn10 = 9
	}
	if g.rnd.Intn(10) < whereIn10 {
		sel.Where = g.predicate(s, 2)
	}
	if g.rnd.Intn(7) == 0 {
		sel.Distinct = true
	}
	g.maybeOrderBy(sel, len(exprs))
	return sel
}

// genAggSelect emits the additive-TLP query form: an all-COUNT/SUM item
// list over one table with a partitionable WHERE. Only PartitionSympathy
// streams draw it (via genSimpleSelect), so the fixed profiles'
// seeded streams are untouched.
func (g *Generator) genAggSelect(r *relation, s scope) ast.Statement {
	n := 1 + g.rnd.Intn(2)
	items := make([]ast.SelectItem, 0, n)
	for i := 0; i < n; i++ {
		var agg ast.Expr
		switch {
		case g.rnd.Intn(2) == 0:
			if ci := r.pick(g.rnd, numericCol); ci >= 0 {
				agg = &ast.FuncCall{Name: "SUM", Args: []ast.Expr{&ast.ColumnRef{Column: r.col(ci).name}}}
			}
		case g.rnd.Intn(2) == 0:
			if ci := r.pick(g.rnd, anyCol); ci >= 0 {
				agg = &ast.FuncCall{Name: "COUNT", Args: []ast.Expr{&ast.ColumnRef{Column: r.col(ci).name}}}
			}
		}
		if agg == nil {
			agg = &ast.FuncCall{Name: "COUNT", Star: true}
		}
		// Aliased like every generated aggregate item: unaliased SUM/AVG
		// names are a dialect quirk region (IB blanks them, MS errors).
		items = append(items, ast.SelectItem{Expr: agg, Alias: fmt.Sprintf("A%d", i+1)})
	}
	sel := &ast.Select{Items: items, From: []ast.FromItem{{Table: ast.TableRef{Name: r.name}}}}
	if g.rnd.Intn(10) < 9 {
		sel.Where = g.predicate(s, 2)
	}
	return sel
}

func (g *Generator) genStarSelect() ast.Statement {
	r := g.anyRelation()
	if r == nil {
		return nil
	}
	sel := &ast.Select{
		Items: []ast.SelectItem{{Star: true}},
		From:  []ast.FromItem{{Table: ast.TableRef{Name: r.name}}},
	}
	if g.rnd.Intn(2) == 0 {
		sel.Where = g.predicate(scope{{"", r}}, 1)
	}
	if g.rnd.Intn(10) < 6 {
		ci := r.pick(g.rnd, anyCol)
		sel.OrderBy = []ast.OrderItem{{Expr: &ast.ColumnRef{Column: r.col(ci).name}, Desc: g.rnd.Intn(3) == 0}}
	}
	return sel
}

// pkProbe picks a base table whose primary-key band is live — keys have
// been issued and not all aged away — and returns it with the PK column
// ordinal; (nil, -1) when no table qualifies.
func (g *Generator) pkProbe() (*relation, int) {
	if len(g.tables) == 0 {
		return nil, -1
	}
	order := g.rnd.Perm(len(g.tables))
	for _, i := range order {
		t := g.tables[i]
		if !t.hasPK || t.nextPK <= t.agedPK {
			continue
		}
		for ci := range t.cols {
			if t.cols[ci].pk {
				return t, ci
			}
		}
	}
	return nil, -1
}

// genPointSelect emits a single-table SELECT whose WHERE pins the
// primary key to one value from the live band [agedPK, nextPK) — the
// statement shape the engine's analyzer lowers to an index point
// lookup. Targeting the live band keeps the probes mostly hitting rows
// instead of vacuum. A quarter of the probes carry a residual conjunct
// the index cannot serve, exercising the executor's re-evaluate-the-
// full-WHERE side of the candidate-superset contract.
func (g *Generator) genPointSelect() ast.Statement {
	t, pi := g.pkProbe()
	if t == nil {
		return nil
	}
	s := scope{{"", t}}
	pk := t.col(pi)
	key := t.agedPK + int64(g.rnd.Intn(int(t.nextPK-t.agedPK)))
	n := 1 + g.rnd.Intn(2)
	exprs := make([]ast.Expr, 0, n+1)
	exprs = append(exprs, &ast.ColumnRef{Column: pk.name})
	for i := 0; i < n; i++ {
		e, c, ok := s.randomCol(g, anyCol)
		if !ok {
			break
		}
		exprs = append(exprs, e.ref(c))
	}
	where := ast.Expr(&ast.Binary{
		Op: ast.OpEq,
		L:  &ast.ColumnRef{Column: pk.name},
		R:  &ast.Literal{Val: types.NewInt(key)},
	})
	if g.rnd.Intn(4) == 0 {
		where = &ast.Binary{Op: ast.OpAnd, L: where, R: g.predicate(s, 0)}
	}
	return &ast.Select{
		Items: aliasItems(exprs),
		From:  []ast.FromItem{{Table: ast.TableRef{Name: t.name}}},
		Where: where,
	}
}

// genRangeSelect emits a single-table SELECT bounded on the primary key
// — BETWEEN, a two-sided conjunction, or a one-sided ordering
// comparison over the live band — the shape the analyzer lowers to a
// sorted-index range scan.
func (g *Generator) genRangeSelect() ast.Statement {
	t, pi := g.pkProbe()
	if t == nil {
		return nil
	}
	s := scope{{"", t}}
	pk := t.col(pi)
	lo := t.agedPK + int64(g.rnd.Intn(int(t.nextPK-t.agedPK)))
	width := 1 + int64(g.rnd.Intn(20))
	ref := func() *ast.ColumnRef { return &ast.ColumnRef{Column: pk.name} }
	var where ast.Expr
	switch g.rnd.Intn(4) {
	case 0:
		where = &ast.Binary{Op: ast.OpGe, L: ref(), R: &ast.Literal{Val: types.NewInt(lo)}}
	case 1:
		where = &ast.Binary{Op: ast.OpLt, L: ref(), R: &ast.Literal{Val: types.NewInt(lo + width)}}
	case 2:
		where = &ast.Binary{
			Op: ast.OpAnd,
			L:  &ast.Binary{Op: ast.OpGt, L: ref(), R: &ast.Literal{Val: types.NewInt(lo - 1)}},
			R:  &ast.Binary{Op: ast.OpLe, L: ref(), R: &ast.Literal{Val: types.NewInt(lo + width)}},
		}
	default:
		where = &ast.Between{
			X:  ref(),
			Lo: &ast.Literal{Val: types.NewInt(lo)},
			Hi: &ast.Literal{Val: types.NewInt(lo + width)},
		}
	}
	n := 1 + g.rnd.Intn(2)
	exprs := make([]ast.Expr, 0, n+1)
	exprs = append(exprs, ref())
	for i := 0; i < n; i++ {
		e, c, ok := s.randomCol(g, anyCol)
		if !ok {
			break
		}
		exprs = append(exprs, e.ref(c))
	}
	sel := &ast.Select{
		Items: aliasItems(exprs),
		From:  []ast.FromItem{{Table: ast.TableRef{Name: t.name}}},
		Where: where,
	}
	g.maybeOrderBy(sel, len(exprs))
	return sel
}

func (g *Generator) genJoinSelect() ast.Statement {
	left := g.anyRelation()
	if left == nil {
		return nil
	}
	aliases := []string{"A", "B", "C", "D"}
	s := scope{{aliases[0], left}}
	nJoins := 1 + g.rnd.Intn(maxJoins)
	if nJoins > len(aliases)-1 {
		nJoins = len(aliases) - 1
	}
	var joins []ast.Join
	for j := 0; j < nJoins; j++ {
		right := g.anyRelation()
		if right == nil {
			break
		}
		re := scopeEntry{aliases[j+1], right}
		jt := ast.JoinInner
		if g.rnd.Intn(10) < 3 {
			jt = ast.JoinLeft
		}
		joins = append(joins, ast.Join{
			Type:  jt,
			Right: ast.TableRef{Name: right.name, Alias: re.alias},
			On:    g.joinCond(s, re),
		})
		s = append(s, re)
	}
	if len(joins) == 0 {
		return nil
	}
	n := 2 + g.rnd.Intn(3)
	exprs := make([]ast.Expr, 0, n)
	for i := 0; i < n; i++ {
		e, c, ok := s.randomCol(g, anyCol)
		if !ok {
			break
		}
		exprs = append(exprs, e.ref(c))
	}
	sel := &ast.Select{
		Items: aliasItems(exprs),
		From:  []ast.FromItem{{Table: ast.TableRef{Name: left.name, Alias: aliases[0]}, Joins: joins}},
	}
	if g.rnd.Intn(2) == 0 {
		sel.Where = g.predicate(s, 1)
	}
	g.maybeOrderBy(sel, len(exprs))
	return sel
}

// joinCond prefers an equality between same-kind columns of the new
// relation and one already in scope; 1 = 1 is the cross-join fallback.
func (g *Generator) joinCond(s scope, right scopeEntry) ast.Expr {
	order := g.rnd.Perm(len(s))
	for _, i := range order {
		le := s[i]
		for _, want := range []func(*column) bool{numericCol, anyCol} {
			if li := le.rel.pick(g.rnd, want); li >= 0 {
				lc := le.rel.col(li)
				if ri := right.rel.pick(g.rnd, func(c *column) bool {
					if numericCol(lc) {
						return numericCol(c)
					}
					return c.kind == lc.kind
				}); ri >= 0 {
					return &ast.Binary{Op: ast.OpEq, L: le.ref(lc), R: right.ref(right.rel.col(ri))}
				}
			}
		}
	}
	return &ast.Binary{Op: ast.OpEq, L: &ast.Literal{Val: types.NewInt(1)}, R: &ast.Literal{Val: types.NewInt(1)}}
}

func (g *Generator) genGroupSelect() ast.Statement {
	t := g.anyRelation()
	if t == nil || len(t.cols) < 2 {
		return nil
	}
	s := scope{{"", t}}
	gi := t.pick(g.rnd, anyCol)
	gcol := t.col(gi)
	exprs := []ast.Expr{&ast.ColumnRef{Column: gcol.name}}
	nAggs := 1 + g.rnd.Intn(2)
	for i := 0; i < nAggs; i++ {
		if ci := t.pick(g.rnd, numericCol); ci >= 0 && g.rnd.Intn(3) != 0 {
			names := []string{"SUM", "AVG", "MIN", "MAX"}
			exprs = append(exprs, &ast.FuncCall{
				Name:     names[g.rnd.Intn(len(names))],
				Args:     []ast.Expr{&ast.ColumnRef{Column: t.col(ci).name}},
				Distinct: g.rnd.Intn(8) == 0,
			})
		} else {
			exprs = append(exprs, &ast.FuncCall{Name: "COUNT", Star: true})
		}
	}
	sel := &ast.Select{
		Items:   aliasItems(exprs),
		From:    []ast.FromItem{{Table: ast.TableRef{Name: t.name}}},
		GroupBy: []ast.Expr{&ast.ColumnRef{Column: gcol.name}},
	}
	if g.rnd.Intn(3) == 0 {
		sel.Where = g.predicate(s, 1)
	}
	if g.rnd.Intn(2) == 0 {
		sel.Having = &ast.Binary{
			Op: ast.OpGt,
			L:  &ast.FuncCall{Name: "COUNT", Star: true},
			R:  &ast.Literal{Val: types.NewInt(int64(g.rnd.Intn(3)))},
		}
	}
	if g.rnd.Intn(2) == 0 {
		sel.OrderBy = []ast.OrderItem{{Expr: &ast.Literal{Val: types.NewInt(1)}}}
	}
	return sel
}

// genUnionSelect projects kind-compatible column lists from two
// relations and combines them with UNION [ALL].
func (g *Generator) genUnionSelect() ast.Statement {
	r1 := g.anyRelation()
	if r1 == nil {
		return nil
	}
	k := 1 + g.rnd.Intn(2)
	if k > len(r1.cols) {
		k = len(r1.cols)
	}
	perm := g.rnd.Perm(len(r1.cols))[:k]
	kinds := make([]types.Kind, k)
	left := make([]ast.Expr, k)
	for i, ci := range perm {
		kinds[i] = r1.col(ci).kind
		left[i] = &ast.ColumnRef{Column: r1.col(ci).name}
	}
	// Find a relation offering the same kind signature.
	cands := make([]*relation, 0, len(g.tables)+len(g.views))
	cands = append(cands, g.tables...)
	cands = append(cands, g.views...)
	order := g.rnd.Perm(len(cands))
	for _, i := range order {
		r2 := cands[i]
		right := make([]ast.Expr, 0, k)
		used := make([]bool, len(r2.cols))
		for _, want := range kinds {
			found := -1
			for j := range r2.cols {
				if !used[j] && r2.col(j).kind == want {
					found = j
					break
				}
			}
			if found < 0 {
				break
			}
			used[found] = true
			right = append(right, &ast.ColumnRef{Column: r2.col(found).name})
		}
		if len(right) != k {
			continue
		}
		head := &ast.Select{
			Items:    aliasItems(left),
			From:     []ast.FromItem{{Table: ast.TableRef{Name: r1.name}}},
			Union:    &ast.Select{Items: aliasItems(right), From: []ast.FromItem{{Table: ast.TableRef{Name: r2.name}}}},
			UnionAll: g.rnd.Intn(2) == 0,
		}
		if g.rnd.Intn(5) < 2 {
			head.OrderBy = []ast.OrderItem{{Expr: &ast.Literal{Val: types.NewInt(1)}}}
		}
		return head
	}
	return nil
}
