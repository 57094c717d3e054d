package engine

import (
	"fmt"
	"slices"
	"sort"
	"strings"

	"divsql/internal/engine/plan"
	"divsql/internal/sql/ast"
	"divsql/internal/sql/types"
)

// relation is an intermediate result during query evaluation.
type relation struct {
	cols []scopeCol
	rows [][]types.Value
}

// This file is the execution side of the engine's one SELECT executor:
// runSelect and the operators it drives. Every read of rows — a
// statement-level SELECT, normal or forced, a subquery, EXISTS or
// IN (SELECT …) of any expression, an INSERT's source, a view definition
// under validation, a view body or derived table in a FROM clause —
// compiles (compiled.go) and then comes through here.

// runSelect executes a compiled query expression: cores → union → sort →
// limit. outer is the scope the expression is evaluated in, for
// correlated references (nil at top level). The nested selects its
// expressions evaluate are found through s.subs while it runs. Caller
// holds the engine lock (at least read mode) and has set s.bind.
func (s *Session) runSelect(cs *compiledSelect, outer *scope) ([][]types.Value, error) {
	saved := s.subs
	s.subs = cs.subs
	rows, err := s.runCores(cs, outer)
	if err == nil && len(cs.keys) > 0 {
		if err = cs.sortErr; err == nil {
			err = s.sortRows(cs, rows, outer)
		}
		for i := 0; cs.hidden > 0 && i < len(rows); i++ {
			rows[i] = rows[i][:len(rows[i])-int(cs.hidden)]
		}
	}
	s.subs = saved
	if err != nil {
		return nil, err
	}
	if sel := cs.sel; sel.LimitSyn != ast.LimitNone && int64(len(rows)) > sel.Limit {
		rows = rows[:sel.Limit]
	}
	return rows, nil
}

// runCores runs the SELECT and its UNION branches, merging each branch
// into the result as it completes.
func (s *Session) runCores(cs *compiledSelect, outer *scope) ([][]types.Value, error) {
	var rows [][]types.Value
	for i := range cs.cores {
		c := &cs.cores[i]
		branch, err := s.runCore(c, outer)
		if err != nil {
			return nil, err
		}
		if i == 0 {
			rows = branch
			continue
		}
		if c.unionErr != nil {
			return nil, c.unionErr
		}
		rows = append(rows, branch...)
		if !c.unionAll {
			rows = dedupeRows(rows)
		}
	}
	return rows, nil
}

// runCore runs one SELECT: open the sources, filter, project or group,
// deduplicate.
func (s *Session) runCore(c *core, outer *scope) ([][]types.Value, error) {
	// all is what the sources produce; when an index answered, cands
	// names the positions in it that can satisfy the predicate.
	var all [][]types.Value
	var cands []int
	indexed := false
	if c.p != nil {
		t, ok := s.lookupTable(c.p.Table)
		if !ok {
			return nil, fmt.Errorf("%w: %s", ErrTableNotFound, c.p.Table)
		}
		all = t.Rows
		cands, indexed = s.candidateRows(c.p, t)
	} else {
		rel, err := s.openFrom(c, outer)
		if err != nil {
			return nil, err
		}
		if c.compileErr != nil {
			return nil, c.compileErr
		}
		all = rel.rows
	}
	// The full predicate decides every row it is asked about, in source
	// order; an index only spares it rows that cannot satisfy it. With no
	// predicate the source's rows are shared: projection builds result
	// rows fresh, and the slice is only read under the statement's lock.
	sc := scope{cols: c.cols, parent: outer}
	rows := all
	if where := c.sel.Where; where != nil {
		n := len(all)
		if indexed {
			n = len(cands)
		}
		rows = nil
		for i := 0; i < n; i++ {
			row := all[i]
			if indexed {
				row = all[cands[i]]
			}
			sc.vals = row
			v, err := s.evalExpr(where, &sc)
			if err != nil {
				return nil, err
			}
			if types.TruthOf(v) == types.True {
				rows = append(rows, row)
			}
		}
	}
	var err error
	if c.grouped {
		rows, err = s.projectGrouped(c, rows, outer)
	} else {
		rows, err = s.projectRows(c, rows, &sc)
	}
	if err == nil && c.distinct {
		rows = dedupeRows(rows)
	}
	return rows, err
}

// openFrom opens the core's source tree in FROM order: each entry's
// sources left to right through its join chain, entries combined by
// cross product. A FROM-less core reads one empty row.
func (s *Session) openFrom(c *core, outer *scope) (*relation, error) {
	if len(c.from) == 0 {
		return &relation{rows: [][]types.Value{{}}}, nil
	}
	// rel is the product of the entries completed so far, left the entry
	// in progress.
	var rel, left *relation
	for i := range c.from {
		step := &c.from[i]
		if step.join == nil && left != nil {
			rel, left = crossEntries(rel, left), nil
		}
		r, err := s.openSource(&step.source, outer)
		if err != nil {
			return nil, err
		}
		if step.join == nil {
			left = r
		} else if left, err = s.joinRelations(left, r, step, outer); err != nil {
			return nil, err
		}
	}
	return crossEntries(rel, left), nil
}

func crossEntries(rel, entry *relation) *relation {
	if rel == nil {
		return entry
	}
	return crossProduct(rel, entry)
}

// openSource reads one FROM reference whole: a base table's rows on the
// session's read plane, or the rows a derived table or view body
// produces (a view body sees no enclosing scope).
func (s *Session) openSource(src *source, outer *scope) (*relation, error) {
	rel := &relation{cols: src.cols}
	switch {
	case src.sub == nil:
		// A name compile time did not know (src.err) is still unknown:
		// plans are stamped with their schema generation.
		t, ok := s.lookupTable(src.name)
		if !ok {
			return nil, fmt.Errorf("%w: %s", ErrTableNotFound, src.name)
		}
		rel.rows = t.Rows
	case src.view:
		rows, err := s.runSelect(src.sub, nil)
		if err != nil {
			return nil, fmt.Errorf("expanding view %s: %w", src.name, err)
		}
		if src.err != nil {
			return nil, src.err
		}
		rel.rows = rows
	default:
		rows, err := s.runSelect(src.sub, outer)
		if err != nil {
			return nil, err
		}
		rel.rows = rows
	}
	return rel, nil
}

// sortRows orders the result by the plan's resolved keys, stably. The
// first key error ends the sort's work.
func (s *Session) sortRows(cs *compiledSelect, rows [][]types.Value, outer *scope) error {
	sc := scope{cols: cs.outScope, parent: outer}
	var sortErr error
	keyOf := func(k *sortKey, row []types.Value) (v types.Value) {
		switch {
		case sortErr != nil:
		case k.err != nil:
			sortErr = k.err
		case k.col >= 0:
			v = row[k.col]
		default:
			sc.vals = row
			v, sortErr = s.evalExpr(k.expr, &sc)
		}
		return v
	}
	sort.SliceStable(rows, func(i, j int) bool {
		for k := range cs.keys {
			key := &cs.keys[k]
			a, b := keyOf(key, rows[i]), keyOf(key, rows[j])
			if sortErr != nil {
				return false
			}
			if c := compareForSort(a, b); c != 0 {
				return (c > 0) == key.desc
			}
		}
		return false
	})
	return sortErr
}

func dedupeRows(rows [][]types.Value) [][]types.Value {
	seen := make(map[string]bool, len(rows))
	out := rows[:0:0]
	for _, r := range rows {
		k := rowKey(r)
		if seen[k] {
			continue
		}
		seen[k] = true
		out = append(out, r)
	}
	return out
}

func rowKey(row []types.Value) string {
	var b strings.Builder
	for _, v := range row {
		b.WriteString(v.String())
		b.WriteByte('\x1f')
		b.WriteByte(byte('0' + int(v.K)))
		b.WriteByte('\x1e')
	}
	return b.String()
}

// compareForSort orders values with NULLs first, mixed kinds by kind.
func compareForSort(a, b types.Value) int {
	if a.IsNull() || b.IsNull() {
		switch {
		case a.IsNull() && b.IsNull():
			return 0
		case a.IsNull():
			return -1
		default:
			return 1
		}
	}
	if c, err := types.Compare(a, b); err == nil {
		return c
	}
	if a.K != b.K {
		return int(a.K) - int(b.K)
	}
	return strings.Compare(a.String(), b.String())
}

func crossProduct(a, b *relation) *relation {
	out := &relation{cols: append(append([]scopeCol(nil), a.cols...), b.cols...)}
	out.rows = make([][]types.Value, 0, len(a.rows)*len(b.rows))
	for _, ra := range a.rows {
		for _, rb := range b.rows {
			row := make([]types.Value, 0, len(ra)+len(rb))
			row = append(row, ra...)
			row = append(row, rb...)
			out.rows = append(out.rows, row)
		}
	}
	return out
}

// joinRelations joins b onto a under the step's ON predicate, which is
// evaluated against one scratch row and one scope per join; a result row
// is allocated only for a match. When the step has a hash key and every
// key value is hashable (hashRight), ON — the whole of it — is evaluated
// only on the bucket a left row's key selects. The pairs left out have
// unequal or NULL keys: ON is not true on them and (whereSafeForSkip)
// cannot fail on them, so rows, their order, null-extension and errors
// are those of the every-pair loop that runs otherwise.
func (s *Session) joinRelations(a, b *relation, step *fromStep, outer *scope) (*relation, error) {
	j := step.join
	if j.Type == ast.JoinCross || j.On == nil {
		return crossProduct(a, b), nil
	}
	out := &relation{cols: append(append([]scopeCol(nil), a.cols...), b.cols...)}
	buckets, algo := s.hashRight(step.key, a, b)
	s.eng.joinExecs[algo].Add(1)
	var all []int // every right row: what a left row pairs with, unhashed
	if algo == plan.NestedLoop {
		all = make([]int, len(b.rows))
		for i := range all {
			all[i] = i
		}
	}
	scratch := make([]types.Value, len(out.cols))
	sc := scope{cols: out.cols, vals: scratch, parent: outer}
	rightMatched := make([]bool, len(b.rows))
	for _, ra := range a.rows {
		copy(scratch, ra)
		cand := all // nil when hashed: a NULL key pairs with nothing
		if algo == plan.HashJoin && ra[step.key.left].K == types.KindInt {
			cand = buckets[ra[step.key.left].I]
		}
		matched := false
		for _, bi := range cand {
			copy(scratch[len(a.cols):], b.rows[bi])
			v, err := s.evalExpr(j.On, &sc)
			if err != nil {
				return nil, err
			}
			if types.TruthOf(v) == types.True {
				matched, rightMatched[bi] = true, true
				out.rows = append(out.rows, slices.Clone(scratch))
			}
		}
		if !matched && (j.Type == ast.JoinLeft || j.Type == ast.JoinFull) {
			row := make([]types.Value, len(out.cols))
			copy(row, ra)
			out.rows = append(out.rows, row)
		}
	}
	if j.Type == ast.JoinRight || j.Type == ast.JoinFull {
		for bi, rb := range b.rows {
			if rightMatched[bi] {
				continue
			}
			row := make([]types.Value, len(out.cols))
			copy(row[len(a.cols):], rb)
			out.rows = append(out.rows, row)
		}
	}
	return out, nil
}

// hashRight buckets the positions of the right input's rows by join key,
// in right-row order. It answers NestedLoop — every pair is visited —
// where candidateRows refuses an index too: no key, a parameter of the
// statement unbound (only full iteration reaches its error), or a key
// value on either side that is neither INT nor NULL (it can still equal
// an INT through types.Compare's loose coercion). NULL keys are left
// out: they equal nothing.
func (s *Session) hashRight(key *joinKey, a, b *relation) (map[int64][]int, plan.JoinAlgo) {
	if key == nil || key.maxParam > len(s.bind) {
		return nil, plan.NestedLoop
	}
	for _, ra := range a.rows {
		if k := ra[key.left].K; k != types.KindInt && k != types.KindNull {
			return nil, plan.NestedLoop
		}
	}
	buckets := make(map[int64][]int, len(b.rows))
	for bi, rb := range b.rows {
		switch k := rb[key.right]; k.K {
		case types.KindInt:
			buckets[k.I] = append(buckets[k.I], bi)
		case types.KindNull:
			if plantedHashJoinNullKeyDefect.Load() {
				return buckets, plan.HashJoin
			}
		default:
			return nil, plan.NestedLoop
		}
	}
	return buckets, plan.HashJoin
}

// projectRows evaluates the core's projection over the filtered rows;
// sc is the core's scope.
func (s *Session) projectRows(c *core, rows [][]types.Value, sc *scope) ([][]types.Value, error) {
	if c.projErr != nil {
		return nil, c.projErr
	}
	var out [][]types.Value
	for _, row := range rows {
		sc.vals = row
		vals := make([]types.Value, len(c.projs))
		for i, px := range c.projs {
			if px.star >= 0 {
				vals[i] = row[px.star]
				continue
			}
			v, err := s.evalExpr(px.expr, sc)
			if err != nil {
				return nil, err
			}
			vals[i] = v
		}
		out = append(out, vals)
	}
	return out, nil
}

type projExpr struct {
	expr ast.Expr
	star int // >=0: direct column index from a * expansion
}

// expandItems resolves the SELECT list into output column names and
// projection expressions, expanding * and tbl.*.
func (e *Session) expandItems(items []ast.SelectItem, from []scopeCol) ([]string, []projExpr, error) {
	var cols []string
	var exprs []projExpr
	for _, it := range items {
		switch {
		case it.Star && it.StarTable == "":
			for i, c := range from {
				cols = append(cols, c.name)
				exprs = append(exprs, projExpr{star: i})
			}
		case it.Star:
			q := up(it.StarTable)
			found := false
			for i, c := range from {
				if c.qual == q {
					cols = append(cols, c.name)
					exprs = append(exprs, projExpr{star: i})
					found = true
				}
			}
			if !found {
				return nil, nil, fmt.Errorf("unknown table qualifier %s.*", it.StarTable)
			}
		default:
			name, err := e.outputName(it)
			if err != nil {
				return nil, nil, err
			}
			cols = append(cols, name)
			exprs = append(exprs, projExpr{expr: it.Expr, star: -1})
		}
	}
	return cols, exprs, nil
}

// outputName determines the result column name for a projection item,
// honouring the unaliased-aggregate quirks (bug 222476).
func (e *Session) outputName(it ast.SelectItem) (string, error) {
	if it.Alias != "" {
		return up(it.Alias), nil
	}
	switch x := it.Expr.(type) {
	case *ast.ColumnRef:
		return up(x.Column), nil
	case *ast.FuncCall:
		name := strings.ToUpper(x.Name)
		if name == "AVG" || name == "SUM" {
			if e.eng.cfg.Quirks.UnaliasedAggregateError {
				// Quirk (bug 222476 on MS): unaliased AVG/SUM makes the
				// statement fail with a spurious internal error.
				return "", fmt.Errorf("internal error: unnamed aggregate result column in %s()", name)
			}
			if e.eng.cfg.Quirks.BlankAggregateAliases {
				// Quirk (bug 222476 on IB): the field name comes back
				// empty, although the value itself is correct.
				return "", nil
			}
		}
		return renderExprName(it.Expr), nil
	default:
		return renderExprName(it.Expr), nil
	}
}

func renderExprName(x ast.Expr) string {
	sel := &ast.Select{Items: []ast.SelectItem{{Expr: x}}}
	text := ast.Render(sel)
	return strings.ToUpper(strings.TrimPrefix(text, "SELECT "))
}

// ---------------------------------------------------------------------------
// Grouped projection (GROUP BY / aggregates)

func (e *Session) projectGrouped(c *core, rows [][]types.Value, outer *scope) ([][]types.Value, error) {
	type group struct {
		key  string
		rows [][]types.Value
	}
	s := c.sel
	var groups []*group
	if len(s.GroupBy) > 0 {
		index := make(map[string]*group)
		sc := scope{cols: c.cols, parent: outer}
		for _, row := range rows {
			sc.vals = row
			var kb strings.Builder
			for _, gexpr := range s.GroupBy {
				v, err := e.evalExpr(gexpr, &sc)
				if err != nil {
					return nil, err
				}
				kb.WriteString(v.String())
				kb.WriteByte('\x1f')
				kb.WriteByte(byte('0' + int(v.K)))
				kb.WriteByte('\x1e')
			}
			k := kb.String()
			g, ok := index[k]
			if !ok {
				g = &group{key: k}
				index[k] = g
				groups = append(groups, g)
			}
			g.rows = append(g.rows, row)
		}
	} else {
		// Global aggregate: one group over all rows (possibly empty).
		groups = append(groups, &group{rows: rows})
	}
	if c.projErr != nil {
		return nil, c.projErr
	}
	var out [][]types.Value
	for _, g := range groups {
		if s.Having != nil {
			hv, err := e.evalGroupExpr(s.Having, g.rows, c.cols, outer)
			if err != nil {
				return nil, err
			}
			if types.TruthOf(hv) != types.True {
				continue
			}
		}
		vals := make([]types.Value, len(c.items))
		for i, it := range c.items {
			v, err := e.evalGroupExpr(it.Expr, g.rows, c.cols, outer)
			if err != nil {
				return nil, err
			}
			vals[i] = v
		}
		out = append(out, vals)
	}
	return out, nil
}

// evalGroupExpr evaluates an expression in grouped context: aggregate
// calls accumulate over the group's rows; other leaves resolve against
// the group's first row.
func (e *Session) evalGroupExpr(x ast.Expr, groupRows [][]types.Value, cols []scopeCol, outer *scope) (types.Value, error) {
	if fc, ok := x.(*ast.FuncCall); ok && isAggregateName(fc.Name) {
		return e.evalAggregate(fc, groupRows, cols, outer)
	}
	switch n := x.(type) {
	case *ast.Binary:
		l, err := e.evalGroupExpr(n.L, groupRows, cols, outer)
		if err != nil {
			return types.Value{}, err
		}
		r, err := e.evalGroupExpr(n.R, groupRows, cols, outer)
		if err != nil {
			return types.Value{}, err
		}
		return e.evalBinary(&ast.Binary{Op: n.Op, L: &ast.Literal{Val: l}, R: &ast.Literal{Val: r}}, nil)
	case *ast.Unary:
		v, err := e.evalGroupExpr(n.X, groupRows, cols, outer)
		if err != nil {
			return types.Value{}, err
		}
		return e.evalUnary(&ast.Unary{Op: n.Op, X: &ast.Literal{Val: v}}, nil)
	default:
		var row []types.Value
		if len(groupRows) > 0 {
			row = groupRows[0]
		} else {
			row = make([]types.Value, len(cols))
		}
		sc := &scope{cols: cols, vals: row, parent: outer}
		return e.evalExpr(x, sc)
	}
}

func (e *Session) evalAggregate(fc *ast.FuncCall, groupRows [][]types.Value, cols []scopeCol, outer *scope) (types.Value, error) {
	name := strings.ToUpper(fc.Name)
	if fc.Star {
		if name != "COUNT" {
			return types.Value{}, fmt.Errorf("%s(*) is not valid", name)
		}
		return types.NewInt(int64(len(groupRows))), nil
	}
	if len(fc.Args) != 1 {
		return types.Value{}, fmt.Errorf("%s takes exactly one argument", name)
	}
	var vals []types.Value
	var seen map[string]bool
	if fc.Distinct {
		seen = make(map[string]bool)
	}
	sc := scope{cols: cols, parent: outer}
	for _, row := range groupRows {
		sc.vals = row
		v, err := e.evalExpr(fc.Args[0], &sc)
		if err != nil {
			return types.Value{}, err
		}
		if v.IsNull() {
			continue
		}
		if fc.Distinct {
			k := v.String() + "\x1f" + v.K.String()
			if seen[k] {
				continue
			}
			seen[k] = true
		}
		vals = append(vals, v)
	}
	switch name {
	case "COUNT":
		return types.NewInt(int64(len(vals))), nil
	case "SUM", "AVG":
		if len(vals) == 0 {
			return types.Null(), nil
		}
		allInt := true
		sum := 0.0
		var isum int64
		for _, v := range vals {
			nv, err := numericOperand(v)
			if err != nil {
				return types.Value{}, err
			}
			if nv.K != types.KindInt {
				allInt = false
			}
			sum += nv.AsFloat()
			isum += nv.AsInt()
		}
		if name == "SUM" {
			if allInt {
				return types.NewInt(isum), nil
			}
			return types.NewFloat(sum), nil
		}
		return types.NewFloat(sum / float64(len(vals))), nil
	case "MIN", "MAX":
		if len(vals) == 0 {
			return types.Null(), nil
		}
		best := vals[0]
		for _, v := range vals[1:] {
			c, err := types.Compare(v, best)
			if err != nil {
				return types.Value{}, err
			}
			if (name == "MIN" && c < 0) || (name == "MAX" && c > 0) {
				best = v
			}
		}
		return best, nil
	default:
		return types.Value{}, fmt.Errorf("unknown aggregate %s", name)
	}
}
