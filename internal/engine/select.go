package engine

import (
	"errors"
	"fmt"
	"sort"
	"strings"

	"divsql/internal/engine/plan"
	"divsql/internal/sql/ast"
	"divsql/internal/sql/types"
)

// relation is an intermediate result during query evaluation: rows of
// width values each.
type relation struct {
	width int
	rows  [][]types.Value
}

// This file is the execution side of the engine's one SELECT executor:
// runSelect and the operators it drives. Every read of rows — a
// statement-level SELECT, normal or forced, a subquery, EXISTS or
// IN (SELECT …) of any expression, an INSERT's source, a view definition
// under validation, a view body or derived table in a FROM clause —
// compiles (compiled.go) and then comes through here.

// runSelect executes a compiled query expression: cores → union → sort →
// limit. outer is the env the expression is evaluated in, for correlated
// references (nil at top level). Caller holds the engine lock (at least
// read mode) and has set s.bind.
func (s *Session) runSelect(cs *compiledSelect, outer *env) ([][]types.Value, error) {
	rows, err := s.runCores(cs, outer)
	if err == nil && len(cs.keys) > 0 {
		if err = cs.sortErr; err == nil {
			err = s.sortRows(cs, rows, outer)
		}
		for i := 0; cs.hidden > 0 && i < len(rows); i++ {
			rows[i] = rows[i][:len(rows[i])-int(cs.hidden)]
		}
	}
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
func (s *Session) runCores(cs *compiledSelect, outer *env) ([][]types.Value, error) {
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
			rows = types.DistinctRows(rows)
		}
	}
	return rows, nil
}

// runCore runs one SELECT: open the sources, filter, project or group,
// deduplicate.
func (s *Session) runCore(c *core, outer *env) ([][]types.Value, error) {
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
	en := env{outer: outer}
	rows := all
	if c.where != nil {
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
			en.row = row
			v, err := s.eval(c.where, &en)
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
		rows, err = s.projectRows(c, rows, &en)
	}
	if err == nil && c.distinct {
		rows = types.DistinctRows(rows)
	}
	return rows, err
}

// openFrom opens the core's source tree in FROM order: each entry's
// sources left to right through its join chain, entries combined by
// cross product. A FROM-less core reads one empty row.
func (s *Session) openFrom(c *core, outer *env) (*relation, error) {
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
func (s *Session) openSource(src *source, outer *env) (*relation, error) {
	rel := &relation{width: src.width}
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
func (s *Session) sortRows(cs *compiledSelect, rows [][]types.Value, outer *env) error {
	en := env{outer: outer}
	var sortErr error
	keyOf := func(k *sortKey, row []types.Value) (v types.Value) {
		if sortErr == nil {
			en.row = row
			v, sortErr = s.eval(k.expr, &en)
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
			if c := types.CompareNullsFirst(a, b); c != 0 {
				return (c > 0) == key.desc
			}
		}
		return false
	})
	return sortErr
}

func crossProduct(a, b *relation) *relation {
	out := &relation{width: a.width + b.width}
	out.rows = slabRows(len(a.rows)*len(b.rows), out.width)
	i := 0
	for _, ra := range a.rows {
		for _, rb := range b.rows {
			row := out.rows[i]
			copy(row[copy(row, ra):], rb)
			i++
		}
	}
	return out
}

// slabRows returns n zeroed result rows of width w carved from one
// allocation instead of n. Each row is capacity-clipped: stripping
// hidden sort keys from one or appending to it never reaches the next.
func slabRows(n, w int) [][]types.Value {
	rows := make([][]types.Value, n)
	slab := make([]types.Value, n*w)
	for i := range rows {
		rows[i] = slab[i*w : (i+1)*w : (i+1)*w]
	}
	return rows
}

// joinRelations joins b onto a under the step's ON predicate, which is
// evaluated against one scratch row and one env per join; a match is
// recorded as a pair of input positions, and the result rows are built
// from one slab once the pairs are known. When the step has a hash key
// and every key value is hashable (hashRight), ON — the whole of it — is
// evaluated only on the bucket a left row's key selects. The pairs left
// out have unequal or NULL keys: ON is not true on them and (hashKey's
// gate) cannot fail on them, so rows, their order, null-extension and
// errors are those of the every-pair loop that runs otherwise.
func (s *Session) joinRelations(a, b *relation, step *fromStep, outer *env) (*relation, error) {
	j := step.join
	if j.Type == ast.JoinCross || j.On == nil {
		return crossProduct(a, b), nil
	}
	out := &relation{width: a.width + b.width}
	buckets, algo := s.hashRight(step.key, a, b)
	s.eng.joinExecs[algo].Add(1)
	var all []int // every right row: what a left row pairs with, unhashed
	if algo == plan.NestedLoop {
		all = make([]int, len(b.rows))
		for i := range all {
			all[i] = i
		}
	}
	scratch := make([]types.Value, out.width)
	en := env{row: scratch, outer: outer}
	rightMatched := make([]bool, len(b.rows))
	// The output as (left, right) positions, -1 for a null-extended side:
	// pointer-free while it grows, and it sizes the slab exactly.
	var pairs [][2]int
	for ai, ra := range a.rows {
		copy(scratch, ra)
		cand := all // nil when hashed: a NULL key pairs with nothing
		if algo == plan.HashJoin && ra[step.key.left].K == types.KindInt {
			cand = buckets[ra[step.key.left].I]
		}
		matched := false
		for _, bi := range cand {
			copy(scratch[a.width:], b.rows[bi])
			v, err := s.eval(step.on, &en)
			if err != nil {
				return nil, err
			}
			if types.TruthOf(v) == types.True {
				matched, rightMatched[bi] = true, true
				pairs = append(pairs, [2]int{ai, bi})
			}
		}
		if !matched && (j.Type == ast.JoinLeft || j.Type == ast.JoinFull) {
			pairs = append(pairs, [2]int{ai, -1})
		}
	}
	if j.Type == ast.JoinRight || j.Type == ast.JoinFull {
		for bi := range b.rows {
			if !rightMatched[bi] {
				pairs = append(pairs, [2]int{-1, bi})
			}
		}
	}
	if len(pairs) == 0 {
		return out, nil
	}
	out.rows = slabRows(len(pairs), out.width)
	for i, p := range pairs {
		if p[0] >= 0 {
			copy(out.rows[i], a.rows[p[0]])
		}
		if p[1] >= 0 {
			copy(out.rows[i][a.width:], b.rows[p[1]])
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
// en is the core's env. The result rows come from one slab.
func (s *Session) projectRows(c *core, rows [][]types.Value, en *env) ([][]types.Value, error) {
	if c.projErr != nil {
		return nil, c.projErr
	}
	if len(rows) == 0 {
		return nil, nil
	}
	out := slabRows(len(rows), len(c.projs))
	for r, row := range rows {
		en.row = row
		for i, x := range c.projs {
			v, err := s.eval(x, en)
			if err != nil {
				return nil, err
			}
			out[r][i] = v
		}
	}
	return out, nil
}

// expandItems resolves the SELECT list — each item lowered in exprs —
// into output column names and projection expressions, expanding * and
// tbl.* into the columns they name (no * groups).
func (e *Session) expandItems(items []ast.SelectItem, exprs []rexpr, from []scopeCol, grouped bool) ([]string, []rexpr, error) {
	cols := make([]string, 0, len(items))
	projs := make([]rexpr, 0, len(items))
	for i, it := range items {
		switch {
		case it.Star && grouped:
			return nil, nil, errors.New("cannot use * with GROUP BY or aggregates")
		case it.Star && it.StarTable == "":
			for j, c := range from {
				cols = append(cols, c.name)
				projs = append(projs, column(0, j))
			}
		case it.Star:
			q := up(it.StarTable)
			found := false
			for j, c := range from {
				if c.qual == q {
					cols = append(cols, c.name)
					projs = append(projs, column(0, j))
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
			projs = append(projs, exprs[i])
		}
	}
	return cols, projs, nil
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

// projectGrouped groups the filtered rows by the GROUP BY values — one
// group over all of them (possibly none) for a global aggregate — and
// evaluates HAVING and the projection over each group.
func (s *Session) projectGrouped(c *core, rows [][]types.Value, outer *env) ([][]types.Value, error) {
	type group struct{ rows [][]types.Value }
	var groups []*group
	if len(c.groupBy) > 0 {
		index := make(map[string]*group)
		en := env{outer: outer}
		key := make([]types.Value, len(c.groupBy))
		var k []byte
		for _, row := range rows {
			en.row = row
			for i, gx := range c.groupBy {
				v, err := s.eval(gx, &en)
				if err != nil {
					return nil, err
				}
				key[i] = v
			}
			k = types.AppendRowKey(k[:0], key)
			g, ok := index[string(k)]
			if !ok {
				g = &group{}
				index[string(k)] = g
				groups = append(groups, g)
			}
			g.rows = append(g.rows, row)
		}
	} else {
		groups = append(groups, &group{rows: rows})
	}
	if c.projErr != nil {
		return nil, c.projErr
	}
	var out [][]types.Value
	en := env{outer: outer, grouped: true}
	for _, g := range groups {
		en.group = g.rows
		if len(g.rows) > 0 {
			en.row = g.rows[0]
		} else {
			en.row = make([]types.Value, c.width)
		}
		if c.having != nil {
			hv, err := s.eval(c.having, &en)
			if err != nil {
				return nil, err
			}
			if types.TruthOf(hv) != types.True {
				continue
			}
		}
		vals := make([]types.Value, len(c.projs))
		for i, x := range c.projs {
			v, err := s.eval(x, &en)
			if err != nil {
				return nil, err
			}
			vals[i] = v
		}
		out = append(out, vals)
	}
	return out, nil
}
