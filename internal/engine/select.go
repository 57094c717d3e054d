package engine

import (
	"errors"
	"fmt"
	"slices"
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
// statement-level SELECT, normal or a plan variant, a subquery, EXISTS or
// IN (SELECT …) of any expression, an INSERT's source, a view definition
// under validation, a view body or derived table in a FROM clause —
// compiles (compiled.go) and then comes through here. What it builds on
// the way comes from the session's arena (arena.go); the output rows
// come from out, the arena for a nested select and the heap (nil) for
// one whose rows leave the statement.

// runSelect executes a compiled query expression: cores → union → sort →
// limit. outer is the env the expression is evaluated in, for correlated
// references (nil at top level). Within a pure SELECT an uncorrelated
// nested select runs once per execution: its rows, or its error, are
// what every later evaluation reads, and its rows come from s.onceMem,
// not out, so that rewinding out does not reclaim them. Caller holds
// the engine lock (at least read mode) and has set s.bind.
func (s *Session) runSelect(cs *compiledSelect, outer *env, out *arena) ([][]types.Value, error) {
	if cs.once < 0 || !s.onceOn {
		return s.runQuery(cs, outer, out)
	}
	if i := int(cs.once); i >= len(s.once) {
		s.once = append(s.once, make([]onceResult, i+1-len(s.once))...)
	}
	if r := &s.once[cs.once]; r.done {
		return r.rows, r.err
	}
	rows, err := s.runQuery(cs, outer, &s.onceMem)
	s.once[cs.once] = onceResult{done: true, rows: rows, err: err}
	return rows, err
}

// inSet is the IN set of a select that ran once in this execution — its
// one-column rows chained by INT value, built at the first probe — or
// nil: when the select is not run once, or when a value is neither INT
// nor NULL (it can equal an INT through types.Compare's loose coercion,
// so every value is compared).
func (s *Session) inSet(cs *compiledSelect, rows [][]types.Value) *onceResult {
	if cs.once < 0 || !s.onceOn {
		return nil
	}
	r := &s.once[cs.once]
	if r.setState == 0 {
		r.setState = 1
		for _, row := range rows {
			switch row[0].K {
			case types.KindInt:
			case types.KindNull:
				r.hasNull = true
			default:
				r.setState = -1
			}
		}
		if r.setState > 0 {
			r.set = chainRows(&s.onceMem, rows, 0)
		}
	}
	if r.setState < 0 {
		return nil
	}
	return r
}

// runQuery is runSelect's body.
func (s *Session) runQuery(cs *compiledSelect, outer *env, out *arena) ([][]types.Value, error) {
	rows, err := s.runCores(cs, outer, out)
	if err == nil && len(cs.keys) > 0 {
		err = s.sortRows(cs, rows, outer)
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
func (s *Session) runCores(cs *compiledSelect, outer *env, out *arena) ([][]types.Value, error) {
	var rows [][]types.Value
	for i := range cs.cores {
		c := &cs.cores[i]
		branch, err := s.runCore(c, outer, out)
		if err != nil {
			return nil, err
		}
		if i == 0 {
			rows = branch
			continue
		}
		rows = out.appendRow(rows, branch...)
		if !c.unionAll {
			rows = types.DistinctRows(rows)
		}
	}
	return rows, nil
}

// runCore runs one SELECT: open the sources, filter, project or group,
// deduplicate.
func (s *Session) runCore(c *core, outer *env, out *arena) ([][]types.Value, error) {
	// all is what the sources produce; when an index answered, cands
	// names the positions in it that can satisfy the predicate.
	var all [][]types.Value
	var cands []int
	indexed := false
	if c.p != nil {
		t, ok := s.lookupTable(c.p.table)
		if !ok {
			return nil, fmt.Errorf("%w: %s", ErrTableNotFound, c.p.table)
		}
		all = t.Rows
		cands, indexed = s.candidateRows(c.p, t)
	} else {
		rel, err := s.openFrom(c, outer)
		if err != nil {
			return nil, err
		}
		all = rel.rows
	}
	// The full predicate decides every row it is asked about, in source
	// order; an index only spares it rows that cannot satisfy it. With no
	// predicate the source's rows are shared: projection builds result
	// rows fresh, and the slice is only read under the statement's lock.
	en := s.mem.env(outer)
	rows := all
	if c.where != nil {
		n := len(all)
		if indexed {
			n = len(cands)
		}
		rows = s.mem.list(min(n, 256))
		for i := 0; i < n; i++ {
			row := all[i]
			if indexed {
				row = all[cands[i]]
			}
			en.row = row
			v, err := s.eval(c.where, en)
			if err != nil {
				return nil, err
			}
			if types.TruthOf(v) == types.True {
				rows = s.mem.appendRow(rows, row)
			}
		}
	}
	var err error
	if c.grouped {
		rows, err = s.projectGrouped(c, rows, outer, out)
	} else {
		rows, err = s.projectRows(c, rows, en, out)
	}
	if err == nil && c.distinct {
		rows = types.DistinctRows(rows)
	}
	return rows, err
}

// fromless is the one empty row a FROM-less core reads.
var fromless = [][]types.Value{{}}

// openFrom opens the core's source tree in FROM order: each entry's
// sources left to right through its join chain, entries combined by
// cross product. A FROM-less core reads one empty row.
func (s *Session) openFrom(c *core, outer *env) (relation, error) {
	if len(c.from) == 0 {
		return relation{rows: fromless}, nil
	}
	// rel is the product of the entries completed so far (done once the
	// first is), left the entry in progress.
	var rel, left relation
	done := false
	for i := range c.from {
		step := &c.from[i]
		if step.join == nil && i > 0 {
			rel, done = s.crossEntries(rel, left, done), true
		}
		r, err := s.openSource(&step.source, outer)
		if err != nil {
			return relation{}, err
		}
		if step.join == nil {
			left = r
		} else if left, err = s.joinRelations(left, r, step, outer); err != nil {
			return relation{}, err
		}
	}
	return s.crossEntries(rel, left, done), nil
}

// crossEntries combines the product so far (when done) with a completed
// entry.
func (s *Session) crossEntries(rel, entry relation, done bool) relation {
	if !done {
		return entry
	}
	return s.crossProduct(rel, entry)
}

// openSource reads one FROM reference whole: a base table's rows on the
// session's read plane, or the rows a derived table or view body
// produces (a view body sees no enclosing scope).
func (s *Session) openSource(src *source, outer *env) (relation, error) {
	rel := relation{width: src.width}
	switch {
	case src.sub == nil:
		t, ok := s.lookupTable(src.name)
		if !ok {
			return relation{}, fmt.Errorf("%w: %s", ErrTableNotFound, src.name)
		}
		rel.rows = t.Rows
	case src.view:
		rows, err := s.runSelect(src.sub, nil, &s.mem)
		if err != nil {
			return relation{}, fmt.Errorf("expanding view %s: %w", src.name, err)
		}
		rel.rows = rows
	default:
		rows, err := s.runSelect(src.sub, outer, &s.mem)
		if err != nil {
			return relation{}, err
		}
		rel.rows = rows
	}
	return rel, nil
}

// sortRows orders the result by the plan's resolved keys, stably. The
// first key error ends the sort's work.
func (s *Session) sortRows(cs *compiledSelect, rows [][]types.Value, outer *env) error {
	en := s.mem.env(outer)
	var keyErr error
	keyOf := func(k *sortKey, row []types.Value) (v types.Value) {
		if keyErr == nil {
			en.row = row
			v, keyErr = s.eval(k.expr, en)
		}
		return v
	}
	slices.SortStableFunc(rows, func(ri, rj []types.Value) int {
		for k := range cs.keys {
			key := &cs.keys[k]
			a, b := keyOf(key, ri), keyOf(key, rj)
			if keyErr != nil {
				return 0
			}
			if c := types.CompareNullsFirst(a, b); c != 0 {
				if (c > 0) == key.desc {
					return -1
				}
				return 1
			}
		}
		return 0
	})
	return keyErr
}

func (s *Session) crossProduct(a, b relation) relation {
	out := relation{width: a.width + b.width}
	out.rows = s.mem.table(len(a.rows)*len(b.rows), out.width)
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

// joinRelations joins b onto a under the step's ON predicate, which is
// evaluated against one scratch row and one env per join; a match is
// recorded as a pair of input positions, and the result rows are built
// from one slab once the pairs are known. When the step has a hash key
// and every key value is hashable (hashRight), ON — the whole of it — is
// evaluated only on the chain a left row's key selects. The pairs left
// out have unequal or NULL keys: ON is not true on them and (hashKey's
// gate) cannot fail on them, so rows, their order, null-extension and
// errors are those of the every-pair loop that runs otherwise.
func (s *Session) joinRelations(a, b relation, step *fromStep, outer *env) (relation, error) {
	j := step.join
	if j.Type == ast.JoinCross || j.On == nil {
		return s.crossProduct(a, b), nil
	}
	out := relation{width: a.width + b.width}
	ht, algo := s.hashRight(step.key, a, b)
	s.eng.joinExecs[algo].Add(1)
	mem := &s.mem
	scratch := mem.values(out.width)
	en := mem.env(outer)
	en.row = scratch
	rightMatched := mem.ints.take(len(b.rows))
	// The output as (left, right) positions, flattened, -1 for a
	// null-extended side: pointer-free while it grows, and it sizes the
	// slab exactly.
	pairs := mem.ints.take(2 * max(len(a.rows), len(b.rows)))[:0]
	pair := func(ai, bi int) {
		pairs = append(grow(&mem.ints, pairs, 2), ai, bi)
	}
	for ai, ra := range a.rows {
		copy(scratch, ra)
		// bi walks the right rows a left row pairs with: all of them in
		// order, or its key's chain (none for a NULL key).
		bi := 0
		if algo == plan.HashJoin {
			bi = ht.first(ra[step.key.left], b.rows, step.key.right)
		}
		matched := false
		for ; bi >= 0 && bi < len(b.rows); bi = ht.next(bi, algo) {
			copy(scratch[a.width:], b.rows[bi])
			v, err := s.eval(step.on, en)
			if err != nil {
				return relation{}, err
			}
			if types.TruthOf(v) == types.True {
				matched, rightMatched[bi] = true, 1
				pair(ai, bi)
			}
		}
		if !matched && (j.Type == ast.JoinLeft || j.Type == ast.JoinFull) {
			pair(ai, -1)
		}
	}
	if j.Type == ast.JoinRight || j.Type == ast.JoinFull {
		for bi := range b.rows {
			if rightMatched[bi] == 0 {
				pair(-1, bi)
			}
		}
	}
	if len(pairs) == 0 {
		return out, nil
	}
	out.rows = mem.table(len(pairs)/2, out.width)
	for i, row := range out.rows {
		if ai := pairs[2*i]; ai >= 0 {
			copy(row, a.rows[ai])
		}
		if bi := pairs[2*i+1]; bi >= 0 {
			copy(row[a.width:], b.rows[bi])
		}
	}
	return out, nil
}

// hashTable chains rows by their INT value in one column — a join's
// right input by its key, an IN subquery's rows by their value — each
// chain in row order, open-addressed: head holds 1 + the first row of
// the value in the slot (0: empty), link 1 + the row after each row in
// its value's chain (chainRows).
type hashTable struct {
	head, link []int
	mask       int
}

func hashInt(k int64) int { return int(uint64(k) * 0x9E3779B97F4A7C15 >> 32) }

// first is the first of rows whose value at ordinal col equals v, or -1;
// a non-INT v matches none.
func (h *hashTable) first(v types.Value, rows [][]types.Value, col int) int {
	if v.K != types.KindInt {
		return -1
	}
	for i := hashInt(v.I) & h.mask; h.head[i] != 0; i = (i + 1) & h.mask {
		if r := h.head[i] - 1; rows[r][col].I == v.I {
			return r
		}
	}
	return -1
}

// next is the right row after bi that a left row pairs with: the next in
// the key's chain, or, for the nested loop, the next row.
func (h *hashTable) next(bi int, algo plan.JoinAlgo) int {
	if algo == plan.NestedLoop {
		return bi + 1
	}
	return h.link[bi] - 1
}

// hashRight chains the right input's rows by join key. It answers
// NestedLoop — every pair is visited — where candidateRows refuses an
// index too: no key, a full-scan variant, a parameter of the statement
// unbound (only full iteration reaches its error), or a key value on
// either side that is neither INT nor NULL (it can still equal an INT
// through types.Compare's loose coercion). NULL keys are left out: they
// equal nothing.
func (s *Session) hashRight(key *joinKey, a, b relation) (hashTable, plan.JoinAlgo) {
	if key == nil || s.variant == plan.ForceFullScan || key.maxParam > len(s.bind) {
		return hashTable{}, plan.NestedLoop
	}
	for _, ra := range a.rows {
		if k := ra[key.left].K; k != types.KindInt && k != types.KindNull {
			return hashTable{}, plan.NestedLoop
		}
	}
	n := len(b.rows)
scan:
	for bi, rb := range b.rows {
		switch rb[key.right].K {
		case types.KindInt:
		case types.KindNull:
			if plantedHashJoinNullKeyDefect.Load() {
				n = bi
				break scan
			}
		default:
			return hashTable{}, plan.NestedLoop
		}
	}
	return chainRows(&s.mem, b.rows[:n], key.right), plan.HashJoin
}

// chainRows chains rows by their INT value at ordinal col, in row order,
// in a table from mem; a row holding anything else there is left out.
func chainRows(mem *arena, rows [][]types.Value, col int) hashTable {
	size := 8
	for size < 2*len(rows) {
		size *= 2
	}
	h := hashTable{head: mem.ints.take(size), link: mem.ints.take(len(rows)), mask: size - 1}
	// Back to front, so each chain runs in row order.
	for r := len(rows) - 1; r >= 0; r-- {
		k := rows[r][col]
		if k.K != types.KindInt {
			continue
		}
		i := hashInt(k.I) & h.mask
		for h.head[i] != 0 && rows[h.head[i]-1][col].I != k.I {
			i = (i + 1) & h.mask
		}
		h.link[r], h.head[i] = h.head[i], r+1
	}
	return h
}

// projectRows evaluates the core's projection over the filtered rows;
// en is the core's env. The result rows come from one slab of out.
func (s *Session) projectRows(c *core, rows [][]types.Value, en *env, out *arena) ([][]types.Value, error) {
	if len(rows) == 0 {
		return nil, nil
	}
	res := out.table(len(rows), len(c.projs))
	for r, row := range rows {
		en.row = row
		for i, x := range c.projs {
			v, err := s.eval(x, en)
			if err != nil {
				return nil, err
			}
			res[r][i] = v
		}
	}
	return res, nil
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
func (s *Session) projectGrouped(c *core, rows [][]types.Value, outer *env, out *arena) ([][]types.Value, error) {
	// members holds the rows group after group, each group's in row
	// order and the groups in the order they first appear; group g starts
	// at starts[g].
	members, starts := rows, []int{0}
	if len(c.groupBy) > 0 {
		mem := &s.mem
		ids := mem.ints.take(len(rows))
		groups := make(map[string]int)
		en := mem.env(outer)
		key := mem.values(len(c.groupBy))
		for r, row := range rows {
			en.row = row
			for i, gx := range c.groupBy {
				v, err := s.eval(gx, en)
				if err != nil {
					return nil, err
				}
				key[i] = v
			}
			s.keyBuf = types.AppendRowKey(s.keyBuf[:0], key)
			id, ok := groups[string(s.keyBuf)]
			if !ok {
				id = len(groups)
				groups[string(s.keyBuf)] = id
			}
			ids[r] = id
		}
		// A counting sort by group id: count, sum, then place the rows
		// back to front, leaving each group's start behind.
		starts = mem.ints.take(len(groups))
		for _, id := range ids {
			starts[id]++
		}
		for g := 1; g < len(starts); g++ {
			starts[g] += starts[g-1]
		}
		members = mem.rows.take(len(rows))
		for r := len(rows) - 1; r >= 0; r-- {
			starts[ids[r]]--
			members[starts[ids[r]]] = rows[r]
		}
	}
	res := out.table(len(starts), len(c.projs))
	kept := res[:0]
	en := s.mem.env(outer)
	en.grouped = true
	for g, start := range starts {
		end := len(members)
		if g+1 < len(starts) {
			end = starts[g+1]
		}
		en.group = members[start:end]
		if len(en.group) > 0 {
			en.row = en.group[0]
		} else {
			en.row = s.mem.values(c.width)
		}
		if c.having != nil {
			hv, err := s.eval(c.having, en)
			if err != nil {
				return nil, err
			}
			if types.TruthOf(hv) != types.True {
				continue
			}
		}
		vals := res[g]
		for i, x := range c.projs {
			v, err := s.eval(x, en)
			if err != nil {
				return nil, err
			}
			vals[i] = v
		}
		kept = append(kept, vals)
	}
	if len(kept) == 0 {
		return nil, nil
	}
	return kept, nil
}
