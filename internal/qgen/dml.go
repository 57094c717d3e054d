package qgen

import (
	"divsql/internal/sql/ast"
	"divsql/internal/sql/types"
)

// literal produces a value literal of the kind. Floats always carry a
// fractional part so they render and re-parse as floats; numeric values
// are non-negative so CHECK (c >= 0) columns stay satisfiable.
func (g *Generator) literal(k types.Kind) types.Value {
	switch k {
	case types.KindInt:
		return types.NewInt(int64(g.rnd.Intn(100)))
	case types.KindFloat:
		return types.NewFloat(float64(g.rnd.Intn(100)) + float64(1+g.rnd.Intn(3))*0.25)
	default:
		return types.NewString(g.word())
	}
}

var alphabet = []string{"a", "b", "c", "d", "e", "f", "g", "h", "k", "m", "r", "s", "t", "w", "x", "z"}

func (g *Generator) word() string {
	n := 1 + g.rnd.Intn(5)
	s := ""
	for i := 0; i < n; i++ {
		s += alphabet[g.rnd.Intn(len(alphabet))]
	}
	return s
}

func (g *Generator) genInsert() ast.Statement {
	t := g.insertableTable()
	if t == nil {
		// Every table sits at the cardinality cap: the INSERT budget
		// becomes row-aging and UPDATE pressure instead, so deep streams
		// keep their write mix without growing the tables.
		return g.genAge()
	}
	// Columns in a shuffled (but seeded) order, all listed explicitly.
	perm := g.rnd.Perm(len(t.cols))
	cols := make([]string, len(perm))
	nRows := 1 + g.rnd.Intn(maxInsertRows)
	if limit := g.opts.MaxRowsPerTable; limit > 0 && t.rows+nRows > limit {
		nRows = limit - t.rows
	}
	rows := make([][]ast.Expr, nRows)
	for r := range rows {
		rows[r] = make([]ast.Expr, len(perm))
	}
	for i, ci := range perm {
		c := t.col(ci)
		cols[i] = c.name
		for r := 0; r < nRows; r++ {
			switch {
			case c.pk:
				rows[r][i] = &ast.Literal{Val: types.NewInt(t.nextPK)}
				t.nextPK++
			case !c.notNull && g.rnd.Intn(10) == 0:
				rows[r][i] = &ast.Literal{Val: types.Null()}
			default:
				rows[r][i] = &ast.Literal{Val: g.literal(c.kind)}
			}
		}
	}
	t.rows += nRows
	return &ast.Insert{Table: t.name, Columns: cols, Rows: rows}
}

// setExpr builds a type-correct right-hand side for SET c = expr.
func (g *Generator) setExpr(t *relation, c *column) ast.Expr {
	ref := &ast.ColumnRef{Column: c.name}
	lit := &ast.Literal{Val: g.literal(c.kind)}
	switch c.kind {
	case types.KindInt, types.KindFloat:
		switch g.rnd.Intn(4) {
		case 0:
			return lit
		case 1:
			return &ast.Binary{Op: ast.OpAdd, L: ref, R: lit}
		case 2:
			// ABS keeps CHECK (c >= 0) columns in range after subtraction.
			return &ast.FuncCall{Name: "ABS", Args: []ast.Expr{
				&ast.Binary{Op: ast.OpSub, L: ref, R: lit},
			}}
		default:
			if c.kind == types.KindFloat {
				return &ast.FuncCall{Name: "ROUND", Args: []ast.Expr{ref, &ast.Literal{Val: types.NewInt(1)}}}
			}
			return &ast.FuncCall{Name: "SIGN", Args: []ast.Expr{ref}}
		}
	default:
		switch g.rnd.Intn(4) {
		case 0:
			return lit
		case 1:
			return &ast.FuncCall{Name: "UPPER", Args: []ast.Expr{ref}}
		case 2:
			return &ast.FuncCall{Name: "LOWER", Args: []ast.Expr{ref}}
		default:
			return &ast.Binary{Op: ast.OpConcat, L: ref, R: lit}
		}
	}
}

func (g *Generator) genUpdate() ast.Statement {
	t := g.anyTable()
	if t == nil {
		return nil
	}
	ci := t.pick(g.rnd, func(c *column) bool { return !c.pk })
	if ci < 0 {
		return nil
	}
	sets := []ast.SetClause{{Column: t.col(ci).name, Value: g.setExpr(t, t.col(ci))}}
	if cj := t.pick(g.rnd, func(c *column) bool { return !c.pk }); cj >= 0 && cj != ci && g.rnd.Intn(3) == 0 {
		sets = append(sets, ast.SetClause{Column: t.col(cj).name, Value: g.setExpr(t, t.col(cj))})
	}
	up := &ast.Update{Table: t.name, Sets: sets}
	if g.rnd.Intn(10) < 8 {
		up.Where = g.predicate(scope{{"", t}}, 1)
	}
	return up
}

// insertableTable picks a table with headroom under the cardinality
// cap (any table when unbounded); nil when every table is full.
func (g *Generator) insertableTable() *relation {
	if g.opts.MaxRowsPerTable <= 0 {
		return g.anyTable()
	}
	cands := make([]*relation, 0, len(g.tables))
	for _, t := range g.tables {
		if t.rows < g.opts.MaxRowsPerTable {
			cands = append(cands, t)
		}
	}
	if len(cands) == 0 {
		return nil
	}
	return cands[g.rnd.Intn(len(cands))]
}

// genAge converts blocked INSERT pressure into other write work once
// every table is at the cardinality cap: keyed tables age out their
// oldest primary-key band (freeing headroom for future inserts), unkeyed
// tables are occasionally cleared outright, and the rest of the budget
// becomes UPDATEs so write pressure on the engines is preserved.
func (g *Generator) genAge() ast.Statement {
	t := g.anyTable()
	if t == nil {
		return nil
	}
	switch {
	case t.hasPK && g.rnd.Intn(3) != 0:
		return g.genAgeDelete(t)
	case !t.hasPK && g.rnd.Intn(4) == 0:
		t.rows = 0
		return &ast.Delete{Table: t.name}
	default:
		return g.genUpdate()
	}
}

// genAgeDelete emits DELETE ... WHERE pk < hi over the oldest live
// primary-key band. Because primary keys are assigned monotonically and
// every key below agedPK is already gone, the surviving rows all carry
// keys in [hi, nextPK) — which caps the live row count at nextPK-hi and
// lets the estimate drop soundly.
func (g *Generator) genAgeDelete(t *relation) ast.Statement {
	half := g.opts.MaxRowsPerTable / 2
	if half < 1 {
		half = 1
	}
	hi := t.agedPK + int64(1+g.rnd.Intn(half))
	if hi > t.nextPK {
		hi = t.nextPK
	}
	pi := t.pick(g.rnd, func(c *column) bool { return c.pk })
	if pi < 0 {
		return nil
	}
	t.agedPK = hi
	if ub := int(t.nextPK - t.agedPK); t.rows > ub {
		t.rows = ub
	}
	return &ast.Delete{
		Table: t.name,
		Where: &ast.Binary{
			Op: ast.OpLt,
			L:  &ast.ColumnRef{Column: t.col(pi).name},
			R:  &ast.Literal{Val: types.NewInt(hi)},
		},
	}
}

func (g *Generator) genDelete() ast.Statement {
	t := g.anyTable()
	if t == nil {
		return nil
	}
	del := &ast.Delete{Table: t.name}
	if g.rnd.Intn(10) < 9 {
		// Prefer a selective predicate over a non-key numeric column so
		// tables keep their data. Key columns grow without bound, so a
		// fixed threshold over them would eventually match every newer
		// row; non-key integer literals stay in [0,100) and the >80
		// threshold clips only a value tail.
		ci := t.pick(g.rnd, func(c *column) bool { return c.kind == types.KindInt && !c.pk })
		if ci >= 0 {
			del.Where = &ast.Binary{
				Op: ast.OpGt,
				L:  &ast.ColumnRef{Column: t.col(ci).name},
				R:  &ast.Literal{Val: types.NewInt(int64(80 + g.rnd.Intn(40)))},
			}
		} else {
			del.Where = g.predicate(scope{{"", t}}, 1)
		}
		// The predicate may match any number of rows (possibly none), so
		// the row estimate — an upper bound — stays put.
		return del
	}
	t.rows = 0
	return del
}

func (g *Generator) genTxn() ast.Statement {
	if !g.inTxn {
		// With isolation enabled, a slice of the transaction budget goes
		// to SET TRANSACTION statements: mostly outside any transaction
		// (session default, the common application pattern), so every
		// later transaction and autocommit statement runs under the
		// chosen level.
		if g.opts.Isolation && g.rnd.Intn(4) == 0 {
			return &ast.SetTxn{Level: g.pickIsoLevel()}
		}
		g.inTxn = true
		g.snap = g.snapshot()
		return &ast.Begin{}
	}
	g.inTxn = false
	if g.rnd.Intn(10) < 7 {
		g.snap = nil
		return &ast.Commit{}
	}
	// The servers undo everything back to BEGIN — including DDL — so the
	// generator's schema tracking must rewind with them.
	g.restore(g.snap)
	g.snap = nil
	return &ast.Rollback{}
}

// isoSafeLevels is the isolation-level subset every dialect accepts —
// the fault-free default for Options.IsolationLevels.
var isoSafeLevels = []string{"READ COMMITTED", "SERIALIZABLE"}

// AllIsolationLevels is every level name the parser accepts. Hunts use
// it as the Options.IsolationLevels pool to surface per-dialect
// acceptance divergence (see dialect.SupportsIsolation).
var AllIsolationLevels = []string{
	"READ UNCOMMITTED", "READ COMMITTED", "REPEATABLE READ", "SERIALIZABLE", "SNAPSHOT",
}

// pickIsoLevel draws an isolation-level name from the configured pool.
func (g *Generator) pickIsoLevel() string {
	pool := g.opts.IsolationLevels
	if len(pool) == 0 {
		pool = isoSafeLevels
	}
	return pool[g.rnd.Intn(len(pool))]
}

// snapshot deep-copies the schema-tracking state (relations mutate their
// nextPK/row counters, so sharing would leak post-BEGIN changes).
func (g *Generator) snapshot() *schemaSnapshot {
	cp := func(rels []*relation) []*relation {
		out := make([]*relation, len(rels))
		for i, r := range rels {
			c := *r
			c.cols = append([]column(nil), r.cols...)
			out[i] = &c
		}
		return out
	}
	return &schemaSnapshot{
		tables:  cp(g.tables),
		views:   cp(g.views),
		indexes: append([]struct{ name, table string }(nil), g.indexes...),
		seqs:    append([]string(nil), g.seqs...),
		pool:    append([]string(nil), g.pool...),
	}
}

func (g *Generator) restore(s *schemaSnapshot) {
	if s == nil {
		return
	}
	g.tables, g.views, g.indexes, g.seqs, g.pool = s.tables, s.views, s.indexes, s.seqs, s.pool
}
