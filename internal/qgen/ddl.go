package qgen

import (
	"fmt"
	"sort"

	"divsql/internal/sql/ast"
	"divsql/internal/sql/types"
)

// genDDL emits one schema-changing statement, preferring CREATE TABLE
// while the name pool is unexhausted (so calibrated fault-trigger tables
// come into existence early in the stream).
func (g *Generator) genDDL() ast.Statement {
	canCreate := len(g.tables) < g.maxTables
	if canCreate && (len(g.pool) > 0 || g.rnd.Intn(3) == 0) {
		return g.genCreateTable()
	}
	type gen func() ast.Statement
	var choices []gen
	if len(g.tables) > 0 && len(g.views) < 4 {
		choices = append(choices, g.genCreateView)
	}
	if len(g.tables) > 0 && len(g.indexes) < 8 {
		choices = append(choices, g.genCreateIndex)
	}
	if len(g.indexes) > 0 {
		choices = append(choices, g.genDropIndex)
	}
	if len(g.views) > 0 {
		choices = append(choices, g.genDropView)
	}
	if g.droppableTable() != nil {
		choices = append(choices, g.genDropTable)
	}
	if g.opts.Sequences {
		if len(g.seqs) < 3 {
			choices = append(choices, g.genCreateSequence)
		}
		if len(g.seqs) > 0 {
			choices = append(choices, g.genDropSequence)
		}
	}
	if len(choices) == 0 {
		if canCreate {
			return g.genCreateTable()
		}
		return nil
	}
	return choices[g.rnd.Intn(len(choices))]()
}

func (g *Generator) genCreateTable() ast.Statement {
	name := g.tableName()
	rel := &relation{name: name, nextPK: 1, agedPK: 1}
	nCols := 2 + g.rnd.Intn(maxColumns-1)
	var defs []ast.ColumnDef
	for i := 0; i < nCols; i++ {
		c := column{name: fmt.Sprintf("C%d", i+1)}
		if i == 0 {
			// First column is an integer row id, usually the primary key.
			c.kind = types.KindInt
			c.typeName = ast.TypeName{Name: "INT"}
			if g.rnd.Intn(10) < 7 {
				c.pk = true
				c.notNull = true
				rel.hasPK = true
			}
		} else {
			switch g.rnd.Intn(10) {
			case 0, 1, 2, 3:
				c.kind = types.KindInt
				c.typeName = ast.TypeName{Name: "INT"}
			case 4, 5:
				c.kind = types.KindFloat
				c.typeName = ast.TypeName{Name: "FLOAT"}
			default:
				c.kind = types.KindString
				if g.rnd.Intn(4) == 0 {
					c.typeName = ast.TypeName{Name: "CHAR", Args: []int{4 + g.rnd.Intn(9)}}
				} else {
					c.typeName = ast.TypeName{Name: "VARCHAR", Args: []int{8 + g.rnd.Intn(17)}}
				}
			}
			if !c.pk && g.rnd.Intn(5) == 0 {
				c.notNull = true
			}
		}
		def := ast.ColumnDef{Name: c.name, Type: c.typeName, NotNull: c.notNull && !c.pk, PrimaryKey: c.pk}
		if !c.pk && g.rnd.Intn(5) == 0 {
			def.Default = &ast.Literal{Val: g.literal(c.kind)}
		}
		if !c.pk && c.kind != types.KindString && g.rnd.Intn(6) == 0 {
			c.nonNeg = true
			def.Check = &ast.Binary{
				Op: ast.OpGe,
				L:  &ast.ColumnRef{Column: c.name},
				R:  &ast.Literal{Val: types.NewInt(0)},
			}
		}
		rel.cols = append(rel.cols, c)
		defs = append(defs, def)
	}
	g.tables = append(g.tables, rel)
	return &ast.CreateTable{Name: name, Columns: defs}
}

func (g *Generator) genCreateView() ast.Statement {
	base := g.anyTable()
	name := g.viewName()
	// Project a contiguous, non-empty column subset under the base
	// column names, optionally filtered.
	lo := g.rnd.Intn(len(base.cols))
	hi := lo + 1 + g.rnd.Intn(len(base.cols)-lo)
	view := &relation{name: name, isView: true, base: base.name}
	var items []ast.SelectItem
	for _, c := range base.cols[lo:hi] {
		view.cols = append(view.cols, c)
		items = append(items, ast.SelectItem{Expr: &ast.ColumnRef{Column: c.name}})
	}
	sel := &ast.Select{Items: items, From: []ast.FromItem{{Table: ast.TableRef{Name: base.name}}}}
	if g.rnd.Intn(3) == 0 {
		sel.Where = g.predicate(scope{{"", base}}, 1)
	}
	refs := map[string]bool{}
	selectRefs(sel, refs)
	view.refs = make([]string, 0, len(refs))
	for n := range refs {
		view.refs = append(view.refs, n)
	}
	sort.Strings(view.refs)
	g.views = append(g.views, view)
	return &ast.CreateView{Name: name, Select: sel}
}

// selectRefs collects every named relation a SELECT reads — FROM
// sources, join sides, and the FROMs of every subquery at any nesting
// depth — so a view's full read set is known at creation time.
func selectRefs(sel *ast.Select, out map[string]bool) {
	fromRefs(sel, out)
	ast.WalkSelectExprs(sel, func(e ast.Expr) {
		switch x := e.(type) {
		case *ast.In:
			fromRefs(x.Select, out)
		case *ast.Exists:
			fromRefs(x.Select, out)
		case *ast.Subquery:
			fromRefs(x.Select, out)
		}
	})
}

// fromRefs records the FROM-clause relation names of one select (and
// its UNION branches); subqueries inside expressions are handled by the
// walk in selectRefs, which fires at every nesting depth.
func fromRefs(sel *ast.Select, out map[string]bool) {
	for ; sel != nil; sel = sel.Union {
		for _, f := range sel.From {
			if f.Table.Name != "" {
				out[f.Table.Name] = true
			}
			fromRefs(f.Table.Subquery, out)
			for _, j := range f.Joins {
				if j.Right.Name != "" {
					out[j.Right.Name] = true
				}
				fromRefs(j.Right.Subquery, out)
			}
		}
	}
}

func (g *Generator) genCreateIndex() ast.Statement {
	t := g.anyTable()
	name := g.indexName()
	ci := t.pick(g.rnd, func(*column) bool { return true })
	g.indexes = append(g.indexes, struct{ name, table string }{name, t.name})
	return &ast.CreateIndex{Name: name, Table: t.name, Columns: []string{t.col(ci).name}}
}

func (g *Generator) genDropIndex() ast.Statement {
	i := g.rnd.Intn(len(g.indexes))
	ix := g.indexes[i]
	g.indexes = append(g.indexes[:i], g.indexes[i+1:]...)
	return &ast.DropIndex{Name: ix.name}
}

func (g *Generator) genDropView() ast.Statement {
	v := g.views[g.rnd.Intn(len(g.views))]
	g.dropRelation(v.name, true)
	return &ast.DropView{Name: v.name}
}

// droppableTable returns a dropping candidate: a synthetic (non-pool)
// table above the minimum table count. Pool tables are fault-trigger
// tables and stay alive for the whole stream.
func (g *Generator) droppableTable() *relation {
	if len(g.tables) <= minTables {
		return nil
	}
	prefix := g.opts.NamePrefix + "QT"
	for _, t := range g.tables {
		if len(t.name) >= len(prefix) && t.name[:len(prefix)] == prefix {
			return t
		}
	}
	return nil
}

func (g *Generator) genDropTable() ast.Statement {
	t := g.droppableTable()
	if t == nil {
		return nil
	}
	g.dropRelation(t.name, false)
	return &ast.DropTable{Name: t.name}
}

func (g *Generator) genCreateSequence() ast.Statement {
	name := g.seqName()
	g.seqs = append(g.seqs, name)
	return &ast.CreateSequence{Name: name, Start: int64(1 + g.rnd.Intn(100))}
}

func (g *Generator) genDropSequence() ast.Statement {
	i := g.rnd.Intn(len(g.seqs))
	name := g.seqs[i]
	g.seqs = append(g.seqs[:i], g.seqs[i+1:]...)
	return &ast.DropSequence{Name: name}
}
