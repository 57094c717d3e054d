package ast

import (
	"strconv"
	"strings"

	"divsql/internal/sql/lexer"
)

// Render serializes a statement back to SQL text. The output is accepted
// by the parser (round-trip property) and is the vehicle by which the
// dialect translator re-targets a script: it rewrites the AST and renders
// it in the destination dialect's spelling.
func Render(st Statement) string {
	var b strings.Builder
	renderStmt(&b, st)
	return b.String()
}

// writeIdent writes an identifier the way the lexer reads it back as the
// same identifier: bare when it is a plain word that is not a keyword,
// delimited otherwise (a name that was written delimited because it
// holds a space, starts with a digit, is empty or spells a keyword).
func writeIdent(b *strings.Builder, name string) {
	if lexer.PlainIdent(name) {
		b.WriteString(name)
	} else if !strings.Contains(name, `"`) {
		b.WriteString(`"` + name + `"`)
	} else {
		b.WriteString("[" + name + "]")
	}
}

func writeIdents(b *strings.Builder, names []string) {
	for i, n := range names {
		if i > 0 {
			b.WriteString(", ")
		}
		writeIdent(b, n)
	}
}

func renderStmt(b *strings.Builder, st Statement) {
	switch x := st.(type) {
	case *CreateTable:
		b.WriteString("CREATE TABLE ")
		writeIdent(b, x.Name)
		b.WriteString(" (")
		for i, c := range x.Columns {
			if i > 0 {
				b.WriteString(", ")
			}
			renderColumnDef(b, c)
		}
		for _, tc := range x.Constraints {
			b.WriteString(", ")
			renderTableConstraint(b, tc)
		}
		b.WriteString(")")
	case *CreateView:
		b.WriteString("CREATE VIEW ")
		writeIdent(b, x.Name)
		if len(x.Columns) > 0 {
			b.WriteString(" (")
			writeIdents(b, x.Columns)
			b.WriteString(")")
		}
		b.WriteString(" AS ")
		renderSelect(b, x.Select)
	case *CreateIndex:
		b.WriteString("CREATE ")
		if x.Unique {
			b.WriteString("UNIQUE ")
		}
		if x.Clustered {
			b.WriteString("CLUSTERED ")
		}
		b.WriteString("INDEX ")
		writeIdent(b, x.Name)
		b.WriteString(" ON ")
		writeIdent(b, x.Table)
		b.WriteString(" (")
		writeIdents(b, x.Columns)
		b.WriteString(")")
	case *CreateSequence:
		b.WriteString("CREATE SEQUENCE ")
		writeIdent(b, x.Name)
		if x.Start != 0 {
			b.WriteString(" START WITH ")
			b.WriteString(strconv.FormatInt(x.Start, 10))
		}
	case *DropTable:
		b.WriteString("DROP TABLE ")
		writeIdent(b, x.Name)
	case *DropView:
		b.WriteString("DROP VIEW ")
		writeIdent(b, x.Name)
	case *DropIndex:
		b.WriteString("DROP INDEX ")
		writeIdent(b, x.Name)
	case *DropSequence:
		b.WriteString("DROP SEQUENCE ")
		writeIdent(b, x.Name)
	case *Insert:
		b.WriteString("INSERT INTO ")
		writeIdent(b, x.Table)
		if len(x.Columns) > 0 {
			b.WriteString(" (")
			writeIdents(b, x.Columns)
			b.WriteString(")")
		}
		if x.Select != nil {
			b.WriteString(" ")
			renderSelect(b, x.Select)
		} else {
			b.WriteString(" VALUES ")
			for i, row := range x.Rows {
				if i > 0 {
					b.WriteString(", ")
				}
				b.WriteString("(")
				for j, e := range row {
					if j > 0 {
						b.WriteString(", ")
					}
					renderExpr(b, e)
				}
				b.WriteString(")")
			}
		}
	case *Update:
		b.WriteString("UPDATE ")
		writeIdent(b, x.Table)
		b.WriteString(" SET ")
		for i, sc := range x.Sets {
			if i > 0 {
				b.WriteString(", ")
			}
			b.WriteString(sc.Column)
			b.WriteString(" = ")
			renderExpr(b, sc.Value)
		}
		if x.Where != nil {
			b.WriteString(" WHERE ")
			renderExpr(b, x.Where)
		}
	case *Delete:
		b.WriteString("DELETE FROM ")
		writeIdent(b, x.Table)
		if x.Where != nil {
			b.WriteString(" WHERE ")
			renderExpr(b, x.Where)
		}
	case *Begin:
		b.WriteString("BEGIN TRANSACTION")
	case *Commit:
		b.WriteString("COMMIT")
	case *Rollback:
		b.WriteString("ROLLBACK")
	case *SetTxn:
		b.WriteString("SET TRANSACTION ISOLATION LEVEL ")
		b.WriteString(x.Level)
	case *Select:
		renderSelect(b, x)
	}
}

func renderColumnDef(b *strings.Builder, c ColumnDef) {
	writeIdent(b, c.Name)
	b.WriteString(" ")
	renderType(b, c.Type)
	if c.Default != nil {
		b.WriteString(" DEFAULT ")
		renderExpr(b, c.Default)
	}
	if c.NotNull {
		b.WriteString(" NOT NULL")
	}
	if c.PrimaryKey {
		b.WriteString(" PRIMARY KEY")
	}
	if c.Unique {
		b.WriteString(" UNIQUE")
	}
	if c.Check != nil {
		b.WriteString(" CHECK (")
		renderExpr(b, c.Check)
		b.WriteString(")")
	}
}

func renderTableConstraint(b *strings.Builder, tc TableConstraint) {
	if tc.Name != "" {
		b.WriteString("CONSTRAINT ")
		writeIdent(b, tc.Name)
		b.WriteString(" ")
	}
	switch {
	case len(tc.PrimaryKey) > 0:
		b.WriteString("PRIMARY KEY (")
		writeIdents(b, tc.PrimaryKey)
		b.WriteString(")")
	case len(tc.Unique) > 0:
		b.WriteString("UNIQUE (")
		writeIdents(b, tc.Unique)
		b.WriteString(")")
	case tc.Check != nil:
		b.WriteString("CHECK (")
		renderExpr(b, tc.Check)
		b.WriteString(")")
	}
}

func renderType(b *strings.Builder, t TypeName) {
	if t.Name == "DOUBLE PRECISION" { // the one two-word type name
		b.WriteString(t.Name)
	} else {
		writeIdent(b, t.Name)
	}
	if len(t.Args) > 0 {
		b.WriteString("(")
		for i, a := range t.Args {
			if i > 0 {
				b.WriteString(", ")
			}
			b.WriteString(strconv.Itoa(a))
		}
		b.WriteString(")")
	}
}

func renderSelect(b *strings.Builder, s *Select) {
	if s == nil {
		return
	}
	b.WriteString("SELECT ")
	if s.Distinct {
		b.WriteString("DISTINCT ")
	}
	if s.LimitSyn == LimitTop {
		b.WriteString("TOP ")
		b.WriteString(strconv.FormatInt(s.Limit, 10))
		b.WriteString(" ")
	}
	for i, it := range s.Items {
		if i > 0 {
			b.WriteString(", ")
		}
		switch {
		case it.Star && it.StarTable != "":
			writeIdent(b, it.StarTable)
			b.WriteString(".*")
		case it.Star:
			b.WriteString("*")
		default:
			renderExpr(b, it.Expr)
			if it.Alias != "" {
				b.WriteString(" AS ")
				writeIdent(b, it.Alias)
			}
		}
	}
	if len(s.From) > 0 {
		b.WriteString(" FROM ")
		for i, f := range s.From {
			if i > 0 {
				b.WriteString(", ")
			}
			renderTableRef(b, f.Table)
			for _, j := range f.Joins {
				b.WriteString(" ")
				b.WriteString(j.Type.String())
				b.WriteString(" ")
				renderTableRef(b, j.Right)
				if j.On != nil {
					b.WriteString(" ON ")
					renderExpr(b, j.On)
				}
			}
		}
	}
	if s.Where != nil {
		b.WriteString(" WHERE ")
		renderExpr(b, s.Where)
	}
	if len(s.GroupBy) > 0 {
		b.WriteString(" GROUP BY ")
		for i, g := range s.GroupBy {
			if i > 0 {
				b.WriteString(", ")
			}
			renderExpr(b, g)
		}
	}
	if s.Having != nil {
		b.WriteString(" HAVING ")
		renderExpr(b, s.Having)
	}
	if s.Union != nil {
		b.WriteString(" UNION ")
		if s.UnionAll {
			b.WriteString("ALL ")
		}
		renderSelect(b, s.Union)
	}
	if len(s.OrderBy) > 0 {
		b.WriteString(" ORDER BY ")
		for i, o := range s.OrderBy {
			if i > 0 {
				b.WriteString(", ")
			}
			renderExpr(b, o.Expr)
			if o.Desc {
				b.WriteString(" DESC")
			}
		}
	}
	switch s.LimitSyn {
	case LimitLimit:
		b.WriteString(" LIMIT ")
		b.WriteString(strconv.FormatInt(s.Limit, 10))
	case LimitRows:
		b.WriteString(" ROWS ")
		b.WriteString(strconv.FormatInt(s.Limit, 10))
	}
}

func renderTableRef(b *strings.Builder, t TableRef) {
	if t.Subquery != nil {
		b.WriteString("(")
		renderSelect(b, t.Subquery)
		b.WriteString(")")
	} else {
		writeIdent(b, t.Name)
	}
	if t.Alias != "" {
		b.WriteString(" ")
		writeIdent(b, t.Alias)
	}
}

func renderExpr(b *strings.Builder, e Expr) {
	switch x := e.(type) {
	case nil:
		return
	case *Literal:
		b.WriteString(x.Val.SQLLiteral())
	case *Param:
		b.WriteString("$")
		b.WriteString(strconv.Itoa(x.N))
	case *ColumnRef:
		if x.Table != "" {
			writeIdent(b, x.Table)
			b.WriteString(".")
		}
		writeIdent(b, x.Column)
	case *Binary:
		b.WriteString("(")
		renderExpr(b, x.L)
		b.WriteString(" ")
		b.WriteString(x.Op.String())
		b.WriteString(" ")
		renderExpr(b, x.R)
		b.WriteString(")")
	case *Unary:
		b.WriteString(x.Op)
		if x.Op == "NOT" {
			b.WriteString(" ")
		}
		b.WriteString("(")
		renderExpr(b, x.X)
		b.WriteString(")")
	case *FuncCall:
		writeIdent(b, x.Name)
		b.WriteString("(")
		if x.Star {
			b.WriteString("*")
		} else {
			if x.Distinct {
				b.WriteString("DISTINCT ")
			}
			for i, a := range x.Args {
				if i > 0 {
					b.WriteString(", ")
				}
				renderExpr(b, a)
			}
		}
		b.WriteString(")")
	case *In:
		renderExpr(b, x.X)
		if x.Not {
			b.WriteString(" NOT")
		}
		b.WriteString(" IN (")
		if x.Select != nil {
			renderSelect(b, x.Select)
		} else {
			for i, a := range x.List {
				if i > 0 {
					b.WriteString(", ")
				}
				renderExpr(b, a)
			}
		}
		b.WriteString(")")
	case *Exists:
		if x.Not {
			b.WriteString("NOT ")
		}
		b.WriteString("EXISTS (")
		renderSelect(b, x.Select)
		b.WriteString(")")
	case *Subquery:
		b.WriteString("(")
		renderSelect(b, x.Select)
		b.WriteString(")")
	case *Between:
		renderExpr(b, x.X)
		if x.Not {
			b.WriteString(" NOT")
		}
		b.WriteString(" BETWEEN ")
		renderExpr(b, x.Lo)
		b.WriteString(" AND ")
		renderExpr(b, x.Hi)
	case *Like:
		renderExpr(b, x.X)
		if x.Not {
			b.WriteString(" NOT")
		}
		b.WriteString(" LIKE ")
		renderExpr(b, x.Pattern)
	case *IsNull:
		renderExpr(b, x.X)
		b.WriteString(" IS ")
		if x.Not {
			b.WriteString("NOT ")
		}
		b.WriteString("NULL")
	case *Case:
		b.WriteString("CASE")
		if x.Operand != nil {
			b.WriteString(" ")
			renderExpr(b, x.Operand)
		}
		for _, w := range x.Whens {
			b.WriteString(" WHEN ")
			renderExpr(b, w.Cond)
			b.WriteString(" THEN ")
			renderExpr(b, w.Then)
		}
		if x.Else != nil {
			b.WriteString(" ELSE ")
			renderExpr(b, x.Else)
		}
		b.WriteString(" END")
	case *Cast:
		b.WriteString("CAST(")
		renderExpr(b, x.X)
		b.WriteString(" AS ")
		renderType(b, x.To)
		b.WriteString(")")
	}
}
