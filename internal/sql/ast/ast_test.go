package ast

import (
	"testing"

	"divsql/internal/sql/types"
)

func sel(items ...SelectItem) *Select {
	return &Select{Items: items, From: []FromItem{{Table: TableRef{Name: "t1"}}}}
}

func col(name string) SelectItem {
	return SelectItem{Expr: &ColumnRef{Column: name}}
}

func TestTablesCollection(t *testing.T) {
	s := &Select{
		Items: []SelectItem{col("a")},
		From: []FromItem{{
			Table: TableRef{Name: "base"},
			Joins: []Join{{Type: JoinLeft, Right: TableRef{Name: "joined"}, On: &Binary{
				Op: OpEq, L: &ColumnRef{Table: "base", Column: "id"}, R: &ColumnRef{Table: "joined", Column: "id"},
			}}},
		}},
		Where: &In{
			X:      &ColumnRef{Column: "a"},
			Select: &Select{Items: []SelectItem{col("b")}, From: []FromItem{{Table: TableRef{Name: "subq"}}}},
		},
	}
	tabs := Tables(s)
	for _, want := range []string{"BASE", "JOINED", "SUBQ"} {
		if !tabs[want] {
			t.Errorf("missing table %s in %v", want, tabs)
		}
	}
}

func TestFingerprintFlags(t *testing.T) {
	s := &Select{
		Distinct: true,
		Items: []SelectItem{
			{Expr: &FuncCall{Name: "AVG", Args: []Expr{&ColumnRef{Column: "x"}}}},
			{Expr: &Binary{Op: OpMod, L: &Literal{Val: types.NewInt(7)}, R: &Literal{Val: types.NewInt(3)}}},
		},
		From:    []FromItem{{Table: TableRef{Name: "t"}, Joins: []Join{{Type: JoinLeft, Right: TableRef{Name: "u"}}}}},
		GroupBy: []Expr{&ColumnRef{Column: "g"}},
		OrderBy: []OrderItem{{Expr: &ColumnRef{Column: "x"}}},
		Union:   sel(col("y")),
	}
	fp := FingerprintOf(s)
	for _, f := range []Flag{
		FlagSelect, FlagDistinct, FlagAggregate, FlagAvg, FlagMod, FlagArith,
		FlagLeftJoin, FlagJoin, FlagGroupBy, FlagOrderBy, FlagUnion,
	} {
		if !fp.Has(f) {
			t.Errorf("missing flag %s", f)
		}
	}
	if !fp.UsesTable("T") || !fp.UsesTable("u") {
		t.Errorf("tables: %v", fp.Tables)
	}
	if !fp.UsesFunc("avg") {
		t.Errorf("funcs: %v", fp.Funcs)
	}
}

func TestFingerprintDDL(t *testing.T) {
	ct := &CreateTable{Name: "t", Columns: []ColumnDef{
		{Name: "a", Type: TypeName{Name: "INT"}, PrimaryKey: true, Default: &Literal{Val: types.NewInt(1)}},
	}}
	fp := FingerprintOf(ct)
	for _, f := range []Flag{FlagCreateTable, FlagPrimaryKey, FlagDefault} {
		if !fp.Has(f) {
			t.Errorf("missing %s", f)
		}
	}

	ci := &CreateIndex{Name: "ix", Table: "t", Clustered: true}
	fp = FingerprintOf(ci)
	if !fp.Has(FlagClusteredIdx) || !fp.Has(FlagCreateIndex) {
		t.Errorf("index flags: %v", fp)
	}

	cv := &CreateView{Name: "v", Select: &Select{
		Distinct: true,
		Items:    []SelectItem{col("a")},
		From:     []FromItem{{Table: TableRef{Name: "t"}}},
		Union:    sel(col("b")),
	}}
	fp = FingerprintOf(cv)
	if !fp.Has(FlagViewDistinct) || !fp.Has(FlagViewUnion) {
		t.Errorf("view flags: %v", fp)
	}
}

// A fingerprint is kept for as long as its statement's text is interned,
// so it is a bit set and two short sorted lists: names and functions are
// listed once however often the statement uses them, and the digest does
// not depend on the order of use.
func TestFingerprintIsCompactAndOrdered(t *testing.T) {
	fn := func(name string) Expr { return &FuncCall{Name: name, Args: []Expr{&ColumnRef{Column: "a"}}} }
	s := &Select{
		Items: []SelectItem{{Expr: fn("upper")}, {Expr: fn("ABS")}, {Expr: fn("Upper")}},
		From:  []FromItem{{Table: TableRef{Name: "u"}}, {Table: TableRef{Name: "T"}}, {Table: TableRef{Name: "t"}}},
		Where: &Like{X: &ColumnRef{Column: "a"}, Pattern: &Literal{Val: types.NewString("x%")}},
	}
	fp := FingerprintOf(s)
	if got, want := fp.String(), "LIKE|SELECT @ T,U"; got != want {
		t.Errorf("digest %q, want %q", got, want)
	}
	if len(fp.Tables) != 2 || len(fp.Funcs) != 2 || !fp.UsesFunc("abs") || !fp.UsesFunc("UPPER") || fp.UsesFunc("LOWER") {
		t.Errorf("tables %v funcs %v", fp.Tables, fp.Funcs)
	}
	if len(flagBit) != len(flagList) || len(flagList) > 64 {
		t.Errorf("%d flags listed, %d distinct: each needs its own bit of a uint64", len(flagList), len(flagBit))
	}
}

func TestFingerprintSubqueries(t *testing.T) {
	s := &Select{
		Items: []SelectItem{col("a")},
		From:  []FromItem{{Table: TableRef{Name: "t"}}},
		Where: &In{
			X:   &ColumnRef{Column: "a"},
			Not: true,
			Select: &Select{
				Items: []SelectItem{col("b")},
				From:  []FromItem{{Table: TableRef{Name: "u"}}},
				Union: sel(col("c")),
			},
		},
	}
	fp := FingerprintOf(s)
	for _, f := range []Flag{FlagSubquery, FlagInSubquery, FlagNotIn, FlagUnion} {
		if !fp.Has(f) {
			t.Errorf("missing %s", f)
		}
	}
}

func TestFingerprintString(t *testing.T) {
	fp := FingerprintOf(&DropTable{Name: "x"})
	s := fp.String()
	if s == "" {
		t.Error("empty fingerprint digest")
	}
	fp2 := FingerprintOf(&DropTable{Name: "x"})
	if fp2.String() != s {
		t.Error("fingerprint digest not deterministic")
	}
}

func TestWalkExprsCoverage(t *testing.T) {
	// Count nodes in a deeply composed expression.
	e := &Case{
		Operand: &ColumnRef{Column: "a"},
		Whens: []WhenClause{{
			Cond: &Between{X: &ColumnRef{Column: "b"}, Lo: &Literal{Val: types.NewInt(1)}, Hi: &Literal{Val: types.NewInt(2)}},
			Then: &Cast{X: &ColumnRef{Column: "c"}, To: TypeName{Name: "INT"}},
		}},
		Else: &Like{X: &ColumnRef{Column: "d"}, Pattern: &Literal{Val: types.NewString("x%")}},
	}
	n := 0
	WalkExprs(e, func(Expr) { n++ })
	if n < 9 {
		t.Errorf("walked %d nodes, want at least 9", n)
	}
}

func TestJoinTypeStrings(t *testing.T) {
	names := map[JoinType]string{
		JoinInner: "INNER JOIN",
		JoinLeft:  "LEFT OUTER JOIN",
		JoinRight: "RIGHT OUTER JOIN",
		JoinFull:  "FULL OUTER JOIN",
		JoinCross: "CROSS JOIN",
	}
	for jt, want := range names {
		if jt.String() != want {
			t.Errorf("%v", jt)
		}
	}
}
