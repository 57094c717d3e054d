package metamorph_test

import (
	"testing"

	"divsql/internal/engine"
	engplan "divsql/internal/engine/plan"
	"divsql/internal/metamorph"
	"divsql/internal/qgen"
	"divsql/internal/server"
	"divsql/internal/sql/ast"
	"divsql/internal/sql/parser"
	"divsql/internal/sql/stmt"
)

// TestPartitionsRoundTripProperty is the rendering-stability property
// behind the TLP rewrite: for every generated predicate p, each of the
// three partition predicates (p, NOT p, p IS NULL) must survive
// render → parse → render unchanged, and must keep a stable statement
// fingerprint across the round trip. Instability in either direction
// would let a TLP conviction point at a statement the shrinker and the
// regression corpus cannot re-derive. The generator runs with
// PartitionSympathy on — the exact stream the metamorphic hunts draw.
func TestPartitionsRoundTripProperty(t *testing.T) {
	opts := qgen.CommonProfile(1)
	opts.PartitionSympathy = true
	g := qgen.New(opts)

	const want = 5000
	checked := 0
	for i := 0; checked < want && i < 20*want; i++ {
		sel, ok := g.Next().(*ast.Select)
		if !ok || sel.Where == nil {
			continue
		}
		pTrue, pFalse, pNull := metamorph.Partitions(sel.Where)
		for _, part := range []struct {
			name string
			p    ast.Expr
		}{{"true", pTrue}, {"false", pFalse}, {"null", pNull}} {
			cp := *sel
			cp.Where = part.p
			cp.OrderBy = nil
			r1 := ast.Render(&cp)
			st2, err := parser.Parse(r1)
			if err != nil {
				t.Fatalf("%s partition of %q does not re-parse: %v\nrendered: %s",
					part.name, ast.Render(sel), err, r1)
			}
			if r2 := ast.Render(st2); r1 != r2 {
				t.Fatalf("%s partition render unstable:\n  first:  %s\n  second: %s", part.name, r1, r2)
			}
			fp1 := ast.FingerprintOf(&cp).String()
			fp2 := ast.FingerprintOf(st2).String()
			if fp1 != fp2 {
				t.Fatalf("%s partition fingerprint unstable: %q vs %q on %s", part.name, fp1, fp2, r1)
			}
		}
		checked++
	}
	if checked < want {
		t.Fatalf("generator yielded only %d WHERE-bearing selects (want %d)", checked, want)
	}
}

// TestPartitionsStripNot pins the NOT-peeling rule: IsNull must wrap
// the NOT-free core of the predicate, because rendering
// IsNull{Unary{NOT, p}} produces `NOT (p) IS NULL`, which re-parses as
// NOT(p IS NULL) — the complementary predicate. Peeling is 3VL-exact
// (NOT x is UNKNOWN iff x is), so the partition is unchanged
// semantically and becomes render-stable.
func TestPartitionsStripNot(t *testing.T) {
	st, err := parser.Parse("SELECT C1 AS X1 FROM T1 WHERE NOT (NOT ((C1 > 5)))")
	if err != nil {
		t.Fatal(err)
	}
	_, _, pNull := metamorph.Partitions(st.(*ast.Select).Where)
	isn, ok := pNull.(*ast.IsNull)
	if !ok || isn.Not {
		t.Fatalf("null partition is %T, want plain IS NULL", pNull)
	}
	if _, stillNot := isn.X.(*ast.Unary); stillNot {
		t.Fatalf("IS NULL wraps a NOT wrapper; stripNot failed")
	}
}

// TestCheckCleanEngineIsSilent runs every oracle over a varied set
// of answered SELECTs on a clean engine: zero findings, and every
// oracle must report itself applicable (checked) at least once — a
// guard against the suite silently checking nothing.
func TestCheckCleanEngineIsSilent(t *testing.T) {
	orc := server.NewOracle()
	sess := orc.NewSession()
	defer sess.Close()
	for _, s := range []string{
		"CREATE TABLE T1 (C1 INT PRIMARY KEY, C2 INT, C3 VARCHAR(8))",
		"INSERT INTO T1 (C1, C2, C3) VALUES (1, 10, 'a'), (2, NULL, 'b'), (3, 30, NULL), (4, 40, 'd')",
	} {
		if _, _, err := sess.Exec(s); err != nil {
			t.Fatalf("%s: %v", s, err)
		}
	}
	applied := map[metamorph.Oracle]bool{}
	for _, q := range []string{
		"SELECT C1 AS X1, C3 AS X2 FROM T1 WHERE (C2 > 15)",
		"SELECT C1 AS X1 FROM T1 WHERE NOT ((C3 = 'b'))",
		"SELECT COUNT(*) AS A1, SUM(C2) AS A2 FROM T1 WHERE (C1 < 4)",
		"SELECT C1 AS X1 FROM T1 WHERE C3 IS NULL",
		"SELECT C2 AS X1 FROM T1 WHERE C2 BETWEEN 5 AND 35",
	} {
		res, _, err := sess.Exec(q)
		if err != nil {
			t.Fatalf("%s: %v", q, err)
		}
		p, err := stmt.Resolve(q)
		if err != nil {
			t.Fatal(err)
		}
		checked, findings := metamorph.Check(sess, p, nil, res, metamorph.Oracles)
		for _, f := range findings {
			t.Errorf("%s convicted a clean engine on %q: %s", f.Oracle, q, f.Detail)
		}
		for _, o := range checked {
			applied[o] = true
		}
	}
	for _, o := range metamorph.Oracles {
		if !applied[o] {
			t.Errorf("oracle %s never applied to any probe query", o)
		}
	}
}

// TestUnforcedRewriteRunsItsOwnPlan: a rewrite of an answered SELECT,
// executed unforced as TLP's partitions are, returns the rewrite's rows
// on an endpoint whose plan memo holds the original's plan — the
// original's would answer for the rewrite if the two shared a shape.
func TestUnforcedRewriteRunsItsOwnPlan(t *testing.T) {
	sess := server.NewOracle().NewSession()
	defer sess.Close()
	for _, s := range []string{
		"CREATE TABLE RW1 (C1 INT PRIMARY KEY, C2 INT)",
		"INSERT INTO RW1 (C1, C2) VALUES (1, 10), (2, NULL), (3, 30)",
		"SELECT C1 FROM RW1 WHERE C2 > 15",
	} {
		if _, _, err := sess.Exec(s); err != nil {
			t.Fatalf("%s: %v", s, err)
		}
	}
	p, err := stmt.Resolve("SELECT C1 FROM RW1 WHERE C2 > 15")
	if err != nil {
		t.Fatal(err)
	}
	rw, err := parser.Parse("SELECT C1 FROM RW1 WHERE NOT (C2 > 15)")
	if err != nil {
		t.Fatal(err)
	}
	res, err := sess.ExecVariant(p.Rewritten(rw), engplan.ForceAuto)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 || res.Rows[0][0].I != 1 {
		t.Errorf("unforced rewrite returned %v, want the one row C1 = 1", res.Rows)
	}
}

// Every oracle re-runs statements on the session whose base result it
// judges, and that session's next statement reclaims the base (and each
// TLP partition in turn). Under poison (poison_test.go), all four armed
// on one statement whose base has rows still check it — silent on the
// served answer, and each convicting the answer with a row dropped.
func TestCheckReadsTheBaseAcrossItsReruns(t *testing.T) {
	orc := server.NewOracle()
	sess := orc.NewSession()
	defer sess.Close()
	for _, s := range []string{
		"CREATE TABLE T1 (C1 INT PRIMARY KEY, C2 INT)",
		"INSERT INTO T1 (C1, C2) VALUES (1, 10), (2, NULL), (3, 30), (4, 40)",
	} {
		if _, _, err := sess.Exec(s); err != nil {
			t.Fatalf("%s: %v", s, err)
		}
	}
	const q = "SELECT C1 AS X1, C2 AS X2 FROM T1 WHERE C2 > 15"
	p, err := stmt.Resolve(q)
	if err != nil {
		t.Fatal(err)
	}
	run := func() *engine.Result {
		res, _, err := sess.Exec(q)
		if err != nil || len(res.Rows) != 2 {
			t.Fatalf("%s: %v, err %v", q, res, err)
		}
		return res
	}
	checked, findings := metamorph.Check(sess, p, nil, run(), metamorph.Oracles)
	if len(checked) != len(metamorph.Oracles) || len(findings) != 0 {
		t.Errorf("served answer: checked %v, findings %v; want all four checked, none convicting", checked, findings)
	}
	short := run().Clone()
	short.Rows = short.Rows[:1]
	_, findings = metamorph.Check(sess, p, nil, short, metamorph.Oracles)
	convicted := map[metamorph.Oracle]bool{}
	for _, f := range findings {
		convicted[f.Oracle] = true
	}
	for _, o := range metamorph.Oracles {
		if !convicted[o] {
			t.Errorf("%s did not convict an answer missing a row: %v", o, findings)
		}
	}
}
