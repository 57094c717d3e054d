package engine_test

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"divsql/internal/engine"
	"divsql/internal/qgen"
	"divsql/internal/sql/ast"
	"divsql/internal/sql/stmt"
)

// lsSchema is a schema of view chains (one over a NEXTVAL view), CHECK
// and DEFAULT subqueries reading tables and views, and a sequence, beside
// whatever the generated workload creates.
var lsSchema = []string{
	"CREATE SEQUENCE LS_SQ",
	"CREATE TABLE LS_U (X INT)",
	"CREATE TABLE LS_W (Y INT)",
	"INSERT INTO LS_U VALUES (1), (2)",
	"INSERT INTO LS_W VALUES (1)",
	"CREATE VIEW LS_V1 AS SELECT X FROM LS_U",
	"CREATE VIEW LS_V2 AS SELECT X FROM LS_V1 WHERE X IN (SELECT Y FROM LS_W)",
	"CREATE VIEW LS_VS AS SELECT NEXTVAL('LS_SQ') AS X",
	"CREATE VIEW LS_V3 AS SELECT X FROM LS_VS",
	"CREATE VIEW LS_V4 AS SELECT X FROM LS_V3 UNION SELECT X FROM LS_V2",
	"CREATE TABLE LS_T (A INT DEFAULT (SELECT MAX(X) FROM LS_V2), B INT CHECK (B < (SELECT COUNT(*) FROM LS_W) + 100))",
	"CREATE TABLE LS_C (A INT, CHECK (A >= (SELECT MIN(X) FROM LS_V1)))",
	"CREATE TABLE LS_D (A INT DEFAULT (NEXTVAL('LS_SQ')), B INT)",
}

// lsStatements read and write through every one of those paths.
var lsStatements = []string{
	"INSERT INTO LS_T (B) VALUES (1)",
	"INSERT INTO LS_T VALUES (5, 6)",
	"UPDATE LS_T SET B = 2 WHERE A IN (SELECT X FROM LS_V1)",
	"DELETE FROM LS_T WHERE B > (SELECT MAX(X) FROM LS_V4)",
	"INSERT INTO LS_C VALUES (7)",
	"UPDATE LS_C SET A = A + 1",
	"INSERT INTO LS_D (B) VALUES (1)",
	"INSERT INTO LS_U SELECT X FROM LS_V2",
	"SELECT X FROM LS_V2",
	"SELECT X FROM LS_V3",
	"SELECT X FROM LS_V4 WHERE X > 0",
	"SELECT NEXTVAL('LS_SQ') AS N",
	"SELECT A FROM LS_T WHERE EXISTS (SELECT 1 FROM LS_V3)",
	"SELECT A, B FROM LS_T",
	"SELECT COUNT(*) AS N FROM LS_VX",
}

// The latch set and the sequence bit derived from the handle and the
// schema facts equal what the tree walk they replace derives, for every
// generated and hand-written statement, across DDL churn: a view deep in
// a chain dropped and recreated with and without NEXTVAL, DDL rolled
// back inside two interleaved transactions, and RestoreScoped rewinding
// the schema.
func TestLatchSetMatchesTreeWalk(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		t.Run(fmt.Sprint("seed=", seed), func(t *testing.T) {
			e := engine.NewOracle()
			gs, hs, ds := e.NewSession(), e.NewSession(), e.NewSession()
			checked, viaFacts, advancing := 0, 0, 0
			check := func(p *stmt.Parsed) {
				switch p.AST.(type) {
				case *ast.Insert, *ast.Update, *ast.Delete, *ast.Select:
				default:
					return
				}
				checked++
				got, want := e.LatchSet(p), e.TreeWalkLatchSet(p.AST)
				if !slices.Equal(got, want) {
					t.Fatalf("%q: latch set %v, tree walk %v", p.Text, got, want)
				}
				if !slices.Equal(got, p.Fingerprint.Tables) {
					viaFacts++
				}
				if p.Select != nil {
					adv := e.SelectAdvancesSequences(p)
					if adv != e.TreeWalkAdvances(p.Select) {
						t.Fatalf("%q: advances %v, tree walk says otherwise", p.Text, adv)
					}
					if adv {
						advancing++
					}
				}
			}
			run := func(s *engine.Session, sql string) {
				t.Helper()
				p, err := stmt.Resolve(sql)
				if err != nil {
					t.Fatalf("%q: %v", sql, err)
				}
				check(p)
				s.Exec(p, nil) // failures are part of the workload
			}
			hand := func() {
				for _, sql := range lsStatements {
					run(hs, sql)
				}
			}
			for _, sql := range lsSchema {
				run(hs, sql)
			}
			snap := e.Snapshot()

			opts := qgen.CommonProfile(seed)
			opts.Sequences = true
			g := qgen.New(opts)
			for i := 1; i <= 600; i++ {
				run(gs, ast.Render(g.Next()))
				if i%50 != 0 {
					continue
				}
				hand()
				switch i / 50 % 4 {
				case 0: // the chain's base view loses, then regains, NEXTVAL
					body := "SELECT 1 AS X"
					if i/200%2 == 0 {
						body = "SELECT NEXTVAL('LS_SQ') AS X"
					}
					run(hs, "DROP VIEW LS_V4")
					run(hs, "DROP VIEW LS_V3")
					run(hs, "DROP VIEW LS_VS")
					run(hs, "CREATE VIEW LS_VS AS "+body)
					hand()
					run(hs, "CREATE VIEW LS_V3 AS SELECT X FROM LS_VS")
					run(hs, "CREATE VIEW LS_V4 AS SELECT X FROM LS_V3 UNION SELECT X FROM LS_V2")
				case 1: // DDL inside two interleaved transactions, rolled back
					run(ds, "BEGIN TRANSACTION")
					run(ds, "CREATE VIEW LS_VY AS SELECT X FROM LS_U")
					run(hs, "BEGIN TRANSACTION")
					run(hs, "CREATE VIEW LS_VX AS SELECT X FROM LS_V3")
					run(hs, "DROP VIEW LS_V2")
					run(hs, "CREATE VIEW LS_V2 AS SELECT Y AS X FROM LS_W")
					// The stamp from before both transactions, whose
					// facts the hand-written statements just derived, is
					// back; the catalog holds hs's DDL.
					run(ds, "ROLLBACK")
					hand()
					run(hs, "ROLLBACK")
				case 2: // the hand-written schema rewound to its first image
					e.RestoreScoped(snap, func(n string) bool { return strings.HasPrefix(n, "LS_") })
				}
				hand()
			}
			t.Logf("%d statements checked: %d latched beyond their own tables, %d advance a sequence", checked, viaFacts, advancing)
			if viaFacts == 0 || advancing == 0 {
				t.Fatal("the workload never reached a view, CHECK or DEFAULT read, or a sequence-advancing SELECT")
			}
		})
	}
}
