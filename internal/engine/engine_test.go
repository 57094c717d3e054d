package engine

import (
	"errors"
	"strings"
	"sync"
	"testing"

	"divsql/internal/sql/stmt"
	"divsql/internal/sql/types"
)

// mustExec runs a statement and fails the test on error.
func mustExec(t *testing.T, e *Engine, sql string) *Result {
	t.Helper()
	res, err := execSQL(e, sql)
	if err != nil {
		t.Fatalf("exec %q: %v", sql, err)
	}
	return res
}

// testSessions holds the one session per test engine that execSQL runs
// on, so a BEGIN ... COMMIT sequence spans calls.
var testSessions sync.Map // *Engine -> *Session

func sessionOf(e *Engine) *Session {
	if s, ok := testSessions.Load(e); ok {
		return s.(*Session)
	}
	s, _ := testSessions.LoadOrStore(e, e.NewSession())
	return s.(*Session)
}

func execSQL(e *Engine, sql string) (*Result, error) {
	p, err := stmt.Resolve(sql)
	if err != nil {
		return nil, err
	}
	res, err := sessionOf(e).Exec(p, nil)
	// The session is shared: what a test reads later must be a copy.
	return res.Clone(), err
}

// resolve returns the shared handle of a statement text, as every layer
// above the engine does (stmt.Resolve): the plan memo is keyed by the
// handle's tree.
func resolve(t testing.TB, sql string) *stmt.Parsed {
	t.Helper()
	p, err := stmt.Resolve(sql)
	if err != nil {
		t.Fatalf("%q: %v", sql, err)
	}
	return p
}

func mustFail(t *testing.T, e *Engine, sql string) error {
	t.Helper()
	_, err := execSQL(e, sql)
	if err == nil {
		t.Fatalf("exec %q: expected error, got none", sql)
	}
	return err
}

func seed(t *testing.T, e *Engine) {
	t.Helper()
	mustExec(t, e, "CREATE TABLE PRODUCT (ID INT PRIMARY KEY, NAME VARCHAR(30), PRICE FLOAT)")
	mustExec(t, e, "INSERT INTO PRODUCT VALUES (1, 'apple', 2.5)")
	mustExec(t, e, "INSERT INTO PRODUCT VALUES (2, 'pear', 3.0)")
	mustExec(t, e, "INSERT INTO PRODUCT VALUES (3, 'plum', 1.25)")
}

func rowStrings(res *Result) []string {
	out := make([]string, 0, len(res.Rows))
	for _, r := range res.Rows {
		cells := make([]string, len(r))
		for i, v := range r {
			cells[i] = v.String()
		}
		out = append(out, strings.Join(cells, "|"))
	}
	return out
}

func TestCreateInsertSelect(t *testing.T) {
	e := NewOracle()
	seed(t, e)
	res := mustExec(t, e, "SELECT NAME, PRICE FROM PRODUCT WHERE PRICE >= 2 ORDER BY PRICE DESC")
	got := rowStrings(res)
	want := []string{"pear|3", "apple|2.5"}
	if len(got) != len(want) {
		t.Fatalf("got %v want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("row %d: got %q want %q", i, got[i], want[i])
		}
	}
	if res.Columns[0] != "NAME" || res.Columns[1] != "PRICE" {
		t.Errorf("columns: %v", res.Columns)
	}
}

func TestPrimaryKeyViolation(t *testing.T) {
	e := NewOracle()
	seed(t, e)
	err := mustFail(t, e, "INSERT INTO PRODUCT VALUES (1, 'dup', 1.0)")
	if !errors.Is(err, ErrConstraint) {
		t.Errorf("want ErrConstraint, got %v", err)
	}
}

func TestNotNull(t *testing.T) {
	e := NewOracle()
	mustExec(t, e, "CREATE TABLE T (A INT NOT NULL, B INT)")
	mustFail(t, e, "INSERT INTO T (B) VALUES (1)")
	mustExec(t, e, "INSERT INTO T (A) VALUES (1)")
}

func TestDefaultApplied(t *testing.T) {
	e := NewOracle()
	mustExec(t, e, "CREATE TABLE T (A INT, B INT DEFAULT 42)")
	mustExec(t, e, "INSERT INTO T (A) VALUES (1)")
	res := mustExec(t, e, "SELECT B FROM T")
	if res.Rows[0][0].I != 42 {
		t.Errorf("default not applied: %v", res.Rows[0][0])
	}
}

func TestDefaultTypeValidation(t *testing.T) {
	e := NewOracle()
	err := mustFail(t, e, "CREATE TABLE T (A INT DEFAULT 'ABC')")
	if !errors.Is(err, ErrType) {
		t.Errorf("want ErrType, got %v", err)
	}
}

func TestDefaultTypeQuirk(t *testing.T) {
	e := New(Config{Quirks: Quirks{SkipDefaultTypeCheck: true}})
	mustExec(t, e, "CREATE TABLE T (A INT DEFAULT 'ABC', B INT)")
	mustExec(t, e, "INSERT INTO T (B) VALUES (1)")
	res := mustExec(t, e, "SELECT A FROM T")
	if res.Rows[0][0].String() != "ABC" {
		t.Errorf("quirk should store raw default, got %v", res.Rows[0][0])
	}
}

func TestGroupByAggregates(t *testing.T) {
	e := NewOracle()
	mustExec(t, e, "CREATE TABLE S (DEPT VARCHAR(10), AMT INT)")
	mustExec(t, e, "INSERT INTO S VALUES ('a', 1), ('a', 3), ('b', 10)")
	res := mustExec(t, e, "SELECT DEPT, SUM(AMT) AS TOTAL, COUNT(*) AS N FROM S GROUP BY DEPT ORDER BY DEPT")
	got := rowStrings(res)
	if got[0] != "a|4|2" || got[1] != "b|10|1" {
		t.Errorf("group by wrong: %v", got)
	}
}

func TestGlobalAggregateEmptyTable(t *testing.T) {
	e := NewOracle()
	mustExec(t, e, "CREATE TABLE S (A INT)")
	res := mustExec(t, e, "SELECT COUNT(*) AS N, SUM(A) AS S FROM S")
	if len(res.Rows) != 1 {
		t.Fatalf("want one row, got %d", len(res.Rows))
	}
	if res.Rows[0][0].I != 0 || !res.Rows[0][1].IsNull() {
		t.Errorf("empty aggregate: %v", rowStrings(res))
	}
}

func TestHaving(t *testing.T) {
	e := NewOracle()
	mustExec(t, e, "CREATE TABLE S (DEPT VARCHAR(10), AMT INT)")
	mustExec(t, e, "INSERT INTO S VALUES ('a', 1), ('a', 3), ('b', 10)")
	res := mustExec(t, e, "SELECT DEPT FROM S GROUP BY DEPT HAVING SUM(AMT) > 5")
	if len(res.Rows) != 1 || res.Rows[0][0].S != "b" {
		t.Errorf("having wrong: %v", rowStrings(res))
	}
}

func TestJoins(t *testing.T) {
	e := NewOracle()
	mustExec(t, e, "CREATE TABLE A (ID INT, X VARCHAR(5))")
	mustExec(t, e, "CREATE TABLE B (ID INT, Y VARCHAR(5))")
	mustExec(t, e, "INSERT INTO A VALUES (1, 'a1'), (2, 'a2'), (3, 'a3')")
	mustExec(t, e, "INSERT INTO B VALUES (1, 'b1'), (3, 'b3'), (3, 'b3x')")

	res := mustExec(t, e, "SELECT A.X, B.Y FROM A INNER JOIN B ON A.ID = B.ID ORDER BY A.X, B.Y")
	if len(res.Rows) != 3 {
		t.Fatalf("inner join rows: %v", rowStrings(res))
	}

	res = mustExec(t, e, "SELECT A.X, B.Y FROM A LEFT OUTER JOIN B ON A.ID = B.ID ORDER BY A.X, B.Y")
	if len(res.Rows) != 4 {
		t.Fatalf("left join rows: %v", rowStrings(res))
	}
	// Row for a2 must carry NULL on the right.
	found := false
	for _, r := range res.Rows {
		if r[0].S == "a2" && r[1].IsNull() {
			found = true
		}
	}
	if !found {
		t.Errorf("left join padding missing: %v", rowStrings(res))
	}
}

func TestSubqueries(t *testing.T) {
	e := NewOracle()
	seed(t, e)
	res := mustExec(t, e, "SELECT NAME FROM PRODUCT WHERE ID IN (SELECT ID FROM PRODUCT WHERE PRICE > 2) ORDER BY NAME")
	if len(res.Rows) != 2 {
		t.Errorf("IN subquery: %v", rowStrings(res))
	}
	res = mustExec(t, e, "SELECT NAME FROM PRODUCT P WHERE EXISTS (SELECT ID FROM PRODUCT WHERE ID = P.ID AND PRICE < 2)")
	if len(res.Rows) != 1 || res.Rows[0][0].S != "plum" {
		t.Errorf("correlated EXISTS: %v", rowStrings(res))
	}
	res = mustExec(t, e, "SELECT NAME FROM PRODUCT WHERE PRICE = (SELECT MAX(PRICE) FROM PRODUCT)")
	if len(res.Rows) != 1 || res.Rows[0][0].S != "pear" {
		t.Errorf("scalar subquery: %v", rowStrings(res))
	}
}

func TestUnionAndDistinct(t *testing.T) {
	e := NewOracle()
	mustExec(t, e, "CREATE TABLE U (A INT)")
	mustExec(t, e, "INSERT INTO U VALUES (1), (2), (2)")
	res := mustExec(t, e, "SELECT A FROM U UNION SELECT A FROM U")
	if len(res.Rows) != 2 {
		t.Errorf("UNION should dedupe: %v", rowStrings(res))
	}
	res = mustExec(t, e, "SELECT A FROM U UNION ALL SELECT A FROM U")
	if len(res.Rows) != 6 {
		t.Errorf("UNION ALL: %v", rowStrings(res))
	}
	res = mustExec(t, e, "SELECT DISTINCT A FROM U ORDER BY A")
	if len(res.Rows) != 2 {
		t.Errorf("DISTINCT: %v", rowStrings(res))
	}
}

func TestViews(t *testing.T) {
	e := NewOracle()
	seed(t, e)
	mustExec(t, e, "CREATE VIEW CHEAP AS SELECT ID, NAME FROM PRODUCT WHERE PRICE < 3")
	res := mustExec(t, e, "SELECT NAME FROM CHEAP ORDER BY NAME")
	if len(res.Rows) != 2 {
		t.Errorf("view rows: %v", rowStrings(res))
	}
	// SQL-92: DROP TABLE must not remove a view.
	if err := mustFail(t, e, "DROP TABLE CHEAP"); !errors.Is(err, ErrTableNotFound) {
		t.Errorf("DROP TABLE on view: %v", err)
	}
	mustExec(t, e, "DROP VIEW CHEAP")
	mustFail(t, e, "SELECT NAME FROM CHEAP")
	// A column list is checked against the definition when the view is
	// created, not first when it is read.
	const mismatch = "view WIDE column list does not match definition"
	if err := mustFail(t, e, "CREATE VIEW WIDE (X, Y, W) AS SELECT ID, NAME FROM PRODUCT"); err.Error() != mismatch {
		t.Errorf("CREATE VIEW with three names for two columns: %v, want %q", err, mismatch)
	}
	mustFail(t, e, "SELECT X FROM WIDE")
}

func TestDropTableOnViewQuirk(t *testing.T) {
	e := New(Config{Quirks: Quirks{AllowDropTableOnView: true}})
	mustExec(t, e, "CREATE TABLE T (A INT)")
	mustExec(t, e, "CREATE VIEW V AS SELECT A FROM T")
	mustExec(t, e, "DROP TABLE V") // quirk: accepted
	mustFail(t, e, "SELECT A FROM V")
}

func TestUpdateDelete(t *testing.T) {
	e := NewOracle()
	seed(t, e)
	res := mustExec(t, e, "UPDATE PRODUCT SET PRICE = PRICE * 2 WHERE ID <= 2")
	if res.Affected != 2 {
		t.Errorf("update affected %d", res.Affected)
	}
	res = mustExec(t, e, "SELECT PRICE FROM PRODUCT WHERE ID = 1")
	if res.Rows[0][0].F() != 5.0 {
		t.Errorf("update value: %v", res.Rows[0][0])
	}
	res = mustExec(t, e, "DELETE FROM PRODUCT WHERE PRICE > 4")
	if res.Affected != 2 {
		t.Errorf("delete affected %d: %v", res.Affected, rowStrings(res))
	}
	res = mustExec(t, e, "SELECT COUNT(*) AS N FROM PRODUCT")
	if res.Rows[0][0].I != 1 {
		t.Errorf("rows after delete: %v", rowStrings(res))
	}
}

func TestTransactions(t *testing.T) {
	e := NewOracle()
	seed(t, e)
	mustExec(t, e, "BEGIN TRANSACTION")
	mustExec(t, e, "INSERT INTO PRODUCT VALUES (10, 'txn', 9.0)")
	mustExec(t, e, "UPDATE PRODUCT SET PRICE = 0 WHERE ID = 1")
	mustExec(t, e, "DELETE FROM PRODUCT WHERE ID = 2")
	mustExec(t, e, "ROLLBACK")
	res := mustExec(t, e, "SELECT COUNT(*) AS N FROM PRODUCT")
	if res.Rows[0][0].I != 3 {
		t.Fatalf("rollback row count: %v", rowStrings(res))
	}
	res = mustExec(t, e, "SELECT PRICE FROM PRODUCT WHERE ID = 1")
	if res.Rows[0][0].F() != 2.5 {
		t.Errorf("rollback restored price: %v", res.Rows[0][0])
	}
	mustExec(t, e, "BEGIN TRANSACTION")
	mustExec(t, e, "INSERT INTO PRODUCT VALUES (11, 'kept', 1.0)")
	mustExec(t, e, "COMMIT")
	res = mustExec(t, e, "SELECT COUNT(*) AS N FROM PRODUCT")
	if res.Rows[0][0].I != 4 {
		t.Errorf("commit row count: %v", rowStrings(res))
	}
}

func TestRollbackDDL(t *testing.T) {
	e := NewOracle()
	mustExec(t, e, "BEGIN TRANSACTION")
	mustExec(t, e, "CREATE TABLE TX (A INT)")
	mustExec(t, e, "ROLLBACK")
	mustFail(t, e, "SELECT A FROM TX")
}

func TestSequences(t *testing.T) {
	e := NewOracle()
	mustExec(t, e, "CREATE SEQUENCE SQ START WITH 5")
	res := mustExec(t, e, "SELECT NEXTVAL(SQ) AS V")
	if res.Rows[0][0].I != 5 {
		t.Errorf("nextval: %v", res.Rows[0][0])
	}
	res = mustExec(t, e, "SELECT NEXTVAL(SQ) AS V")
	if res.Rows[0][0].I != 6 {
		t.Errorf("nextval 2: %v", res.Rows[0][0])
	}
}

func TestDateHandling(t *testing.T) {
	e := NewOracle()
	mustExec(t, e, "CREATE TABLE D (ID INT, WHENCOL DATE)")
	mustExec(t, e, "INSERT INTO D VALUES (1, '2000-09-06'), (2, '2000-9-7')")
	res := mustExec(t, e, "SELECT ID FROM D WHERE WHENCOL <= '2000-9-6'")
	if len(res.Rows) != 1 || res.Rows[0][0].I != 1 {
		t.Errorf("date compare: %v", rowStrings(res))
	}
}

func TestCaseExpr(t *testing.T) {
	e := NewOracle()
	seed(t, e)
	res := mustExec(t, e, "SELECT NAME, CASE WHEN PRICE > 2 THEN 'costly' ELSE 'cheap' END AS TAG FROM PRODUCT ORDER BY NAME")
	if res.Rows[0][1].S != "costly" { // apple 2.5
		t.Errorf("case: %v", rowStrings(res))
	}
}

func TestThreeValuedLogic(t *testing.T) {
	e := NewOracle()
	mustExec(t, e, "CREATE TABLE N (A INT)")
	mustExec(t, e, "INSERT INTO N VALUES (1), (NULL)")
	res := mustExec(t, e, "SELECT A FROM N WHERE A = 1")
	if len(res.Rows) != 1 {
		t.Errorf("null filter: %v", rowStrings(res))
	}
	res = mustExec(t, e, "SELECT A FROM N WHERE A <> 1")
	if len(res.Rows) != 0 {
		t.Errorf("null <>: %v", rowStrings(res))
	}
	res = mustExec(t, e, "SELECT A FROM N WHERE A IS NULL")
	if len(res.Rows) != 1 {
		t.Errorf("is null: %v", rowStrings(res))
	}
	// NOT IN with NULL in the list yields no rows.
	res = mustExec(t, e, "SELECT A FROM N WHERE A NOT IN (SELECT A FROM N WHERE A IS NULL)")
	if len(res.Rows) != 0 {
		t.Errorf("NOT IN with NULLs: %v", rowStrings(res))
	}
}

func TestCheckConstraint(t *testing.T) {
	e := NewOracle()
	mustExec(t, e, "CREATE TABLE C (A INT CHECK (A > 0))")
	mustExec(t, e, "INSERT INTO C VALUES (1)")
	err := mustFail(t, e, "INSERT INTO C VALUES (-1)")
	if !errors.Is(err, ErrConstraint) {
		t.Errorf("check: %v", err)
	}
	// Unknown passes (SQL semantics).
	mustExec(t, e, "INSERT INTO C VALUES (NULL)")
	// A CHECK resolves in the new table's scope when the table is created.
	if err := mustFail(t, e, "CREATE TABLE C2 (A INT, B INT, CHECK (NOPE > 0))"); err.Error() != "unknown column NOPE" {
		t.Errorf("CREATE TABLE with an unresolvable CHECK: %v", err)
	}
	mustFail(t, e, "INSERT INTO C2 SELECT A, A FROM C WHERE 1 = 0")
}

// An expression no plan owns — an INSERT's values, a DEFAULT, a CHECK —
// raises its static error before the statement evaluates anything, and
// the statement stores nothing: a node that did not lower is never
// evaluated. A DEFAULT is lowered once per INSERT, before its source
// runs, so a zero-row INSERT fails like a one-row one.
func TestUnownedExpressionsFailToCompile(t *testing.T) {
	e := NewOracle()
	mustExec(t, e, "CREATE TABLE Z (A INT, B INT)")
	mustExec(t, e, "CREATE TABLE SRC (X INT)")
	mustExec(t, e, "INSERT INTO SRC VALUES (5)")
	mustExec(t, e, "CREATE TABLE D (A INT DEFAULT (SELECT MAX(X) FROM SRC), B INT)")
	mustExec(t, e, "CREATE TABLE K (A INT CHECK (A < (SELECT MAX(X) FROM SRC)))")
	misses := e.PlanCacheStats().Misses
	mustExec(t, e, "INSERT INTO D (B) VALUES (1), (2), (3), (4)")
	if n := e.PlanCacheStats().Misses - misses; n != 1 {
		t.Errorf("a four-row INSERT compiled its DEFAULT %d times, want 1", n)
	}
	mustExec(t, e, "INSERT INTO K VALUES (1)")
	mustExec(t, e, "DROP TABLE SRC")
	const gone = "table or view not found: SRC"
	for sql, want := range map[string]string{
		"INSERT INTO Z VALUES (NOPE, 1)":                "unknown column NOPE",
		"INSERT INTO Z VALUES (1, 2), (1/0, NOPE)":      "unknown column NOPE",
		"INSERT INTO D (B) VALUES (2)":                  gone,
		"INSERT INTO D (B) SELECT B FROM D WHERE 1 = 0": gone,
		"INSERT INTO K VALUES (2)":                      gone,
		"INSERT INTO K SELECT A FROM Z WHERE 1 = 0":     gone,
		"UPDATE K SET A = 2":                            gone,
	} {
		if err := mustFail(t, e, sql); err.Error() != want {
			t.Errorf("%q: %v, want %q", sql, err, want)
		}
	}
	for table, want := range map[string]string{"Z": "0", "D": "4", "K": "1"} {
		if got := rowStrings(mustExec(t, e, "SELECT COUNT(*) AS N FROM "+table)); len(got) != 1 || got[0] != want {
			t.Errorf("%s holds %v rows, want %s", table, got, want)
		}
	}
	if got := rowStrings(mustExec(t, e, "SELECT A FROM K")); len(got) != 1 || got[0] != "1" {
		t.Errorf("K after a failed UPDATE: %v, want [1]", got)
	}
}

func TestInsertSelect(t *testing.T) {
	e := NewOracle()
	seed(t, e)
	mustExec(t, e, "CREATE TABLE COPY1 (ID INT, NAME VARCHAR(30))")
	res := mustExec(t, e, "INSERT INTO COPY1 SELECT ID, NAME FROM PRODUCT")
	if res.Affected != 3 {
		t.Errorf("insert-select affected %d", res.Affected)
	}
}

func TestLimitAndTop(t *testing.T) {
	e := NewOracle()
	seed(t, e)
	res := mustExec(t, e, "SELECT NAME FROM PRODUCT ORDER BY PRICE LIMIT 2")
	if len(res.Rows) != 2 || res.Rows[0][0].S != "plum" {
		t.Errorf("limit: %v", rowStrings(res))
	}
	res = mustExec(t, e, "SELECT TOP 1 NAME FROM PRODUCT ORDER BY PRICE DESC")
	if len(res.Rows) != 1 || res.Rows[0][0].S != "pear" {
		t.Errorf("top: %v", rowStrings(res))
	}
}

func TestModQuirks(t *testing.T) {
	correct := NewOracle()
	res := mustExec(t, correct, "SELECT MOD(-7, 3) AS M")
	if res.Rows[0][0].I != -1 {
		t.Fatalf("oracle MOD: %v", res.Rows[0][0])
	}
	plus := New(Config{Quirks: Quirks{ModNegativePlus: true}})
	res = mustExec(t, plus, "SELECT MOD(-7, 3) AS M")
	if res.Rows[0][0].I != 2 {
		t.Errorf("ModNegativePlus: %v", res.Rows[0][0])
	}
	abs := New(Config{Quirks: Quirks{ModNegativeAbs: true}})
	res = mustExec(t, abs, "SELECT MOD(-7, 3) AS M")
	if res.Rows[0][0].I != 1 {
		t.Errorf("ModNegativeAbs: %v", res.Rows[0][0])
	}
}

func TestFloatMulPrecisionQuirk(t *testing.T) {
	const q = "SELECT 1.000000119 * 8388608.0 AS X"
	correct := NewOracle()
	res1 := mustExec(t, correct, q)
	quirky := New(Config{Quirks: Quirks{FloatMulPrecisionLoss: true}})
	res2 := mustExec(t, quirky, q)
	if res1.Rows[0][0].F() == res2.Rows[0][0].F() {
		t.Errorf("precision quirk should alter result: %v vs %v", res1.Rows[0][0], res2.Rows[0][0])
	}
}

func TestLeftJoinDistinctViewQuirk(t *testing.T) {
	setup := func(e *Engine) {
		mustExec(t, e, "CREATE TABLE T1 (ID INT)")
		mustExec(t, e, "CREATE TABLE T2 (ID INT)")
		mustExec(t, e, "INSERT INTO T1 VALUES (1)")
		mustExec(t, e, "INSERT INTO T2 VALUES (1), (1)")
		mustExec(t, e, "CREATE VIEW DV AS SELECT DISTINCT ID FROM T2")
	}
	const q = "SELECT T1.ID FROM T1 LEFT OUTER JOIN DV ON T1.ID = DV.ID"
	correct := NewOracle()
	setup(correct)
	res := mustExec(t, correct, q)
	if len(res.Rows) != 1 {
		t.Fatalf("oracle rows: %v", rowStrings(res))
	}
	quirky := New(Config{Quirks: Quirks{LeftJoinDistinctViewDup: true}})
	setup(quirky)
	res = mustExec(t, quirky, q)
	if len(res.Rows) != 2 {
		t.Errorf("quirk should duplicate rows: %v", rowStrings(res))
	}
}

func TestBlankAggregateAliasQuirk(t *testing.T) {
	e := New(Config{Quirks: Quirks{BlankAggregateAliases: true}})
	mustExec(t, e, "CREATE TABLE T (A INT)")
	mustExec(t, e, "INSERT INTO T VALUES (2), (4)")
	res := mustExec(t, e, "SELECT AVG(A), SUM(A) FROM T")
	if res.Columns[0] != "" || res.Columns[1] != "" {
		t.Errorf("blank alias quirk: %v", res.Columns)
	}
	if res.Rows[0][0].F() != 3 || res.Rows[0][1].I != 6 {
		t.Errorf("values must stay correct: %v", rowStrings(res))
	}
}

func TestUnaliasedAggregateErrorQuirk(t *testing.T) {
	e := New(Config{Quirks: Quirks{UnaliasedAggregateError: true}})
	mustExec(t, e, "CREATE TABLE T (A INT)")
	mustExec(t, e, "INSERT INTO T VALUES (2)")
	mustFail(t, e, "SELECT AVG(A) FROM T")
	// Aliased aggregates are unaffected.
	mustExec(t, e, "SELECT AVG(A) AS M FROM T")
}

func TestParenUnionSubqueryQuirks(t *testing.T) {
	setup := func(e *Engine) {
		mustExec(t, e, "CREATE TABLE P (ID INT)")
		mustExec(t, e, "INSERT INTO P VALUES (1), (2), (3)")
	}
	const q = "SELECT ID FROM P WHERE ID NOT IN ((SELECT ID FROM P WHERE ID = 1) UNION (SELECT ID FROM P WHERE ID = 2)) ORDER BY ID"
	correct := NewOracle()
	setup(correct)
	res := mustExec(t, correct, q)
	if len(res.Rows) != 1 || res.Rows[0][0].I != 3 {
		t.Fatalf("oracle paren union: %v", rowStrings(res))
	}
	pg := New(Config{Quirks: Quirks{ParenUnionSubqueryError: true}})
	setup(pg)
	mustFail(t, pg, q)
	ms := New(Config{Quirks: Quirks{ParenUnionSubqueryMisparse: true}})
	setup(ms)
	mustFail(t, ms, q)
}

func TestClusteredIndexQuirk(t *testing.T) {
	e := New(Config{Quirks: Quirks{ClusteredIndexError: true}})
	mustExec(t, e, "CREATE TABLE T (A INT)")
	mustFail(t, e, "CREATE CLUSTERED INDEX IX ON T (A)")
	// Plain indexes still work.
	mustExec(t, e, "CREATE INDEX IX2 ON T (A)")
}

func TestUniqueIndexEnforced(t *testing.T) {
	e := NewOracle()
	mustExec(t, e, "CREATE TABLE T (A INT)")
	mustExec(t, e, "INSERT INTO T VALUES (1)")
	mustExec(t, e, "CREATE UNIQUE INDEX UX ON T (A)")
	err := mustFail(t, e, "INSERT INTO T VALUES (1)")
	if !errors.Is(err, ErrConstraint) {
		t.Errorf("unique index: %v", err)
	}
}

// CREATE UNIQUE INDEX keys each row by its cells' injective encoding:
// two distinct rows whose cells would join to one text around a
// separator byte are not duplicates, and once the index exists an
// INSERT that does duplicate a row is still refused.
func TestUniqueIndexKeysCannotBeForged(t *testing.T) {
	e := NewOracle()
	mustExec(t, e, "CREATE TABLE T (A VARCHAR(5), B VARCHAR(5))")
	mustExec(t, e, "INSERT INTO T VALUES ('x\x1f', 'y')")
	mustExec(t, e, "INSERT INTO T VALUES ('x', '\x1fy')")
	mustExec(t, e, "CREATE UNIQUE INDEX U ON T (A, B)")
	if err := mustFail(t, e, "INSERT INTO T VALUES ('x', '\x1fy')"); !errors.Is(err, ErrConstraint) {
		t.Errorf("duplicate row under the unique index: %v", err)
	}
}

// TestUpdateKeyConstraints pins what an UPDATE checks for PK/UNIQUE
// keys: a key the statement leaves as it was is not re-verified (no
// table scan), a key that moves still is — mid-statement included.
func TestUpdateKeyConstraints(t *testing.T) {
	e := NewOracle()
	mustExec(t, e, "CREATE TABLE T (ID INT PRIMARY KEY, U INT UNIQUE, V INT)")
	mustExec(t, e, "INSERT INTO T VALUES (1, 10, 0)")
	mustExec(t, e, "INSERT INTO T VALUES (2, 20, 0)")
	mustExec(t, e, "INSERT INTO T VALUES (3, NULL, 0)")
	mustExec(t, e, "INSERT INTO T VALUES (4, NULL, 0)")
	image := func() string {
		return strings.Join(rowStrings(mustExec(t, e, "SELECT ID, U, V FROM T ORDER BY ID")), ";")
	}

	if res := mustExec(t, e, "UPDATE T SET ID = ID"); res.Affected != 4 {
		t.Errorf("SET pk = pk affected %d, want 4", res.Affected)
	}
	// Non-key assignment on a table with a UNIQUE column, NULL keys among
	// the rows.
	if res := mustExec(t, e, "UPDATE T SET V = V + 1"); res.Affected != 4 {
		t.Errorf("non-key update affected %d, want 4", res.Affected)
	}
	// NULLs never collide: assigning NULL over NULL, and over a value.
	mustExec(t, e, "UPDATE T SET U = NULL WHERE ID >= 2")

	before := image()
	// Row 1 moves onto row 2's key before row 2 itself has moved.
	if err := mustFail(t, e, "UPDATE T SET ID = ID + 1"); !errors.Is(err, ErrConstraint) {
		t.Errorf("SET pk = pk + 1: want ErrConstraint, got %v", err)
	}
	// A UNIQUE value that moves onto a taken one is refused; onto a free
	// one it is not.
	if err := mustFail(t, e, "UPDATE T SET U = 10 WHERE ID = 2"); !errors.Is(err, ErrConstraint) {
		t.Errorf("UNIQUE collision: want ErrConstraint, got %v", err)
	}
	if got := image(); got != before {
		t.Errorf("refused updates changed the table:\n got %s\nwant %s", got, before)
	}
	mustExec(t, e, "UPDATE T SET U = 20 WHERE ID = 2")
	// Moving onto a key this statement already vacated: 3->2, then 4->3.
	mustExec(t, e, "DELETE FROM T WHERE ID < 3")
	mustExec(t, e, "UPDATE T SET ID = ID - 1")
}

func TestSnapshotRestore(t *testing.T) {
	e := NewOracle()
	seed(t, e)
	snap := e.Snapshot()
	mustExec(t, e, "DELETE FROM PRODUCT")
	mustExec(t, e, "DROP TABLE PRODUCT")
	e.Restore(snap)
	res := mustExec(t, e, "SELECT COUNT(*) AS N FROM PRODUCT")
	if res.Rows[0][0].I != 3 {
		t.Errorf("restore: %v", rowStrings(res))
	}
}

func TestScalarFunctions(t *testing.T) {
	e := NewOracle()
	cases := []struct {
		sql  string
		want string
	}{
		{"SELECT UPPER('ab') AS X", "AB"},
		{"SELECT LOWER('AB') AS X", "ab"},
		{"SELECT LENGTH('abc') AS X", "3"},
		{"SELECT SUBSTR('hello', 2, 3) AS X", "ell"},
		{"SELECT TRIM('  x  ') AS X", "x"},
		{"SELECT ABS(-3) AS X", "3"},
		{"SELECT ROUND(2.567, 1) AS X", "2.6"},
		{"SELECT COALESCE(NULL, 7) AS X", "7"},
		{"SELECT NULLIF(3, 3) AS X", "NULL"},
		{"SELECT SIGN(-9) AS X", "-1"},
		{"SELECT POWER(2, 10) AS X", "1024"},
		{"SELECT 'a' || 'b' AS X", "ab"},
	}
	for _, tc := range cases {
		res := mustExec(t, e, tc.sql)
		if got := res.Rows[0][0].String(); got != tc.want {
			t.Errorf("%s: got %q want %q", tc.sql, got, tc.want)
		}
	}
}

func TestDivisionByZero(t *testing.T) {
	e := NewOracle()
	err := mustFail(t, e, "SELECT 1 / 0 AS X")
	if !errors.Is(err, ErrDivideByZero) {
		t.Errorf("div by zero: %v", err)
	}
}

func TestBetweenAndLike(t *testing.T) {
	e := NewOracle()
	seed(t, e)
	res := mustExec(t, e, "SELECT NAME FROM PRODUCT WHERE PRICE BETWEEN 1 AND 2.6 ORDER BY NAME")
	if len(res.Rows) != 2 {
		t.Errorf("between: %v", rowStrings(res))
	}
	res = mustExec(t, e, "SELECT NAME FROM PRODUCT WHERE NAME LIKE 'p%'")
	if len(res.Rows) != 2 {
		t.Errorf("like: %v", rowStrings(res))
	}
	res = mustExec(t, e, "SELECT NAME FROM PRODUCT WHERE NAME LIKE '_lum'")
	if len(res.Rows) != 1 {
		t.Errorf("like underscore: %v", rowStrings(res))
	}
}

func TestDerivedTable(t *testing.T) {
	e := NewOracle()
	seed(t, e)
	res := mustExec(t, e, "SELECT T.N FROM (SELECT NAME AS N FROM PRODUCT WHERE PRICE > 2) T ORDER BY T.N")
	if len(res.Rows) != 2 {
		t.Errorf("derived table: %v", rowStrings(res))
	}
}

func TestAmbiguousColumn(t *testing.T) {
	e := NewOracle()
	mustExec(t, e, "CREATE TABLE A (ID INT)")
	mustExec(t, e, "CREATE TABLE B (ID INT)")
	mustExec(t, e, "INSERT INTO A VALUES (1)")
	mustExec(t, e, "INSERT INTO B VALUES (1)")
	mustFail(t, e, "SELECT ID FROM A, B")
}

func TestValueCoercion(t *testing.T) {
	e := NewOracle()
	mustExec(t, e, "CREATE TABLE T (A INT, B FLOAT, C VARCHAR(10))")
	mustExec(t, e, "INSERT INTO T VALUES ('12', 3, 42)")
	res := mustExec(t, e, "SELECT A, B, C FROM T")
	if res.Rows[0][0].K != types.KindInt || res.Rows[0][0].I != 12 {
		t.Errorf("string->int coercion: %v", res.Rows[0][0])
	}
	if res.Rows[0][1].K != types.KindFloat {
		t.Errorf("int->float coercion: %v", res.Rows[0][1])
	}
	if res.Rows[0][2].K != types.KindString || res.Rows[0][2].S != "42" {
		t.Errorf("int->string coercion: %v", res.Rows[0][2])
	}
	mustFail(t, e, "INSERT INTO T VALUES ('xy', 1, 'a')")
}

// TestRowIdentityCannotBeForged: DISTINCT, UNION and GROUP BY tell rows
// apart by every cell's kind and value, whatever bytes a string holds.
// The two rows below agree once their cells are run together with the
// separator and kind bytes a naive row key would join them by.
func TestRowIdentityCannotBeForged(t *testing.T) {
	e := NewOracle()
	mustExec(t, e, "CREATE TABLE T (A VARCHAR(20), B VARCHAR(20))")
	ins := resolve(t, "INSERT INTO T VALUES ($1, $2)")
	for _, row := range [][2]string{{"x\x1f3\x1ey", "z"}, {"x", "y\x1f3\x1ez"}} {
		if _, err := sessionOf(e).Exec(ins, []types.Value{types.NewString(row[0]), types.NewString(row[1])}); err != nil {
			t.Fatal(err)
		}
	}
	for _, sql := range []string{
		"SELECT A, B FROM T",
		"SELECT DISTINCT A, B FROM T",
		"SELECT A, B FROM T UNION SELECT A, B FROM T",
		"SELECT A, B, COUNT(*) AS N FROM T GROUP BY A, B",
	} {
		if res := mustExec(t, e, sql); len(res.Rows) != 2 {
			t.Errorf("%s: %d rows, want 2", sql, len(res.Rows))
		}
	}
}
