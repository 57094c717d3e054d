package sqldriver

import (
	"database/sql"
	"database/sql/driver"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"
)

var openSeq atomic.Int64

func open(t *testing.T, dsn string) *sql.DB {
	t.Helper()
	Register()
	// A unique '#label' per call gives every test a fresh in-process
	// endpoint instance; within the test, all pooled connections share
	// it. A wire DSN names a server the test started for itself.
	if !strings.HasPrefix(dsn, "wire") {
		dsn = fmt.Sprintf("%s#%s-%d", dsn, t.Name(), openSeq.Add(1))
	}
	db, err := sql.Open(DriverName, dsn)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = db.Close() })
	return db
}

func TestSingleServerThroughDatabaseSQL(t *testing.T) {
	db := open(t, "single:PG")
	if _, err := db.Exec("CREATE TABLE T (A INT, S VARCHAR(20))"); err != nil {
		t.Fatal(err)
	}
	res, err := db.Exec("INSERT INTO T VALUES (?, ?), (?, ?)", 1, "one", 2, "two")
	if err != nil {
		t.Fatal(err)
	}
	if n, _ := res.RowsAffected(); n != 2 {
		t.Errorf("affected %d", n)
	}
	rows, err := db.Query("SELECT A, S FROM T WHERE A >= ? ORDER BY A", 1)
	if err != nil {
		t.Fatal(err)
	}
	defer rows.Close()
	var got []string
	for rows.Next() {
		var a int64
		var s string
		if err := rows.Scan(&a, &s); err != nil {
			t.Fatal(err)
		}
		got = append(got, s)
	}
	if err := rows.Err(); err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0] != "one" || got[1] != "two" {
		t.Errorf("rows: %v", got)
	}
}

func TestDiverseThroughDatabaseSQL(t *testing.T) {
	db := open(t, "diverse:PG,OR,MS")
	if _, err := db.Exec("CREATE TABLE T (A INT)"); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Exec("INSERT INTO T VALUES (?)", 7); err != nil {
		t.Fatal(err)
	}
	var a int64
	if err := db.QueryRow("SELECT A FROM T").Scan(&a); err != nil {
		t.Fatal(err)
	}
	if a != 7 {
		t.Errorf("a = %d", a)
	}
}

func TestTransactionsThroughDatabaseSQL(t *testing.T) {
	db := open(t, "single:OR")
	if _, err := db.Exec("CREATE TABLE T (A INT)"); err != nil {
		t.Fatal(err)
	}
	tx, err := db.Begin()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tx.Exec("INSERT INTO T VALUES (1)"); err != nil {
		t.Fatal(err)
	}
	if err := tx.Rollback(); err != nil {
		t.Fatal(err)
	}
	var n int64
	if err := db.QueryRow("SELECT COUNT(*) AS N FROM T").Scan(&n); err != nil {
		t.Fatal(err)
	}
	if n != 0 {
		t.Errorf("rollback left %d rows", n)
	}
	tx, err = db.Begin()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tx.Exec("INSERT INTO T VALUES (2)"); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := db.QueryRow("SELECT COUNT(*) AS N FROM T").Scan(&n); err != nil {
		t.Fatal(err)
	}
	if n != 1 {
		t.Errorf("commit left %d rows", n)
	}
}

// BOOLEAN is PG's alone, so the bool leg of the typed bind round trip
// (TestSessionContract has the others) runs on a single PG server.
func TestBoolRoundTripsThroughBind(t *testing.T) {
	db := open(t, "single:PG")
	if _, err := db.Exec("CREATE TABLE T (B BOOLEAN)"); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Exec("INSERT INTO T VALUES (?), (?)", true, nil); err != nil {
		t.Fatal(err)
	}
	var b sql.NullBool
	if err := db.QueryRow("SELECT B FROM T WHERE B IS NOT NULL").Scan(&b); err != nil || !b.Bool {
		t.Errorf("bool round trip: %+v %v", b, err)
	}
	if err := db.QueryRow("SELECT B FROM T WHERE B IS NULL").Scan(&b); err != nil || b.Valid {
		t.Errorf("NULL bool round trip: %+v %v", b, err)
	}
}

func TestNullScan(t *testing.T) {
	db := open(t, "single:IB")
	if _, err := db.Exec("CREATE TABLE T (A INT, S VARCHAR(10))"); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Exec("INSERT INTO T VALUES (?, ?)", nil, "x"); err != nil {
		t.Fatal(err)
	}
	var a sql.NullInt64
	var s string
	if err := db.QueryRow("SELECT A, S FROM T").Scan(&a, &s); err != nil {
		t.Fatal(err)
	}
	if a.Valid || s != "x" {
		t.Errorf("null scan: %+v %q", a, s)
	}
}

func TestNoClientSideInterpolation(t *testing.T) {
	db := open(t, "single:PG")
	if _, err := db.Exec("CREATE TABLE T (A INT, S VARCHAR(30))"); err != nil {
		t.Fatal(err)
	}
	// Hostile string arguments travel as typed values, never as SQL text:
	// quotes and placeholder characters in data cannot change the
	// statement.
	hostile := "o'brien? $1 '; DROP TABLE T"
	if _, err := db.Exec("INSERT INTO T VALUES (?, ?)", 1, hostile); err != nil {
		t.Fatal(err)
	}
	var s string
	if err := db.QueryRow("SELECT S FROM T WHERE A = ?", 1).Scan(&s); err != nil {
		t.Fatal(err)
	}
	if s != hostile {
		t.Errorf("round-trip mangled the string: %q", s)
	}
	// A '?' inside a string literal is not a placeholder.
	if _, err := db.Exec("INSERT INTO T VALUES (?, 'why?')", 2); err != nil {
		t.Fatal(err)
	}
	var n int64
	if err := db.QueryRow("SELECT COUNT(*) AS N FROM T WHERE S = 'why?'").Scan(&n); err != nil {
		t.Fatal(err)
	}
	if n != 1 {
		t.Errorf("literal '?' mis-handled: %d rows", n)
	}
}

func TestToTypesValues(t *testing.T) {
	vals, err := toTypesValues([]driver.Value{int64(1), 2.5, true, "s", []byte("b"), nil})
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"1", "2.5", "TRUE", "s", "b", "NULL"}
	for i, w := range want {
		if vals[i].String() != w {
			t.Errorf("vals[%d] = %s, want %s", i, vals[i], w)
		}
	}
	if _, err := toTypesValues([]driver.Value{struct{}{}}); err == nil ||
		!strings.Contains(err.Error(), "unsupported argument type") {
		t.Errorf("unsupported type not rejected: %v", err)
	}
}

func TestBadDSNs(t *testing.T) {
	Register()
	for _, dsn := range []string{"nonsense", "weird:PG", "replicated:PG,x"} {
		db, err := sql.Open(DriverName, dsn)
		if err != nil {
			continue // some errors surface at Open
		}
		if err := db.Ping(); err == nil {
			t.Errorf("DSN %q must fail", dsn)
		}
		_ = db.Close()
	}
}
