package sqldriver

import (
	"context"
	"database/sql"
	"database/sql/driver"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"

	"divsql"
	"divsql/internal/wire"
)

// serve puts db's endpoint behind a wire server and returns its address.
func serve(t *testing.T, db divsql.DB, err error) string {
	t.Helper()
	if err != nil {
		t.Fatal(err)
	}
	ep, ok := divsql.Executor(db)
	if !ok {
		t.Fatal("no executor")
	}
	ws := wire.NewServer(ep)
	addr, err := ws.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = ws.Close() })
	return addr
}

func startWireServer(t *testing.T) string {
	db, err := divsql.Open(divsql.PG, divsql.WithFaults(false))
	return serve(t, db, err)
}

func startWireRouter(t *testing.T) string {
	db, err := divsql.OpenShardedWith(divsql.ShardedConfig{Shards: 2}, []divsql.Option{divsql.WithFaults(false)}, divsql.PG)
	return serve(t, db, err)
}

// sharedMux returns a "wire:" DSN for addr whose Mux already carries a
// live session of another pool: the companion pool pins one connection
// until the test ends, so the pool under test shares the reference-
// counted connection instead of owning it.
func sharedMux(t *testing.T, addr string) string {
	companion, err := sql.Open(DriverName, "wire:"+addr)
	if err != nil {
		t.Fatal(err)
	}
	c, err := companion.Conn(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if err := c.PingContext(context.Background()); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		_ = c.Close()
		_ = companion.Close()
	})
	return "wire:" + addr
}

// contractTargets is every way a database/sql pool reaches an endpoint.
// A client cannot tell them apart — that is the contract — so every row
// of TestSessionContract runs on all of them.
var contractTargets = []struct {
	name string
	dsn  func(t *testing.T) string
}{
	{"single", func(*testing.T) string { return "single:PG" }},
	{"replicated", func(*testing.T) string { return "replicated:PG,2" }},
	{"diverse", func(*testing.T) string { return "diverse:PG,OR,MS" }},
	{"wire/server", func(t *testing.T) string { return "wire:" + startWireServer(t) }},
	{"wire/router", func(t *testing.T) string { return "wire:" + startWireRouter(t) }},
	// The "wiremux" rows run the same DSN over a Mux shared with
	// another pool's open session.
	{"wiremux/server", func(t *testing.T) string { return sharedMux(t, startWireServer(t)) }},
	{"wiremux/router", func(t *testing.T) string { return sharedMux(t, startWireRouter(t)) }},
}

func mustExecDB(t *testing.T, db *sql.DB, q string, args ...any) sql.Result {
	t.Helper()
	res, err := db.Exec(q, args...)
	if err != nil {
		t.Fatalf("%s: %v", q, err)
	}
	return res
}

func count(t *testing.T, db *sql.DB, query string, args ...any) int64 {
	t.Helper()
	var n int64
	if err := db.QueryRow(query, args...).Scan(&n); err != nil {
		t.Fatalf("%s: %v", query, err)
	}
	return n
}

// onDriverConn runs fn on the driver connection under one pooled
// connection: the rows that check the driver's own guards, which
// database/sql would otherwise answer first.
func onDriverConn(t *testing.T, db *sql.DB, fn func(c driver.Conn)) {
	t.Helper()
	c, err := db.Conn(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Raw(func(dc any) error { fn(dc.(driver.Conn)); return nil }); err != nil {
		t.Fatal(err)
	}
}

// contractRows are the behaviours of the session contract as seen
// through database/sql. Each row uses tables of its own (one namespace
// each, so the 2-shard router places a row's tables together).
var contractRows = []struct {
	name string
	run  func(t *testing.T, db *sql.DB)
}{
	{"exec and query", func(t *testing.T, db *sql.DB) {
		mustExecDB(t, db, "CREATE TABLE EQ (A INT, S VARCHAR(20))")
		mustExecDB(t, db, "INSERT INTO EQ VALUES (1, 'one'), (2, 'two')")
		rows, err := db.Query("SELECT A, S FROM EQ ORDER BY A")
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
			got = append(got, fmt.Sprintf("%d %s", a, s))
		}
		if err := rows.Err(); err != nil || strings.Join(got, ",") != "1 one,2 two" {
			t.Errorf("rows %v, err %v", got, err)
		}
	}},
	{"prepare and typed bind round trip", func(t *testing.T, db *sql.DB) {
		mustExecDB(t, db, "CREATE TABLE TB (A INT, F FLOAT, S VARCHAR(30))")
		st, err := db.Prepare("INSERT INTO TB VALUES (?, ?, ?)")
		if err != nil {
			t.Fatal(err)
		}
		defer st.Close()
		if _, err := st.Exec(int64(7), 2.25, "text"); err != nil {
			t.Fatal(err)
		}
		if _, err := st.Exec(nil, nil, nil); err != nil {
			t.Fatal(err)
		}
		var (
			a sql.NullInt64
			f sql.NullFloat64
			s sql.NullString
		)
		if err := db.QueryRow("SELECT A, F, S FROM TB WHERE A IS NOT NULL").Scan(&a, &f, &s); err != nil {
			t.Fatal(err)
		}
		if a.Int64 != 7 || f.Float64 != 2.25 || s.String != "text" {
			t.Errorf("typed round trip: %+v %+v %+v", a, f, s)
		}
		if err := db.QueryRow("SELECT A, F, S FROM TB WHERE A IS NULL").Scan(&a, &f, &s); err != nil {
			t.Fatal(err)
		}
		if a.Valid || f.Valid || s.Valid {
			t.Errorf("NULL round trip: %+v %+v %+v", a, f, s)
		}
	}},
	{"argument mismatch and prepare errors", func(t *testing.T, db *sql.DB) {
		mustExecDB(t, db, "CREATE TABLE AM (A INT)")
		// Count mismatches are caught by database/sql against NumInput
		// (served by the server-side parameter count, not a client-side
		// '?' scan).
		if _, err := db.Exec("INSERT INTO AM VALUES (?)"); err == nil || !strings.Contains(err.Error(), "expected 1 arguments") {
			t.Errorf("missing arg: %v", err)
		}
		if _, err := db.Exec("INSERT INTO AM VALUES (?)", 1, 2); err == nil || !strings.Contains(err.Error(), "expected 1 arguments") {
			t.Errorf("extra arg: %v", err)
		}
		if _, err := db.Exec("INSERT INTO AM VALUES (?)", struct{ X int }{1}); err == nil {
			t.Error("unsupported argument type must fail")
		}
		// Server-side type errors come back from the bind/coercion path.
		if _, err := db.Exec("INSERT INTO AM VALUES (?)", "not-a-number"); err == nil || !strings.Contains(err.Error(), "INTEGER") {
			t.Errorf("type mismatch: %v", err)
		}
		if _, err := db.Prepare("SELEC nonsense"); err == nil || !strings.Contains(err.Error(), "syntax error") {
			t.Errorf("prepare-time syntax error: %v", err)
		}
	}},
	{"rows affected", func(t *testing.T, db *sql.DB) {
		mustExecDB(t, db, "CREATE TABLE RA (A INT)")
		if n, _ := mustExecDB(t, db, "INSERT INTO RA VALUES (1), (2), (3)").RowsAffected(); n != 3 {
			t.Errorf("INSERT RowsAffected = %d, want 3", n)
		}
		if n, _ := mustExecDB(t, db, "UPDATE RA SET A = A * 10 WHERE A >= 2").RowsAffected(); n != 2 {
			t.Errorf("UPDATE RowsAffected = %d, want 2", n)
		}
		// The placeholder path (prepare + bind) carries the count too.
		if n, _ := mustExecDB(t, db, "DELETE FROM RA WHERE A > ?", 5).RowsAffected(); n != 2 {
			t.Errorf("DELETE RowsAffected = %d, want 2", n)
		}
	}},
	{"BeginTx isolation levels", func(t *testing.T, db *sql.DB) {
		mustExecDB(t, db, "CREATE TABLE IL (A INT)")
		ctx := context.Background()
		for _, lvl := range []sql.IsolationLevel{sql.LevelDefault, sql.LevelReadCommitted, sql.LevelSerializable} {
			tx, err := db.BeginTx(ctx, &sql.TxOptions{Isolation: lvl})
			if err != nil {
				t.Fatalf("%v: %v", lvl, err)
			}
			if _, err := tx.Exec("INSERT INTO IL VALUES (1)"); err != nil {
				t.Fatalf("%v: %v", lvl, err)
			}
			if err := tx.Commit(); err != nil {
				t.Fatalf("%v: %v", lvl, err)
			}
		}
		// A level the dialect rejects (PG has no SNAPSHOT), one the driver
		// has no statement for, and read-only all fail before any work —
		// and leave the connection outside a transaction.
		db.SetMaxOpenConns(1)
		defer db.SetMaxOpenConns(8)
		for _, opts := range []*sql.TxOptions{{Isolation: sql.LevelSnapshot}, {Isolation: sql.LevelLinearizable}, {ReadOnly: true}} {
			if tx, err := db.BeginTx(ctx, opts); err == nil {
				_ = tx.Rollback()
				t.Errorf("BeginTx(%+v) succeeded", *opts)
			}
		}
		if _, err := db.Exec("COMMIT"); err == nil {
			t.Error("a failed BeginTx left its transaction open")
		}
		if n := count(t, db, "SELECT COUNT(*) AS N FROM IL"); n != 3 {
			t.Errorf("%d rows committed, want 3", n)
		}
	}},
	{"uncommitted work is invisible to other connections", func(t *testing.T, db *sql.DB) {
		mustExecDB(t, db, "CREATE TABLE UW (A INT)")
		tx, err := db.Begin()
		if err != nil {
			t.Fatal(err)
		}
		if _, err := tx.Exec("INSERT INTO UW VALUES (1)"); err != nil {
			t.Fatal(err)
		}
		if n := count(t, db, "SELECT COUNT(*) AS N FROM UW"); n != 0 {
			t.Errorf("connection B sees %d uncommitted rows of connection A", n)
		}
		if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
		if n := count(t, db, "SELECT COUNT(*) AS N FROM UW"); n != 1 {
			t.Errorf("connection B sees %d rows after COMMIT, want 1", n)
		}
	}},
	{"transactions are connection scoped", func(t *testing.T, db *sql.DB) {
		mustExecDB(t, db, "CREATE TABLE CS (W INT, A INT)")
		txA, err := db.Begin()
		if err != nil {
			t.Fatal(err)
		}
		txB, err := db.Begin()
		if err != nil {
			t.Fatal(err)
		}
		if _, err := txA.Exec("INSERT INTO CS VALUES (1, 1)"); err != nil {
			t.Fatal(err)
		}
		if _, err := txB.Exec("INSERT INTO CS VALUES (2, 2)"); err != nil {
			t.Fatal(err)
		}
		if err := txA.Rollback(); err != nil {
			t.Fatal(err)
		}
		if err := txB.Commit(); err != nil {
			t.Fatal(err)
		}
		if n := count(t, db, "SELECT COUNT(*) AS N FROM CS WHERE W = 1"); n != 0 {
			t.Errorf("rolled-back row survived (%d rows)", n)
		}
		if n := count(t, db, "SELECT COUNT(*) AS N FROM CS WHERE W = 2"); n != 1 {
			t.Errorf("committed row lost (%d rows)", n)
		}
	}},
	{"closing a connection rolls its transaction back", func(t *testing.T, db *sql.DB) {
		mustExecDB(t, db, "CREATE TABLE CR (A INT)")
		ctx := context.Background()
		c, err := db.Conn(ctx)
		if err != nil {
			t.Fatal(err)
		}
		for _, q := range []string{"BEGIN TRANSACTION", "INSERT INTO CR VALUES (1)"} {
			if _, err := c.ExecContext(ctx, q); err != nil {
				t.Fatal(err)
			}
		}
		// ErrBadConn from Raw makes database/sql close the driver
		// connection instead of pooling it.
		_ = c.Raw(func(any) error { return driver.ErrBadConn })
		_ = c.Close()
		// What a client can observe of the rollback: the closed
		// connection's row never becomes visible.
		mustExecDB(t, db, "INSERT INTO CR VALUES (2)")
		if n := count(t, db, "SELECT COUNT(*) AS N FROM CR"); n != 1 {
			t.Errorf("%d rows visible, want 1: the closed connection's transaction was not rolled back", n)
		}
	}},
	{"pooled connections share one database", func(t *testing.T, db *sql.DB) {
		mustExecDB(t, db, "CREATE TABLE PC (A INT)")
		ctx := context.Background()
		conns := make([]*sql.Conn, 3)
		for i := range conns {
			c, err := db.Conn(ctx)
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()
			conns[i] = c
			if _, err := c.ExecContext(ctx, fmt.Sprintf("INSERT INTO PC VALUES (%d)", i)); err != nil {
				t.Fatalf("conn %d: %v", i, err)
			}
		}
		for i, c := range conns {
			var n int64
			if err := c.QueryRowContext(ctx, "SELECT COUNT(*) AS N FROM PC").Scan(&n); err != nil || n != 3 {
				t.Errorf("conn %d sees %d rows (%v), want 3", i, n, err)
			}
		}
	}},
	// sql.Stmt re-prepares transparently on every pooled connection it
	// runs on; concurrent executions and transactions across the pool
	// must all work and land in one database. Run with -race.
	{"concurrent statements and transactions across the pool", func(t *testing.T, db *sql.DB) {
		mustExecDB(t, db, "CREATE TABLE CP (W INT, V INT)")
		ins, err := db.Prepare("INSERT INTO CP VALUES (?, ?)")
		if err != nil {
			t.Fatal(err)
		}
		defer ins.Close()
		const workers, rounds = 4, 8
		var wg sync.WaitGroup
		errs := make([]error, workers)
		for w := range errs {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for i := 0; i < rounds && errs[w] == nil; i++ {
					if _, errs[w] = ins.Exec(w, i); errs[w] != nil {
						return
					}
					var n int64 // reads interleave with the other workers' writes
					if errs[w] = db.QueryRow("SELECT COUNT(*) AS N FROM CP WHERE W = ?", w).Scan(&n); errs[w] != nil {
						return
					}
					tx, err := db.Begin()
					if err != nil {
						errs[w] = err
						return
					}
					if _, errs[w] = tx.Exec(fmt.Sprintf("INSERT INTO CP VALUES (%d, %d)", w, -i)); errs[w] != nil {
						_ = tx.Rollback()
						return
					}
					errs[w] = tx.Commit()
				}
			}(w)
		}
		wg.Wait()
		for w, err := range errs {
			if err != nil {
				t.Fatalf("worker %d: %v", w, err)
			}
		}
		if n := count(t, db, "SELECT COUNT(*) AS N FROM CP WHERE W >= ?", 0); n != 2*workers*rounds {
			t.Errorf("%d rows, want %d", n, 2*workers*rounds)
		}
	}},
	{"a closed statement does not execute", func(t *testing.T, db *sql.DB) {
		mustExecDB(t, db, "CREATE TABLE CL (A INT)")
		onDriverConn(t, db, func(c driver.Conn) {
			st, err := c.Prepare("INSERT INTO CL VALUES (1)")
			if err != nil {
				t.Fatal(err)
			}
			if err := st.Close(); err != nil {
				t.Fatal(err)
			}
			if _, err := st.Exec(nil); err == nil || !strings.Contains(err.Error(), "closed") {
				t.Errorf("Exec on a closed statement: %v", err)
			}
		})
		if n := count(t, db, "SELECT COUNT(*) AS N FROM CL"); n != 0 {
			t.Errorf("the closed statement inserted %d rows", n)
		}
	}},
	{"a cancelled context stops ExecContext and QueryContext", func(t *testing.T, db *sql.DB) {
		mustExecDB(t, db, "CREATE TABLE CX (A INT)")
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		onDriverConn(t, db, func(c driver.Conn) {
			st, err := c.Prepare("INSERT INTO CX VALUES (1)")
			if err != nil {
				t.Fatal(err)
			}
			defer st.Close()
			if _, err := st.(driver.StmtExecContext).ExecContext(ctx, nil); !errors.Is(err, context.Canceled) {
				t.Errorf("ExecContext: %v", err)
			}
			if _, err := st.(driver.StmtQueryContext).QueryContext(ctx, nil); !errors.Is(err, context.Canceled) {
				t.Errorf("QueryContext: %v", err)
			}
		})
		if n := count(t, db, "SELECT COUNT(*) AS N FROM CX"); n != 0 {
			t.Errorf("a cancelled statement inserted %d rows", n)
		}
	}},
}

// TestSessionContract: one table of behaviours, every way of reaching an
// endpoint.
func TestSessionContract(t *testing.T) {
	for _, target := range contractTargets {
		t.Run(target.name, func(t *testing.T) {
			db := open(t, target.dsn(t))
			db.SetMaxOpenConns(8)
			for _, row := range contractRows {
				t.Run(row.name, func(t *testing.T) { row.run(t, db) })
			}
		})
	}
}
