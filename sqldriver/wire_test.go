package sqldriver

import (
	"database/sql"
	"testing"

	"divsql"
	"divsql/internal/wire"
)

// TestWireMuxCloseReleasesSharedConn: the per-address Mux is reference-
// counted by its open sessions — closing the pool must close and drop
// the shared TCP connection instead of leaking it (and its readLoop
// goroutine) for process lifetime, and a later pool must re-dial fresh.
func TestWireMuxCloseReleasesSharedConn(t *testing.T) {
	Register()
	addr := startWireServer(t)
	db, err := sql.Open(DriverName, "wiremux:"+addr)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := db.Exec("CREATE TABLE M (A INT)"); err != nil {
		t.Fatal(err)
	}
	muxesMu.Lock()
	_, cached := muxes[addr]
	muxesMu.Unlock()
	if !cached {
		t.Fatal("no shared mux cached while pool is open")
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	muxesMu.Lock()
	_, cached = muxes[addr]
	muxesMu.Unlock()
	if cached {
		t.Errorf("shared mux for %s still cached after pool close", addr)
	}
	// A fresh pool re-dials and sees the server's state.
	db2, err := sql.Open(DriverName, "wiremux:"+addr)
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	var n int
	if err := db2.QueryRow("SELECT COUNT(*) AS N FROM M").Scan(&n); err != nil {
		t.Fatalf("re-dial after release: %v", err)
	}
}

// TestWirePoolRecoversFromServerRestart: a pool whose connection died
// with its divsqld must answer again once the server is back. The
// statement that meets the dead transport fails with the transport's
// error (it may have run: no silent retry); database/sql then discards
// the connection (driver.Validator), and the "wiremux:" dialer replaces
// the shared Mux whose reader failed.
func TestWirePoolRecoversFromServerRestart(t *testing.T) {
	Register()
	db, err := divsql.Open(divsql.PG, divsql.WithFaults(false))
	if err != nil {
		t.Fatal(err)
	}
	ep, _ := divsql.Executor(db)
	for _, mode := range []string{"wire:", "wiremux:"} {
		t.Run(mode, func(t *testing.T) {
			ws := wire.NewServer(ep)
			addr, err := ws.Listen("127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			pool, err := sql.Open(DriverName, mode+addr)
			if err != nil {
				t.Fatal(err)
			}
			defer pool.Close()
			pool.SetMaxOpenConns(1)
			if _, err := pool.Exec("SELECT 1 AS X"); err != nil {
				t.Fatal(err)
			}
			if err := ws.Close(); err != nil {
				t.Fatal(err)
			}
			ws = wire.NewServer(ep)
			if _, err := ws.Listen(addr); err != nil {
				t.Fatal(err)
			}
			defer ws.Close()
			var errs []error
			for attempt := 1; attempt <= 3; attempt++ {
				if _, err = pool.Exec("SELECT 1 AS X"); err == nil {
					return
				}
				errs = append(errs, err)
			}
			t.Fatalf("pool still failing three attempts after the restart: %v", errs)
		})
	}
}
