package sqldriver

import (
	"context"
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
	db, err := sql.Open(DriverName, "wire:"+addr)
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
	db2, err := sql.Open(DriverName, "wire:"+addr)
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
// the connection (driver.Validator), and the dialer replaces the shared
// Mux whose reader failed. In the "wiremux:" case another pool still
// holds a session on the dead Mux across the restart: the dialer must
// replace it while it is referenced, and that pool's late release must
// not evict the replacement.
func TestWirePoolRecoversFromServerRestart(t *testing.T) {
	Register()
	db, err := divsql.Open(divsql.PG, divsql.WithFaults(false))
	if err != nil {
		t.Fatal(err)
	}
	ep, _ := divsql.Executor(db)
	for _, mode := range []struct {
		name   string
		shared bool
	}{{"wire:", false}, {"wiremux:", true}} {
		t.Run(mode.name, func(t *testing.T) {
			ws := wire.NewServer(ep)
			addr, err := ws.Listen("127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			pool, err := sql.Open(DriverName, "wire:"+addr)
			if err != nil {
				t.Fatal(err)
			}
			defer pool.Close()
			pool.SetMaxOpenConns(1)
			if _, err := pool.Exec("SELECT 1 AS X"); err != nil {
				t.Fatal(err)
			}
			var held *sql.Conn
			if mode.shared {
				companion, err := sql.Open(DriverName, "wire:"+addr)
				if err != nil {
					t.Fatal(err)
				}
				defer companion.Close()
				if held, err = companion.Conn(context.Background()); err != nil {
					t.Fatal(err)
				}
				if err := held.PingContext(context.Background()); err != nil {
					t.Fatal(err)
				}
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
			recovered := false
			for attempt := 1; attempt <= 3 && !recovered; attempt++ {
				if _, err = pool.Exec("SELECT 1 AS X"); err == nil {
					recovered = true
				} else {
					errs = append(errs, err)
				}
			}
			if !recovered {
				t.Fatalf("pool still failing three attempts after the restart: %v", errs)
			}
			if held == nil {
				return
			}
			// The companion's session died with the old Mux; releasing it
			// leaves the replacement in place for the recovered pool.
			_ = held.Close()
			muxesMu.Lock()
			_, cached := muxes[addr]
			muxesMu.Unlock()
			if !cached {
				t.Fatal("releasing the dead Mux's last session evicted its replacement")
			}
			if _, err := pool.Exec("SELECT 1 AS X"); err != nil {
				t.Fatalf("after the companion's release: %v", err)
			}
		})
	}
}
