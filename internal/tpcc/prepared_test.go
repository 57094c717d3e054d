package tpcc

import (
	"testing"

	"divsql/internal/dialect"
	"divsql/internal/server"
	"divsql/internal/sql/types"
)

func TestInlineSQLRendering(t *testing.T) {
	got := inlineSQL("INSERT INTO T VALUES (?, ?, ?)",
		[]types.Value{types.NewInt(1), types.NewFloat(2.5), types.NewString("x")})
	want := "INSERT INTO T VALUES (1, 2.5, 'x')"
	if got != want {
		t.Errorf("inlineSQL = %q, want %q", got, want)
	}
	if inlineSQL("COMMIT", nil) != "COMMIT" {
		t.Error("no-arg template must pass through")
	}
}

// Prepared terminals must produce exactly the same database state as
// inline terminals: same seed, same mix, same invariants.
func TestPreparedTerminalsConsistent(t *testing.T) {
	cfg := Config{Warehouses: 4, DistrictsPerWH: 2, CustomersPerDistrict: 5, Items: 10, Seed: 1}
	run := func(prepared bool) *server.Server {
		srv, err := server.New(dialect.PG, nil)
		if err != nil {
			t.Fatal(err)
		}
		sess := srv.NewSession()
		if err := Setup(sess, cfg); err != nil {
			t.Fatal(err)
		}
		m, err := RunConcurrent(srv, cfg, ConcurrentOptions{
			Terminals: 4, TxPerTerminal: 40, Prepared: prepared,
		})
		if err != nil {
			t.Fatal(err)
		}
		if m.Errors > 0 {
			t.Fatalf("prepared=%v: %d errors", prepared, m.Errors)
		}
		if err := CheckConsistency(sess); err != nil {
			t.Fatalf("prepared=%v: %v", prepared, err)
		}
		return srv
	}
	inline := run(false)
	inlineSess := inline.NewSession()
	prepared := run(true)
	preparedSess := prepared.NewSession()
	// Same transaction stream → same aggregate state on both servers.
	for _, q := range []string{
		"SELECT COUNT(*) AS N FROM ORDERS",
		"SELECT COUNT(*) AS N FROM ORDER_LINE",
		"SELECT SUM(D_NEXT_O_ID) AS S FROM DISTRICT",
		"SELECT SUM(C_PAYMENT_CNT) AS S FROM CUSTOMER",
	} {
		ri, _, err := inlineSess.Exec(q)
		if err != nil {
			t.Fatal(err)
		}
		rp, _, err := preparedSess.Exec(q)
		if err != nil {
			t.Fatal(err)
		}
		if ri.Rows[0][0].String() != rp.Rows[0][0].String() {
			t.Errorf("%s: inline %s vs prepared %s", q, ri.Rows[0][0], rp.Rows[0][0])
		}
	}
}

// Each terminal's statement templates prepare once: the plan cache holds
// one statement per distinct template, not per execution.
func TestPreparedTerminalsCacheTemplates(t *testing.T) {
	cfg := Config{Warehouses: 2, DistrictsPerWH: 2, CustomersPerDistrict: 5, Items: 10, Seed: 1}
	srv, err := server.New(dialect.PG, nil)
	if err != nil {
		t.Fatal(err)
	}
	sess := srv.NewSession()
	defer sess.Close()
	if err := Setup(sess, cfg); err != nil {
		t.Fatal(err)
	}
	d := NewTerminalDriver(cfg, DefaultMix(), 1)
	d.SetPrepared(true)
	if _, err := d.Run(sess, 100); err != nil {
		t.Fatal(err)
	}
	if d.cache == nil {
		t.Fatal("prepared driver did not attach")
	}
	// The full mix uses a bounded template set (well under one per
	// executed statement).
	if n := len(d.cache); n == 0 || n > 25 {
		t.Errorf("template cache holds %d statements", n)
	}
}
