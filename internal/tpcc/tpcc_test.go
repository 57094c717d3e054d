package tpcc

import (
	"testing"

	"divsql/internal/dialect"
	"divsql/internal/middleware"
	"divsql/internal/replication"
	"divsql/internal/server"
)

func singleServer(t *testing.T, name dialect.ServerName) *server.Server {
	t.Helper()
	s, err := server.New(name, nil)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestConfigValidation(t *testing.T) {
	if err := (Config{}).Validate(); err == nil {
		t.Error("zero config must be invalid")
	}
	if err := DefaultConfig().Validate(); err != nil {
		t.Errorf("default config: %v", err)
	}
}

func TestSetupAndRunSingle(t *testing.T) {
	srv := singleServer(t, dialect.OR)
	sess := srv.NewSession()
	cfg := DefaultConfig()
	if err := Setup(sess, cfg); err != nil {
		t.Fatal(err)
	}
	drv := NewDriver(cfg)
	m, err := drv.Run(sess, 200)
	if err != nil {
		t.Fatal(err)
	}
	if m.Transactions != 200 || m.Statements == 0 {
		t.Errorf("metrics: %+v", m)
	}
	if m.Errors != 0 {
		t.Errorf("fault-free single server must not error: %+v", m)
	}
	if err := CheckConsistency(sess); err != nil {
		t.Errorf("consistency: %v", err)
	}
	// The mix must include every transaction type at this volume.
	for _, tt := range []TxType{TxNewOrder, TxPayment, TxOrderStatus, TxDelivery, TxStockLevel} {
		if m.PerType[tt] == 0 {
			t.Errorf("no %s transactions in the mix", tt)
		}
	}
}

func TestWorkloadPortableAcrossDialects(t *testing.T) {
	// The workload must run unmodified on every simulated server: it is
	// restricted to the common dialect subset.
	for _, name := range dialect.AllServers {
		srv := singleServer(t, name)
		sess := srv.NewSession()
		cfg := DefaultConfig()
		if err := Setup(sess, cfg); err != nil {
			t.Fatalf("%s: setup: %v", name, err)
		}
		drv := NewDriver(cfg)
		m, err := drv.Run(sess, 60)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		// MS-sim carries the unaliased-aggregate quirk (bug 222476's
		// region) which the Delivery transaction's scalar SUM hits; the
		// other servers must be error-free.
		if name != dialect.MS && m.Errors != 0 {
			t.Errorf("%s: %d errors", name, m.Errors)
		}
	}
}

func TestDeterministicDriver(t *testing.T) {
	run := func() Metrics {
		srv := singleServer(t, dialect.OR)
		sess := srv.NewSession()
		cfg := DefaultConfig()
		if err := Setup(sess, cfg); err != nil {
			t.Fatal(err)
		}
		m, err := NewDriver(cfg).Run(sess, 100)
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	a, b := run(), run()
	if a.Statements != b.Statements || a.Transactions != b.Transactions {
		t.Errorf("driver not deterministic: %+v vs %+v", a, b)
	}
	for tt, n := range a.PerType {
		if b.PerType[tt] != n {
			t.Errorf("mix differs for %s: %d vs %d", tt, n, b.PerType[tt])
		}
	}
}

func TestRunOnDiverseMiddleware(t *testing.T) {
	servers := []*server.Server{
		singleServer(t, dialect.PG),
		singleServer(t, dialect.OR),
		singleServer(t, dialect.MS),
	}
	d, err := middleware.New(middleware.DefaultConfig(), servers...)
	if err != nil {
		t.Fatal(err)
	}
	sess := d.NewSession()
	cfg := DefaultConfig()
	if err := Setup(sess, cfg); err != nil {
		t.Fatal(err)
	}
	m, err := NewDriver(cfg).Run(sess, 150)
	if err != nil {
		t.Fatal(err)
	}
	if m.Errors != 0 {
		t.Errorf("diverse middleware surfaced %d errors to the client", m.Errors)
	}
	if err := CheckConsistency(sess); err != nil {
		t.Errorf("consistency through middleware: %v", err)
	}
}

func TestRunOnReplicationGroup(t *testing.T) {
	g, err := replication.NewGroup(true,
		singleServer(t, dialect.PG), singleServer(t, dialect.PG))
	if err != nil {
		t.Fatal(err)
	}
	sess := g.NewSession()
	cfg := DefaultConfig()
	if err := Setup(sess, cfg); err != nil {
		t.Fatal(err)
	}
	m, err := NewDriver(cfg).Run(sess, 100)
	if err != nil {
		t.Fatal(err)
	}
	if m.Errors != 0 {
		t.Errorf("replicated group errors: %+v", m)
	}
	if err := CheckConsistency(sess); err != nil {
		t.Errorf("consistency: %v", err)
	}
}

func TestConsistencyDetectsCorruption(t *testing.T) {
	srv := singleServer(t, dialect.OR)
	sess := srv.NewSession()
	cfg := DefaultConfig()
	if err := Setup(sess, cfg); err != nil {
		t.Fatal(err)
	}
	if _, err := NewDriver(cfg).Run(sess, 50); err != nil {
		t.Fatal(err)
	}
	// Corrupt an invariant directly.
	if _, _, err := sess.Exec("UPDATE WAREHOUSE SET W_YTD = W_YTD + 1 WHERE W_ID = 1"); err != nil {
		t.Fatal(err)
	}
	if err := CheckConsistency(sess); err == nil {
		t.Error("corruption not detected")
	}
}
