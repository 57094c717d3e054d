package tpcc

import (
	"testing"

	"divsql/internal/dialect"
	"divsql/internal/middleware"
	"divsql/internal/server"
)

func concurrentConfig() Config {
	return Config{
		Warehouses:           4,
		DistrictsPerWH:       2,
		CustomersPerDistrict: 10,
		Items:                20,
		Seed:                 1,
	}
}

// TestRunConcurrentSingleServer drives four warehouse-pinned terminals,
// each in its own session, against one simulated server and verifies the
// workload invariants afterwards. Run with -race.
func TestRunConcurrentSingleServer(t *testing.T) {
	srv, err := server.New(dialect.PG, nil)
	if err != nil {
		t.Fatal(err)
	}
	sess := srv.NewSession()
	cfg := concurrentConfig()
	if err := Setup(sess, cfg); err != nil {
		t.Fatal(err)
	}
	m, err := RunConcurrent(srv, cfg, ConcurrentOptions{Terminals: 4, TxPerTerminal: 25})
	if err != nil {
		t.Fatal(err)
	}
	if m.Transactions != 100 {
		t.Errorf("transactions: %d", m.Transactions)
	}
	if m.Errors != 0 {
		t.Errorf("errors under disjoint terminals: %d", m.Errors)
	}
	if err := CheckConsistency(sess); err != nil {
		t.Errorf("invariants violated after concurrent run: %v", err)
	}
}

// TestRunConcurrentDiverse drives concurrent terminals against the
// three-version diverse middleware (fault-free replicas): results must
// stay unanimous — concurrent sessions must not manufacture divergence.
func TestRunConcurrentDiverse(t *testing.T) {
	var servers []*server.Server
	for _, n := range []dialect.ServerName{dialect.PG, dialect.OR, dialect.MS} {
		s, err := server.New(n, nil)
		if err != nil {
			t.Fatal(err)
		}
		servers = append(servers, s)
	}
	d, err := middleware.New(middleware.DefaultConfig(), servers...)
	if err != nil {
		t.Fatal(err)
	}
	sess := d.NewSession()
	cfg := concurrentConfig()
	if err := Setup(sess, cfg); err != nil {
		t.Fatal(err)
	}
	m, err := RunConcurrent(d, cfg, ConcurrentOptions{Terminals: 4, TxPerTerminal: 15, Mix: ReadHeavyMix()})
	if err != nil {
		t.Fatal(err)
	}
	if m.Divergences != 0 || m.Errors != 0 {
		t.Errorf("divergences=%d errors=%d on fault-free replicas", m.Divergences, m.Errors)
	}
	if err := CheckConsistency(sess); err != nil {
		t.Errorf("invariants violated: %v", err)
	}
	if q := d.QuarantinedReplicas(); len(q) != 0 {
		t.Errorf("replicas spuriously quarantined: %v", q)
	}
}
