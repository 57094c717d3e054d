package main

import (
	"database/sql"
	"fmt"
	"io"
	"net/http"
	"strings"
	"testing"

	"divsql/internal/wire"
	"divsql/sqldriver"
)

// TestDivsqldMetricsSmoke is the deployment smoke test CI runs: start
// the daemon in-process on ephemeral ports, push a short workload
// through database/sql over the wire protocol, then scrape /metrics
// and assert every subsystem's families are present and moving.
func TestDivsqldMetricsSmoke(t *testing.T) {
	d, err := start("127.0.0.1:0", "diverse", "PG,OR,MS", 0, 1, "127.0.0.1:0")
	if err != nil {
		t.Fatalf("start: %v", err)
	}
	defer d.close()

	sqldriver.Register()
	db, err := sql.Open("divsql", "wire:"+d.wireAddr)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	defer db.Close()

	if _, err := db.Exec("CREATE TABLE ACCOUNTS (ID INT PRIMARY KEY, BAL INT)"); err != nil {
		t.Fatalf("create: %v", err)
	}
	ins, err := db.Prepare("INSERT INTO ACCOUNTS (ID, BAL) VALUES (?, ?)")
	if err != nil {
		t.Fatalf("prepare: %v", err)
	}
	for i := 0; i < 5; i++ {
		if _, err := ins.Exec(i, 100*i); err != nil {
			t.Fatalf("insert %d: %v", i, err)
		}
	}
	ins.Close()
	// Repeated identical point lookups: the first compile misses the plan
	// cache, the rest hit it.
	for i := 0; i < 4; i++ {
		var bal int
		if err := db.QueryRow("SELECT BAL FROM ACCOUNTS WHERE ID = 3").Scan(&bal); err != nil {
			t.Fatalf("select: %v", err)
		}
		if bal != 300 {
			t.Fatalf("bal = %d, want 300", bal)
		}
	}
	// Transactions exercise BEGIN/COMMIT through the wire tx path.
	tx, err := db.Begin()
	if err != nil {
		t.Fatalf("begin: %v", err)
	}
	if _, err := tx.Exec("UPDATE ACCOUNTS SET BAL = 1 WHERE ID = 0"); err != nil {
		t.Fatalf("update: %v", err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatalf("commit: %v", err)
	}

	// A Delivery-shaped statement: MS's reproduced quirk rejects the
	// unaliased SUM, and the middleware rephrases MS back into agreement
	// instead of quarantining and resyncing it.
	bump, err := db.Prepare("UPDATE ACCOUNTS SET BAL = BAL + (SELECT SUM(BAL) FROM ACCOUNTS WHERE ID > ?) WHERE ID = ?")
	if err != nil {
		t.Fatalf("prepare: %v", err)
	}
	if _, err := bump.Exec(2, 1); err != nil {
		t.Fatalf("delivery-shaped update: %v", err)
	}
	bump.Close()
	var bal int
	if err := db.QueryRow("SELECT BAL FROM ACCOUNTS WHERE ID = 1").Scan(&bal); err != nil || bal != 800 {
		t.Fatalf("after the delivery-shaped update: bal = %d (%v), want 800", bal, err)
	}

	doc := scrape(t, d.metricsAddr)
	if n := sampleValue(t, doc, "divsql_middleware_replica_errors_total"); n < 1 {
		t.Errorf("divsql_middleware_replica_errors_total = %v, want >= 1", n)
	}
	if n := sampleValue(t, doc, "divsql_middleware_rephrase_recovered_total"); n < 1 {
		t.Errorf("divsql_middleware_rephrase_recovered_total = %v, want >= 1", n)
	}
	if n := sampleValue(t, doc, "divsql_middleware_resyncs_total"); n != 0 {
		t.Errorf("divsql_middleware_resyncs_total = %v, want 0", n)
	}
	// sampleValue sums the per-replica samples: none may be 1.
	if n := sampleValue(t, doc, "divsql_middleware_replica_quarantined"); n != 0 {
		t.Errorf("divsql_middleware_replica_quarantined sums to %v, want every replica at 0", n)
	}
	for _, family := range []string{
		"divsql_middleware_statements_total",
		"divsql_middleware_unanimous_total",
		"divsql_engine_plan_cache_hits_total",
		"divsql_sql_resolves_total",
		"divsql_sql_shapes_total",
		"divsql_engine_table_rows",
		"divsql_wire_requests_total",
		"divsql_wire_request_duration_seconds_bucket",
		"divsql_server_up",
		"divsql_hunt_statements_total",
		"divsql_process_uptime_seconds",
	} {
		if !strings.Contains(doc, family) {
			t.Errorf("scrape missing family %s", family)
		}
	}
	for _, want := range []string{
		`divsql_server_up{replica="PG"} 1`,
		`divsql_engine_table_rows{replica="OR",table="ACCOUNTS"} 5`,
	} {
		if !strings.Contains(doc, want) {
			t.Errorf("scrape missing sample %q", want)
		}
	}
	if n := sampleValue(t, doc, "divsql_middleware_statements_total"); n < 10 {
		t.Errorf("divsql_middleware_statements_total = %v, want >= 10", n)
	}
	if n := sampleValue(t, doc, "divsql_engine_plan_cache_hits_total"); n < 1 {
		t.Errorf("divsql_engine_plan_cache_hits_total = %v, want >= 1", n)
	}
	if n := sampleValue(t, doc, "divsql_sql_parses_total"); n < 1 {
		t.Errorf("divsql_sql_parses_total = %v, want >= 1", n)
	}
	if n := sampleValue(t, doc, `divsql_wire_requests_total{frame="EXEC"}`); n < 1 {
		t.Errorf(`divsql_wire_requests_total{frame="EXEC"} = %v, want >= 1`, n)
	}
	if n := sampleValue(t, doc, `divsql_wire_requests_total{frame="BIND"}`); n < 5 {
		t.Errorf(`divsql_wire_requests_total{frame="BIND"} = %v, want >= 5`, n)
	}

	// The METRICS wire frame answers from the same registry, via the
	// driver-level scrape helper.
	wireDoc, err := sqldriver.Metrics(d.wireAddr)
	if err != nil {
		t.Fatalf("wire metrics: %v", err)
	}
	if !strings.Contains(wireDoc, "divsql_middleware_statements_total") {
		t.Errorf("wire METRICS missing middleware family")
	}
}

// TestDivsqldStartErrors covers the operator-facing failure paths.
func TestDivsqldStartErrors(t *testing.T) {
	if _, err := start("127.0.0.1:0", "bogus", "PG", 0, 1, ""); err == nil {
		t.Fatalf("unknown mode: want error")
	}
	if _, err := start("127.0.0.1:0", "single", "NOPE", 0, 1, ""); err == nil {
		t.Fatalf("unknown server: want error")
	}
	if _, err := start("127.0.0.1:0", "single", "PG", 0, 2, ""); err == nil {
		t.Fatalf("-shards outside diverse mode: want error")
	}
}

// TestDivsqldSharded starts the daemon with -shards 2 and checks that
// statements route, a join across tables of different name prefixes
// answers as an unsharded server does, the SHARDS wire frame
// (divsql-cli \shards) reports the layout, and /metrics carries
// shard-qualified families from both shards without label collisions.
func TestDivsqldSharded(t *testing.T) {
	d, err := start("127.0.0.1:0", "diverse", "PG,OR", 0, 2, "127.0.0.1:0")
	if err != nil {
		t.Fatalf("start: %v", err)
	}
	defer d.close()
	plain, err := start("127.0.0.1:0", "diverse", "PG,OR", 0, 1, "")
	if err != nil {
		t.Fatalf("start unsharded: %v", err)
	}
	defer plain.close()

	sqldriver.Register()
	open := func(addr string) *sql.DB {
		t.Helper()
		db, err := sql.Open("divsql", "wire:"+addr)
		if err != nil {
			t.Fatalf("open: %v", err)
		}
		for i := 0; i < 4; i++ {
			if _, err := db.Exec(fmt.Sprintf("CREATE TABLE NS%d_T (A INT)", i)); err != nil {
				t.Fatalf("create %d: %v", i, err)
			}
			if _, err := db.Exec(fmt.Sprintf("INSERT INTO NS%d_T VALUES (%d), (%d)", i, i, i+4)); err != nil {
				t.Fatalf("insert %d: %v", i, err)
			}
		}
		return db
	}
	db, plainDB := open(d.wireAddr), open(plain.wireAddr)
	defer db.Close()
	defer plainDB.Close()
	var got int
	if err := db.QueryRow("SELECT A FROM NS2_T WHERE A < 4").Scan(&got); err != nil {
		t.Fatalf("select: %v", err)
	}
	if got != 2 {
		t.Fatalf("NS2_T row = %d, want 2", got)
	}
	// Each shard holds every table, so a join across prefixes runs on
	// one shard and sees all of both tables.
	join := func(db *sql.DB) string {
		t.Helper()
		rows, err := db.Query("SELECT X.A, Y.A FROM NS0_T X, NS1_T Y WHERE X.A < Y.A ORDER BY X.A, Y.A")
		if err != nil {
			t.Fatalf("join: %v", err)
		}
		defer rows.Close()
		var out []string
		for rows.Next() {
			var x, y int
			if err := rows.Scan(&x, &y); err != nil {
				t.Fatalf("join scan: %v", err)
			}
			out = append(out, fmt.Sprintf("(%d,%d)", x, y))
		}
		if err := rows.Err(); err != nil {
			t.Fatalf("join rows: %v", err)
		}
		return strings.Join(out, " ")
	}
	if got, want := join(db), join(plainDB); got != want || want == "" {
		t.Errorf("cross-prefix join through the router = %q, unsharded = %q", got, want)
	}

	m, err := wire.DialMux(d.wireAddr)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer m.Close()
	layout, err := m.Shards()
	if err != nil {
		t.Fatalf("SHARDS frame: %v", err)
	}
	if !strings.Contains(layout, "2 shard(s)") || !strings.Contains(layout, "shard0:") || !strings.Contains(layout, "shard1:") {
		t.Errorf("shard layout missing shards:\n%s", layout)
	}
	if !strings.Contains(layout, "replicas: OR, PG") {
		t.Errorf("shard layout missing replica roster:\n%s", layout)
	}

	doc := scrape(t, d.metricsAddr)
	for _, want := range []string{
		"divsql_shard_statements_total",
		`divsql_shard_routed_statements_total{shard="shard0"}`,
		`divsql_shard_routed_statements_total{shard="shard1"}`,
		`divsql_middleware_statements_total{shard="shard0"}`,
		`divsql_middleware_statements_total{shard="shard1"}`,
		`divsql_server_up{replica="PG",shard="shard0"} 1`,
		`divsql_server_up{replica="PG",shard="shard1"} 1`,
	} {
		if !strings.Contains(doc, want) {
			t.Errorf("sharded scrape missing %q", want)
		}
	}
}

func scrape(t *testing.T, addr string) string {
	t.Helper()
	resp, err := http.Get(fmt.Sprintf("http://%s/metrics", addr))
	if err != nil {
		t.Fatalf("scrape: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("scrape status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "text/plain") {
		t.Fatalf("scrape content-type %q", ct)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("scrape read: %v", err)
	}
	return string(body)
}

// sampleValue sums the samples whose name (plus any leading part of
// the label set) starts with prefix — replica-labeled families yield
// one sample per replica.
func sampleValue(t *testing.T, doc, prefix string) float64 {
	t.Helper()
	sum, found := 0.0, false
	for _, line := range strings.Split(doc, "\n") {
		if strings.HasPrefix(line, "#") || !strings.HasPrefix(line, prefix) {
			continue
		}
		rest := line[len(prefix):]
		if !strings.HasPrefix(rest, " ") && !strings.HasPrefix(rest, "{") {
			continue // longer metric name, not ours
		}
		i := strings.LastIndexByte(line, ' ')
		var v float64
		if _, err := fmt.Sscanf(line[i+1:], "%g", &v); err != nil {
			t.Fatalf("parse %q: %v", line, err)
		}
		sum += v
		found = true
	}
	if !found {
		t.Fatalf("no sample with prefix %q", prefix)
	}
	return sum
}
