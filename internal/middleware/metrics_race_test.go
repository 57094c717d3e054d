package middleware

import (
	"fmt"
	"strings"
	"sync"
	"testing"

	"divsql/internal/dialect"
	"divsql/internal/obs"
)

// TestMetricsConcurrentWithExec hammers statement execution from several
// sessions while concurrently reading Metrics() and scraping the full
// collector set. Run under -race (CI does) this proves the snapshot
// contract documented on Metrics: every counter write and the snapshot
// copy go through d.mu, and the collectors only use locked snapshots.
func TestMetricsConcurrentWithExec(t *testing.T) {
	d := newDiverse(t, nil, dialect.PG, dialect.OR, dialect.MS)
	sess := d.NewSession()
	mustExec(t, sess, "CREATE TABLE RACE_T (A INT PRIMARY KEY, B INT)")

	reg := obs.NewRegistry()
	reg.Register(d.MetricsCollectors()...)

	const (
		writers = 4
		readers = 4
		perGoro = 50
	)
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			cs := d.NewSession()
			defer cs.Close()
			for i := 0; i < perGoro; i++ {
				k := w*perGoro + i
				if _, _, err := cs.Exec(fmt.Sprintf("INSERT INTO RACE_T VALUES (%d, %d)", k, k)); err != nil {
					t.Errorf("insert: %v", err)
					return
				}
				if _, _, err := cs.Exec(fmt.Sprintf("SELECT B FROM RACE_T WHERE A = %d", k)); err != nil {
					t.Errorf("select: %v", err)
					return
				}
			}
		}(w)
	}
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perGoro; i++ {
				m := d.Metrics()
				if m.Statements < 0 {
					t.Error("negative statement count")
					return
				}
				if doc := reg.Render(); !strings.Contains(doc, "divsql_middleware_statements_total") {
					t.Error("scrape missing middleware family")
					return
				}
			}
		}()
	}
	wg.Wait()

	m := d.Metrics()
	// CREATE + writers*(INSERT+SELECT); fault-free, so all unanimous.
	want := int64(1 + writers*perGoro*2)
	if m.Statements != want || m.Unanimous != want {
		t.Fatalf("statements=%d unanimous=%d, want %d", m.Statements, m.Unanimous, want)
	}
}

// TestMetricsCollectorFamilies checks the middleware scrape covers the
// adjudication counters, per-replica health and the resync histogram,
// and stays exposition-valid with replica labels present.
func TestMetricsCollectorFamilies(t *testing.T) {
	d := newDiverse(t, nil, dialect.PG, dialect.OR)
	sess := d.NewSession()
	mustExec(t, sess, "CREATE TABLE MT (A INT)")
	mustExec(t, sess, "INSERT INTO MT VALUES (1)")

	reg := obs.NewRegistry()
	reg.Register(d.MetricsCollectors()...)
	doc := reg.Render()
	for _, want := range []string{
		"divsql_middleware_statements_total 2",
		"divsql_middleware_unanimous_total 2",
		"divsql_middleware_resync_duration_seconds_bucket",
		`divsql_middleware_replica_quarantined{replica="PG"} 0`,
		`divsql_engine_table_rows{replica="OR",table="MT"} 1`,
		"divsql_engine_plan_cache_hits_total",
		`divsql_server_up{replica="PG"} 1`,
	} {
		if !strings.Contains(doc, want) {
			t.Errorf("scrape missing %q\n%s", want, doc)
		}
	}
}
