// Benchmark harness: the experiments of the paper's evaluation that cost
// more than formatting (the tables themselves are printed by
// cmd/faultstudy and pinned by internal/study's tests) and the
// micro-benchmarks that isolate what the stack benchmark (bench/) cannot.
// Run with
//
//	make bench
//
// BenchmarkReliabilityModel prints its artefact once, so a bench run
// leaves the Section 6 transcript.
package divsql

import (
	"fmt"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"divsql/internal/core"
	"divsql/internal/corpus"
	"divsql/internal/dialect"
	"divsql/internal/difftest"
	"divsql/internal/engine"
	engplan "divsql/internal/engine/plan"
	"divsql/internal/middleware"
	"divsql/internal/obs"
	"divsql/internal/reliability"
	"divsql/internal/replication"
	"divsql/internal/server"
	"divsql/internal/sql/parser"
	"divsql/internal/sql/stmt"
	"divsql/internal/sql/types"
	"divsql/internal/study"
	"divsql/internal/tpcc"
	"divsql/internal/translate"
)

var (
	benchOnce sync.Once
	benchRes  *study.Result
	benchErr  error
)

func studyResult(b *testing.B) *study.Result {
	b.Helper()
	benchOnce.Do(func() {
		benchRes, benchErr = study.New().Run()
	})
	if benchErr != nil {
		b.Fatal(benchErr)
	}
	return benchRes
}

var printed sync.Map

func printOnce(b *testing.B, key, text string) {
	b.Helper()
	if _, loaded := printed.LoadOrStore(key, true); !loaded {
		fmt.Println(text)
	}
}

// BenchmarkStudyRun measures one full study pass: 181 bug scripts
// translated and executed on four servers plus the oracle.
func BenchmarkStudyRun(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := study.New().Run(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkReliabilityModel regenerates the Section 6 reliability-gain
// analysis with reporting-bias and usage-profile sensitivity
// (experiment E5).
func BenchmarkReliabilityModel(b *testing.B) {
	res := studyResult(b)
	var rep *reliability.Report
	for i := 0; i < b.N; i++ {
		rep = reliability.FromStudy(res)
		for _, p := range rep.Pairs {
			if p.MA == 0 {
				continue
			}
			if _, err := reliability.EstimateWithReporting(p, 0.5); err != nil {
				b.Fatal(err)
			}
			if _, err := reliability.ProfileSensitivity(p, 1.1, 200, 7); err != nil {
				b.Fatal(err)
			}
		}
	}
	printOnce(b, "e5", rep.Render())
}

// BenchmarkTPCCConfigurations runs the TPC-C-like statistical-testing
// campaign against single / non-diverse / diverse configurations
// (experiment E6) and reports simulated statement throughput.
func BenchmarkTPCCConfigurations(b *testing.B) {
	configs := []struct {
		name string
		make func(b *testing.B) core.SessionExecutor
	}{
		{"single-OR", func(b *testing.B) core.SessionExecutor {
			s, err := server.New(dialect.OR, nil)
			if err != nil {
				b.Fatal(err)
			}
			return s
		}},
		{"replicated-PGx2", func(b *testing.B) core.SessionExecutor {
			s1, _ := server.New(dialect.PG, nil)
			s2, _ := server.New(dialect.PG, nil)
			g, err := replication.NewGroup(true, s1, s2)
			if err != nil {
				b.Fatal(err)
			}
			return g
		}},
		{"diverse-PG+OR+MS", func(b *testing.B) core.SessionExecutor {
			s1, _ := server.New(dialect.PG, nil)
			s2, _ := server.New(dialect.OR, nil)
			s3, _ := server.New(dialect.MS, nil)
			d, err := middleware.New(middleware.DefaultConfig(), s1, s2, s3)
			if err != nil {
				b.Fatal(err)
			}
			return d
		}},
	}
	for _, cfgCase := range configs {
		b.Run(cfgCase.name, func(b *testing.B) {
			exec := cfgCase.make(b).OpenSession()
			cfg := tpcc.DefaultConfig()
			if err := tpcc.Setup(exec, cfg); err != nil {
				b.Fatal(err)
			}
			driver := tpcc.NewDriver(cfg)
			b.ResetTimer()
			var stmts int
			for i := 0; i < b.N; i++ {
				m, err := driver.Run(exec, 10)
				if err != nil {
					b.Fatal(err)
				}
				stmts += m.Statements
			}
			b.ReportMetric(float64(stmts)/float64(b.N), "stmts/op")
		})
	}
}

// BenchmarkTPCCConcurrent measures the execution path's hot-loop cost
// (experiment C1): wall-clock throughput of the read-heavy TPC-C mix at
// 1/4/16 concurrent terminals against one simulated server, in both
// execution modes — inline (every statement rendered to literal SQL and
// reparsed server-side) and prepared (each terminal prepares the mix's
// fixed templates once and re-executes them with typed arguments, so the
// parse leaves the hot loop). Each terminal runs in its own session;
// read-only statements execute in parallel under the engine's read lock,
// so throughput scales with the terminal count, and prepared must beat
// inline at every terminal count. (Simulated latency is not slept here —
// the benchmark measures the real CPU cost of the path, which the
// 1ms-per-statement sleep of earlier revisions drowned out.)
func BenchmarkTPCCConcurrent(b *testing.B) {
	for _, terminals := range []int{1, 4, 16} {
		for _, mode := range []string{"inline", "prepared"} {
			b.Run(fmt.Sprintf("terminals=%d/%s", terminals, mode), func(b *testing.B) {
				// Small per-warehouse tables keep engine scan cost low, so
				// the per-statement fixed costs the two modes differ in
				// (parse + plan vs plan-cache hit) are what the benchmark
				// resolves.
				cfg := tpcc.Config{
					Warehouses:           16,
					DistrictsPerWH:       2,
					CustomersPerDistrict: 4,
					Items:                8,
					Seed:                 1,
				}
				opts := tpcc.ConcurrentOptions{
					Terminals:     terminals,
					TxPerTerminal: 50,
					Mix:           tpcc.ReadHeavyMix(),
					Prepared:      mode == "prepared",
				}
				b.ResetTimer()
				total := 0
				var busy time.Duration
				var hits, misses uint64
				for i := 0; i < b.N; i++ {
					// Fresh database per iteration: terminals draw HISTORY ids
					// from fixed per-terminal ranges, so reusing one database
					// across iterations would turn every Payment into a
					// duplicate-key error and corrupt the throughput figure.
					b.StopTimer()
					srv, err := server.New(dialect.PG, nil)
					if err != nil {
						b.Fatal(err)
					}
					if err := tpcc.Setup(srv.NewSession(), cfg); err != nil {
						b.Fatal(err)
					}
					b.StartTimer()
					start := time.Now()
					m, err := tpcc.RunConcurrent(srv, cfg, opts)
					busy += time.Since(start)
					if err != nil {
						b.Fatal(err)
					}
					if m.Errors > 0 {
						b.Fatalf("%d/%d transactions errored; tx/s would be meaningless", m.Errors, m.Transactions)
					}
					total += m.Transactions
					st := srv.PlanCacheStats()
					hits += st.Hits
					misses += st.Misses
				}
				b.ReportMetric(float64(total)/busy.Seconds(), "tx/s")
				if lookups := hits + misses; lookups > 0 {
					// How much of the mix the shared compiled-plan cache
					// absorbed: the prepared mode should sit near 1.0 and the
					// inline mode close behind it (same cache, keyed by
					// rendered text), making the residual gap pure parse cost.
					b.ReportMetric(float64(hits)/float64(lookups), "plan-cache-hit-rate")
				}
			})
		}
	}
}

// BenchmarkShardedTPCC measures what the shard router buys (experiment
// C3): wall-clock TPC-C throughput at 1/2/4 shards, each shard an
// independent diverse replica set with its own adjudication loop. The
// deployment runs with WallClock adjudication — each replica set really
// spends the adjudicated latency inside its serialization latch, as a
// networked deployment would — so a single set's loop is the bottleneck
// and sharding is the only way to scale writes. Tables partition by
// warehouse id (tpcc.BandColumns); terminals are pinned to warehouses,
// so the mix is overwhelmingly single-shard with ITEM replicated
// everywhere. Throughput at 4 shards must comfortably exceed 1.6x the
// single-shard figure.
func BenchmarkShardedTPCC(b *testing.B) {
	for _, shards := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			cfg := tpcc.Config{
				Warehouses:           8,
				DistrictsPerWH:       2,
				CustomersPerDistrict: 4,
				Items:                8,
				Seed:                 1,
			}
			opts := tpcc.ConcurrentOptions{
				Terminals:     8,
				TxPerTerminal: 12,
				Prepared:      true,
			}
			total := 0
			var busy time.Duration
			for i := 0; i < b.N; i++ {
				// Fresh deployment per iteration (same reason as the
				// concurrent benchmark: per-terminal HISTORY id ranges).
				b.StopTimer()
				db, err := OpenShardedWith(
					ShardedConfig{Shards: shards, BandColumns: tpcc.BandColumns(), WallClock: true},
					[]Option{WithFaults(false)}, PG, OR)
				if err != nil {
					b.Fatal(err)
				}
				exec, ok := Executor(db)
				if !ok {
					b.Fatal("sharded DB has no executor")
				}
				if err := tpcc.Setup(exec.OpenSession(), cfg); err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
				start := time.Now()
				m, err := tpcc.RunConcurrent(exec, cfg, opts)
				busy += time.Since(start)
				if err != nil {
					b.Fatal(err)
				}
				if m.Errors > 0 {
					b.Fatalf("%d/%d transactions errored; tx/s would be meaningless", m.Errors, m.Transactions)
				}
				total += m.Transactions
			}
			b.ReportMetric(float64(total)/busy.Seconds(), "tx/s")
		})
	}
}

// bulkLoad creates a table and fills it with rows 1..rows, in batches:
// tuple renders row id's VALUES tuple.
func bulkLoad(tb testing.TB, sess *server.Session, create, table string, rows int, tuple func(id int) string) {
	tb.Helper()
	exec := func(sql string) {
		if _, _, err := sess.Exec(sql); err != nil {
			tb.Fatalf("%.80s: %v", sql, err)
		}
	}
	exec(create)
	const batch = 200
	for lo := 1; lo <= rows; lo += batch {
		var sb strings.Builder
		sb.WriteString("INSERT INTO " + table + " VALUES ")
		for id := lo; id < lo+batch && id <= rows; id++ {
			if id > lo {
				sb.WriteString(", ")
			}
			sb.WriteString(tuple(id))
		}
		exec(sb.String())
	}
}

// indexLookupFixture loads a keyed table of the given size on a PG server
// and returns a session on it plus the resolved point and range probes
// of BenchmarkIndexLookup and TestIndexLookupSpeedup.
func indexLookupFixture(tb testing.TB, rows int) (sess *server.Session, pointSel, rangeSel *stmt.Parsed) {
	tb.Helper()
	srv, err := server.New(dialect.PG, nil)
	if err != nil {
		tb.Fatal(err)
	}
	sess = srv.NewSession()
	bulkLoad(tb, sess, "CREATE TABLE KV (ID INT PRIMARY KEY, V INT, S VARCHAR(16))", "KV", rows,
		func(id int) string { return fmt.Sprintf("(%d, %d, 'v%d')", id, id*7, id) })
	pointSel, err = stmt.Resolve("SELECT V FROM KV WHERE ID = $1")
	if err != nil {
		tb.Fatal(err)
	}
	rangeSel, err = stmt.Resolve("SELECT V FROM KV WHERE ID BETWEEN $1 AND $2")
	if err != nil {
		tb.Fatal(err)
	}
	return sess, pointSel, rangeSel
}

// pointProbe looks one key up under the forced access path and checks
// the answer.
func pointProbe(tb testing.TB, sess *server.Session, sel *stmt.Parsed, force engplan.Force, k int64) {
	res, err := sess.ExecVariant(sel, force, types.NewInt(k))
	if err != nil {
		tb.Fatal(err)
	}
	if len(res.Rows) != 1 {
		tb.Fatalf("point probe for ID=%d returned %d rows", k, len(res.Rows))
	}
}

// BenchmarkIndexLookup quantifies the analyzer's index-backed access
// paths (experiment C2): the same pre-parsed point and range SELECTs
// execute under the analyzer's own plan and the forced-full-scan variant —
// the pair the DQP-lite difftest gate proves result-identical — so the
// ratio between the two is pure access-path cost. The table's indexes
// are built lazily by the first probe that wants them, so each case
// probes once before its timer starts; TestIndexLookupSpeedup holds the
// resulting ratio.
func BenchmarkIndexLookup(b *testing.B) {
	for _, rows := range []int{1000, 10000, 100000} {
		sess, pointSel, rangeSel := indexLookupFixture(b, rows)
		for _, tc := range []struct {
			name  string
			force engplan.Force
		}{
			{"indexed", engplan.ForceAuto},
			{"fullscan", engplan.ForceFullScan},
		} {
			b.Run(fmt.Sprintf("rows=%d/point-%s", rows, tc.name), func(b *testing.B) {
				pointProbe(b, sess, pointSel, tc.force, 1)
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					pointProbe(b, sess, pointSel, tc.force, int64(i%rows)+1)
				}
			})
			b.Run(fmt.Sprintf("rows=%d/range-%s", rows, tc.name), func(b *testing.B) {
				span := rows - 99
				probe := func(lo int64) {
					res, err := sess.ExecVariant(rangeSel, tc.force, types.NewInt(lo), types.NewInt(lo+99))
					if err != nil {
						b.Fatal(err)
					}
					if len(res.Rows) != 100 {
						b.Fatalf("range scan [%d, %d] returned %d rows", lo, lo+99, len(res.Rows))
					}
				}
				probe(1)
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					probe(int64(i%span) + 1)
				}
			})
		}
	}
}

// TestIndexLookupSpeedup is the claim BenchmarkIndexLookup used to make
// in a comment: at 10k rows an indexed point lookup is at least an order
// of magnitude faster than the full scan answering the same probe. Both
// paths are warmed first (the index is built lazily), then timed over
// the same keys.
func TestIndexLookupSpeedup(t *testing.T) {
	const rows, probes = 10000, 200
	sess, pointSel, _ := indexLookupFixture(t, rows)
	timed := func(force engplan.Force) time.Duration {
		pointProbe(t, sess, pointSel, force, 1)
		start := time.Now()
		for i := 0; i < probes; i++ {
			pointProbe(t, sess, pointSel, force, int64(i*37%rows)+1)
		}
		return time.Since(start)
	}
	indexed, full := timed(engplan.ForceAuto), timed(engplan.ForceFullScan)
	if full < 10*indexed {
		t.Errorf("%d point probes at %d rows: indexed %v, full scan %v — less than 10x apart", probes, rows, indexed, full)
	}
	t.Logf("indexed %v, full scan %v (%.0fx)", indexed, full, float64(full)/float64(indexed))
}

// BenchmarkIndexMaintenance prices lookup-index build and rebuild alone,
// on TPC-C NEW_ORDER's pattern through one engine session: every step
// INSERTs an order, whose primary-key duplicate check probes the live
// table's index (a tail scan or an extension), and every tenth step
// DELETEs the ten oldest orders, then reads the newest back by its key.
// The DELETE moves row positions, so that point SELECT rebuilds the
// read view's index and the next INSERT the live table's. Deleting ten
// where NEW_ORDER's Delivery deletes one per district keeps the table
// at its preloaded 400 rows, so the cost per step does not grow with
// b.N. The ROADMAP item "An index that survives a DELETE" reads it.
func BenchmarkIndexMaintenance(b *testing.B) {
	srv, err := server.New(dialect.PG, nil)
	if err != nil {
		b.Fatal(err)
	}
	sess := srv.NewSession()
	const rows = 400
	bulkLoad(b, sess, "CREATE TABLE NO (D INT, O INT, PRIMARY KEY (D, O))", "NO", rows,
		func(id int) string { return fmt.Sprintf("(%d, %d)", id%10+1, id) })
	prepare := func(sql string) core.Statement {
		st, err := sess.Prepare(sql)
		if err != nil {
			b.Fatal(err)
		}
		return st
	}
	ins := prepare("INSERT INTO NO VALUES ($1, $2)")
	del := prepare("DELETE FROM NO WHERE O <= $1")
	sel := prepare("SELECT O FROM NO WHERE D = $1 AND O = $2")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		o := int64(rows + 1 + i)
		d := types.NewInt(o%10 + 1)
		if _, _, err := ins.Exec(d, types.NewInt(o)); err != nil {
			b.Fatal(err)
		}
		if i%10 != 9 {
			continue
		}
		if _, _, err := del.Exec(types.NewInt(o - rows)); err != nil {
			b.Fatal(err)
		}
		if res, _, err := sel.Exec(d, types.NewInt(o)); err != nil || len(res.Rows) != 1 {
			b.Fatalf("point read of order %d: %v", o, err)
		}
	}
}

// BenchmarkJoin prices the join's algorithm: the same equality join of
// two n-row tables — every left key matches one right row, in scrambled
// order — under the compiled plan (hash join: one probe per left row)
// and under ForceFullScan (nested loop: ON evaluated on all n*n pairs).
// Both allocate per output row, not per pair (TestJoinAllocs in
// internal/engine holds that); the time ratio grows with n.
func BenchmarkJoin(b *testing.B) {
	for _, n := range []int{16, 256, 4096} {
		srv, err := server.New(dialect.PG, nil)
		if err != nil {
			b.Fatal(err)
		}
		sess := srv.NewSession()
		bulkLoad(b, sess, "CREATE TABLE JA (ID INT PRIMARY KEY, K INT)", "JA", n,
			func(id int) string { return fmt.Sprintf("(%d, %d)", id, id) })
		bulkLoad(b, sess, "CREATE TABLE JB (ID INT PRIMARY KEY, K INT)", "JB", n,
			func(id int) string { return fmt.Sprintf("(%d, %d)", id, (id*7919)%n+1) })
		p, err := stmt.Resolve("SELECT JA.ID, JB.ID FROM JA INNER JOIN JB ON JA.K = JB.K")
		if err != nil {
			b.Fatal(err)
		}
		for _, tc := range []struct {
			name  string
			force engplan.Force
		}{
			{"hash", engplan.ForceAuto},
			{"nested-loop", engplan.ForceFullScan},
		} {
			b.Run(fmt.Sprintf("%dx%d/%s", n, n, tc.name), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					res, err := sess.ExecVariant(p, tc.force)
					if err != nil {
						b.Fatal(err)
					}
					if len(res.Rows) != n {
						b.Fatalf("join returned %d rows, want %d", len(res.Rows), n)
					}
				}
			})
		}
	}
}

// BenchmarkUncorrelatedIn prices an uncorrelated IN subquery over
// tables of n rows each, half of the outer keys in the subquery's. A pure
// SELECT runs the subquery once per execution and probes its values as
// a set, so the cost is linear in outer + inner: 4x the rows cost ~4x
// the time, not 16x as when the subquery ran per outer row.
func BenchmarkUncorrelatedIn(b *testing.B) {
	for _, n := range []int{1024, 4096} {
		srv, err := server.New(dialect.PG, nil)
		if err != nil {
			b.Fatal(err)
		}
		sess := srv.NewSession()
		bulkLoad(b, sess, "CREATE TABLE IO (ID INT PRIMARY KEY, K INT)", "IO", n,
			func(id int) string { return fmt.Sprintf("(%d, %d)", id, id) })
		bulkLoad(b, sess, "CREATE TABLE II (ID INT PRIMARY KEY, K INT)", "II", n,
			func(id int) string { return fmt.Sprintf("(%d, %d)", id, 2*id) })
		p, err := stmt.Resolve("SELECT COUNT(*) AS N FROM IO WHERE K IN (SELECT K FROM II)")
		if err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("%dx%d", n, n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				res, _, err := sess.Run(p, nil)
				if err != nil {
					b.Fatal(err)
				}
				if got := res.Rows[0][0]; got != types.NewInt(int64(n/2)) {
					b.Fatalf("IN matched %v rows, want %d", got, n/2)
				}
			}
		})
	}
}

// BenchmarkComparatorNormalization is the A1 ablation: the
// representation-tolerant comparator versus strict comparison over
// results that differ only in representation. The tolerant comparator
// must report equality (no false alarms); the strict one must not.
func BenchmarkComparatorNormalization(b *testing.B) {
	a, _ := server.New(dialect.PG, nil)
	o, _ := server.New(dialect.OR, nil)
	srvA, srvB := a.NewSession(), o.NewSession()
	for _, s := range []*server.Session{srvA, srvB} {
		if _, _, err := s.Exec("CREATE TABLE T (A FLOAT, S CHAR(10))"); err != nil {
			b.Fatal(err)
		}
		if _, _, err := s.Exec("INSERT INTO T VALUES (0.1, 'pad')"); err != nil {
			b.Fatal(err)
		}
	}
	// Make representations diverge: one server computes 0.1+0.2 in two
	// steps, padding differs.
	resA, _, err := srvA.Exec("SELECT A + 0.2 AS X, S FROM T")
	if err != nil {
		b.Fatal(err)
	}
	resB, _, err := srvB.Exec("SELECT 0.30000000000000004 AS X, 'pad   ' AS S FROM T")
	if err != nil {
		b.Fatal(err)
	}
	tolerant := core.DefaultCompareOptions()
	strict := core.StrictCompareOptions()
	var falseAlarmsTolerant, falseAlarmsStrict int
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !core.Equal(resA, resB, tolerant) {
			falseAlarmsTolerant++
		}
		if !core.Equal(resA, resB, strict) {
			falseAlarmsStrict++
		}
	}
	b.StopTimer()
	if falseAlarmsTolerant != 0 {
		b.Fatalf("tolerant comparator raised %d false alarms", falseAlarmsTolerant)
	}
	if falseAlarmsStrict != b.N {
		b.Fatalf("strict comparator missed representation differences")
	}
	b.ReportMetric(float64(falseAlarmsStrict)/float64(b.N), "strict-false-alarms/op")
}

// BenchmarkMaskingAblation is the A2 ablation: detection/masking rate of
// non-diverse vs diverse-pair vs diverse-triple configurations against
// an injected wrong-result fault campaign.
func BenchmarkMaskingAblation(b *testing.B) {
	type outcome struct{ detected, masked, silentWrong int }
	campaign := func(b *testing.B, mk func() core.SessionExecutor, n int) outcome {
		var out outcome
		for i := 0; i < n; i++ {
			exec := mk().OpenSession()
			mustB(b, exec, "CREATE TABLE R (N FLOAT)")
			mustB(b, exec, "INSERT INTO R VALUES (1.00000007)")
			res, _, err := exec.Exec("SELECT N * 16777216.0 AS P FROM R")
			switch {
			case err != nil:
				out.detected++
			case res.Rows[0][0].String() == "1.6777218e+07":
				out.silentWrong++
			default:
				out.masked++
			}
		}
		return out
	}
	cases := []struct {
		name string
		mk   func() core.SessionExecutor
	}{
		{"non-diverse-PGx2", func() core.SessionExecutor {
			s1, _ := server.New(dialect.PG, nil)
			s2, _ := server.New(dialect.PG, nil)
			g, _ := replication.NewGroup(true, s1, s2)
			return g
		}},
		{"diverse-pair-PG+OR", func() core.SessionExecutor {
			s1, _ := server.New(dialect.PG, nil)
			s2, _ := server.New(dialect.OR, nil)
			d, _ := middleware.New(middleware.DefaultConfig(), s1, s2)
			return d
		}},
		{"diverse-triple-PG+OR+IB", func() core.SessionExecutor {
			s1, _ := server.New(dialect.PG, nil)
			s2, _ := server.New(dialect.OR, nil)
			s3, _ := server.New(dialect.IB, nil)
			d, _ := middleware.New(middleware.DefaultConfig(), s1, s2, s3)
			return d
		}},
	}
	for _, tc := range cases {
		b.Run(tc.name, func(b *testing.B) {
			out := campaign(b, tc.mk, b.N)
			b.ReportMetric(float64(out.silentWrong)/float64(b.N), "silent-wrong/op")
			b.ReportMetric(float64(out.detected)/float64(b.N), "detected/op")
			b.ReportMetric(float64(out.masked)/float64(b.N), "masked/op")
		})
	}
}

func mustB(b *testing.B, exec core.Executor, sql string) {
	b.Helper()
	if _, _, err := exec.Exec(sql); err != nil {
		b.Fatalf("%s: %v", sql, err)
	}
}

// BenchmarkMiddlewareOverhead compares single-statement latency of a
// single server against diverse configurations (the paper's Section 6
// cost discussion: "run-time cost of the synchronisation and
// consistency enforcing mechanisms").
func BenchmarkMiddlewareOverhead(b *testing.B) {
	mkSingle := func() core.SessionExecutor {
		s, _ := server.New(dialect.OR, nil)
		return s
	}
	mkPair := func() core.SessionExecutor {
		s1, _ := server.New(dialect.PG, nil)
		s2, _ := server.New(dialect.OR, nil)
		d, _ := middleware.New(middleware.DefaultConfig(), s1, s2)
		return d
	}
	mkTriple := func() core.SessionExecutor {
		s1, _ := server.New(dialect.PG, nil)
		s2, _ := server.New(dialect.OR, nil)
		s3, _ := server.New(dialect.MS, nil)
		d, _ := middleware.New(middleware.DefaultConfig(), s1, s2, s3)
		return d
	}
	for _, tc := range []struct {
		name string
		mk   func() core.SessionExecutor
	}{
		{"single", mkSingle}, {"diverse-pair", mkPair}, {"diverse-triple", mkTriple},
	} {
		load := func(b *testing.B, key string) core.Session {
			exec := tc.mk().OpenSession()
			mustB(b, exec, "CREATE TABLE T (A INT"+key+", S VARCHAR(20))")
			for i := 0; i < 64; i++ {
				mustB(b, exec, fmt.Sprintf("INSERT INTO T VALUES (%d, 'row%d')", i, i))
			}
			return exec
		}
		b.Run(tc.name, func(b *testing.B) {
			exec := load(b, "")
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, _, err := exec.Exec("SELECT A, S FROM T WHERE A < 32 ORDER BY A"); err != nil {
					b.Fatal(err)
				}
			}
		})
		// The statement the stack benchmark's pointread workload issues:
		// a prepared primary-key lookup, where the middleware's fixed
		// per-statement cost has the least engine work to hide behind.
		b.Run(tc.name+"/prepared-point", func(b *testing.B) {
			exec := load(b, " PRIMARY KEY")
			st, err := exec.Prepare("SELECT S FROM T WHERE A = $1")
			if err != nil {
				b.Fatal(err)
			}
			if _, _, err := st.Exec(types.NewInt(0)); err != nil { // plan compiled, lazy index built
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, _, err := st.Exec(types.NewInt(int64(i % 64))); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkResync prices a replica's rejoin. Donor and replica hold the
// same TPC-C tables and run the same Payments; before each iteration
// the replica alone runs one divergent transaction (a STOCK update).
// The timed part is the state transfer (donor Snapshot, replica
// Restore) and the next Payment on the replica, which the donor then
// runs too, untimed. Only STOCK differs at the transfer, so the cost
// scales with the tables that changed: the other eight keep their
// headers, lookup indexes and the replica's compiled plans, and the
// donor's unchanged tables hand out the same snapshot image each time.
//
// Two cores, go1.24, before → after state transfer copied only what
// changed (medians of five alternating runs at -benchtime=2000x):
// 255 → 137 µs/op, 121.6 → 12.0 KB/op, 224 → 110 allocs/op.
func BenchmarkResync(b *testing.B) {
	cfg := tpcc.Config{Warehouses: 2, DistrictsPerWH: 10, CustomersPerDistrict: 30, Items: 200, Seed: 1}
	servers := make([]*server.Server, 2)
	pays := make([]func(), 2)
	for i := range servers {
		srv, err := server.New(dialect.PG, nil)
		if err != nil {
			b.Fatal(err)
		}
		sess := srv.NewSession()
		if err := tpcc.Setup(sess, cfg); err != nil {
			b.Fatal(err)
		}
		payments := tpcc.NewTerminalDriver(cfg, tpcc.Mix{Payment: 1}, 1)
		servers[i], pays[i] = srv, func() {
			if m, err := payments.Run(sess, 1); err != nil || m.Errors > 0 {
				b.Fatalf("payment: %v (%d failed)", err, m.Errors)
			}
		}
	}
	donor, replica := servers[0], servers[1]
	diverge, err := replica.NewSession().Prepare("UPDATE STOCK SET S_QUANTITY = S_QUANTITY + 1 WHERE S_W_ID = 1 AND S_I_ID = $1")
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		if _, _, err := diverge.Exec(types.NewInt(int64(1 + i%cfg.Items))); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		replica.Restore(donor.Snapshot())
		pays[1]()
		b.StopTimer()
		pays[0]()
		b.StartTimer()
	}
}

// BenchmarkEngineSelect measures raw engine query throughput (substrate
// sanity; not a paper artefact).
func BenchmarkEngineSelect(b *testing.B) {
	srv, _ := server.New(dialect.PG, nil)
	s := srv.NewSession()
	mustB(b, s, "CREATE TABLE T (A INT, B FLOAT, S VARCHAR(20))")
	for i := 0; i < 256; i++ {
		mustB(b, s, fmt.Sprintf("INSERT INTO T VALUES (%d, %d.5, 'v%d')", i, i, i))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := s.Exec("SELECT A, SUM(B) AS SB FROM T WHERE A > 100 GROUP BY A ORDER BY A"); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTranslation measures dialect-translation throughput over the
// full corpus (every bug script into every other dialect).
func BenchmarkTranslation(b *testing.B) {
	bugs := corpus.All()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := range bugs {
			bug := &bugs[j]
			for _, tgt := range dialect.AllServers {
				if tgt == bug.Server {
					continue
				}
				_, _ = translate.Script(bug.Script, bug.Server, tgt)
			}
		}
	}
}

// statementLog is an executor that records every statement text it runs.
type statementLog struct {
	core.Executor
	texts []string
}

func (l *statementLog) Exec(sql string) (*engine.Result, time.Duration, error) {
	l.texts = append(l.texts, sql)
	return l.Executor.Exec(sql)
}

// parseTexts is BenchmarkParse's fixed input: every statement of the
// first 64 corpus scripts, then the literal SQL of 40 TPC-C transactions
// on a freshly set-up PG server (set-up statements left out).
func parseTexts(b *testing.B) []string {
	var texts []string
	for _, bug := range corpus.All()[:64] {
		stmts, err := parser.SplitScript(bug.Script)
		if err != nil {
			b.Fatal(err)
		}
		texts = append(texts, stmts...)
	}
	srv, err := server.New(dialect.PG, nil)
	if err != nil {
		b.Fatal(err)
	}
	log := &statementLog{Executor: srv.NewSession()}
	if err := tpcc.Setup(log, tpcc.DefaultConfig()); err != nil {
		b.Fatal(err)
	}
	log.texts = log.texts[:0]
	if _, err := tpcc.NewDriver(tpcc.DefaultConfig()).Run(log, 40); err != nil {
		b.Fatal(err)
	}
	return append(texts, log.texts...)
}

// BenchmarkParse prices the parse alone: stmt.Resolve of a text that is
// not interned (lexer, parser, fingerprint and shape) over corpus and
// TPC-C statements, one statement per op. Each pass over the slice
// appends a new comment to every text, so no Resolve finds it interned;
// building that text is the one allocation per op that is not the
// parse's.
func BenchmarkParse(b *testing.B) {
	texts := parseTexts(b)
	b.ReportAllocs()
	b.ResetTimer()
	var suffix string
	for i := 0; i < b.N; i++ {
		j := i % len(texts)
		if j == 0 {
			suffix = " -- " + strconv.Itoa(i)
		}
		if _, err := stmt.Resolve(texts[j] + suffix); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkReadPolicyTradeoff measures the paper's §7 performance-vs-
// dependability dial: compare-every-query vs read-one-replica on a
// diverse triple.
func BenchmarkReadPolicyTradeoff(b *testing.B) {
	for _, tc := range []struct {
		name   string
		policy middleware.ReadPolicy
	}{
		{"compare-all-queries", middleware.ReadCompareAll},
		{"read-one-replica", middleware.ReadOne},
	} {
		b.Run(tc.name, func(b *testing.B) {
			s1, _ := server.New(dialect.PG, nil)
			s2, _ := server.New(dialect.OR, nil)
			s3, _ := server.New(dialect.MS, nil)
			cfg := middleware.DefaultConfig()
			cfg.Reads = tc.policy
			ds, err := middleware.New(cfg, s1, s2, s3)
			if err != nil {
				b.Fatal(err)
			}
			d := ds.NewSession()
			mustB(b, d, "CREATE TABLE T (A INT, S VARCHAR(20))")
			for i := 0; i < 64; i++ {
				mustB(b, d, fmt.Sprintf("INSERT INTO T VALUES (%d, 'r%d')", i, i))
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, _, err := d.Exec("SELECT A, S FROM T WHERE A < 32 ORDER BY A"); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkDiffFuzz measures the differential harness's adjudicated
// throughput: generated statements executed on four servers plus the
// oracle, each adjudicated with the representation-tolerant comparator.
// The custom metric stmts/s is the number of generated (5-way
// adjudicated) statements per second.
func BenchmarkDiffFuzz(b *testing.B) {
	total := 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cfg := difftest.CalibratedConfig(int64(i+1), 1000)
		cfg.Shrink = false
		res, err := difftest.Run(cfg)
		if err != nil {
			b.Fatal(err)
		}
		total += res.Statements
	}
	b.ReportMetric(float64(total)/b.Elapsed().Seconds(), "stmts/s")
}

// BenchmarkDiffFuzzDeep contrasts the two deep-run regimes of the
// calibrated hunt (experiment D1): the fixed-weight, unbounded-table
// baseline against the coverage-guided (-adaptive) run with bounded
// table cardinality (-maxrows). The custom metrics tell the story:
// us/stmt must stay ~flat for the bounded run as n quadruples (linear
// total cost — the cardinality bound holding), while it climbs for the
// unbounded baseline; fingerprints/kstmt shows the coverage feedback
// converting the same statement budget into more distinct divergence
// regions.
func BenchmarkDiffFuzzDeep(b *testing.B) {
	for _, tc := range []struct {
		name     string
		n        int
		maxRows  int
		adaptive bool
	}{
		{"unbounded-fixed/n=2500", 2500, 0, false},
		{"unbounded-fixed/n=10000", 10000, 0, false},
		{"bounded-adaptive/n=2500", 2500, 16, true},
		{"bounded-adaptive/n=10000", 10000, 16, true},
	} {
		b.Run(tc.name, func(b *testing.B) {
			stmts, fps := 0, 0
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				cfg := difftest.CalibratedConfig(1, tc.n)
				cfg.Streams = 1
				cfg.Shrink = false
				cfg.Adaptive = tc.adaptive
				cfg.MaxRowsPerTable = tc.maxRows
				res, err := difftest.Run(cfg)
				if err != nil {
					b.Fatal(err)
				}
				stmts += res.Statements
				fps += len(res.Divergences)
			}
			b.ReportMetric(b.Elapsed().Seconds()*1e6/float64(stmts), "us/stmt")
			b.ReportMetric(float64(fps)/float64(stmts)*1000, "fingerprints/kstmt")
		})
	}
}

// BenchmarkObsOverhead measures the per-statement cost of the metrics
// instrumentation (experiment O2): the wire server's per-frame pattern —
// one counter increment plus one latency-histogram observation around a
// timed section — against the bare time.Now/time.Since pair it wraps.
// The delta is the whole per-request price of -metrics, and it must stay
// in the tens of nanoseconds so instrumented TPC-C throughput is
// unchanged within noise.
func BenchmarkObsOverhead(b *testing.B) {
	var sink time.Duration
	b.Run("uninstrumented", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			start := time.Now()
			sink += time.Since(start)
		}
	})
	b.Run("instrumented", func(b *testing.B) {
		var c obs.Counter
		h := obs.NewHistogram(obs.DefBuckets()...)
		for i := 0; i < b.N; i++ {
			start := time.Now()
			c.Inc()
			h.Observe(time.Since(start))
		}
		if c.Value() != uint64(b.N) || h.Count() != uint64(b.N) {
			b.Fatal("instrument lost observations")
		}
	})
	_ = sink
}

// BenchmarkDiffFuzzFaultFree is the clean-path baseline: no faults, no
// divergences, pure generate-execute-adjudicate cost.
func BenchmarkDiffFuzzFaultFree(b *testing.B) {
	total := 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := difftest.Run(difftest.DefaultConfig(int64(i+1), 1000))
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Divergences) != 0 {
			b.Fatalf("fault-free run diverged: %s", res.Render(false))
		}
		total += res.Statements
	}
	b.ReportMetric(float64(total)/b.Elapsed().Seconds(), "stmts/s")
}
