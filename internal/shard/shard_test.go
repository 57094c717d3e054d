package shard

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"divsql/internal/core"
	"divsql/internal/dialect"
	"divsql/internal/engine"
	"divsql/internal/fault"
	"divsql/internal/middleware"
	"divsql/internal/obs"
	"divsql/internal/server"
	"divsql/internal/sql/ast"
	"divsql/internal/sql/types"
)

// newServerRouter builds a router over n single-server shards (one
// fault-free PG engine each) — the cheapest backend for routing tests.
func newServerRouter(t *testing.T, cfg Config, n int) (*Router, []*server.Server) {
	t.Helper()
	var backends []Backend
	var srvs []*server.Server
	for i := 0; i < n; i++ {
		s, err := server.New(dialect.PG, nil)
		if err != nil {
			t.Fatal(err)
		}
		backends = append(backends, s)
		srvs = append(srvs, s)
	}
	r, err := New(cfg, backends...)
	if err != nil {
		t.Fatal(err)
	}
	return r, srvs
}

func bandCfg() Config {
	return Config{BandColumns: map[string]string{"T": "W", "R": ""}}
}

func exec(t *testing.T, s *Session, sql string) *engine.Result {
	t.Helper()
	res, _, err := s.Exec(sql)
	if err != nil {
		t.Fatalf("exec %q: %v", sql, err)
	}
	return res
}

func TestNewRequiresShards(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Fatal("New with zero shards succeeded")
	}
}

func setupBanded(t *testing.T, s *Session, rows int) {
	t.Helper()
	exec(t, s, "CREATE TABLE T (W INT, A INT)")
	exec(t, s, "CREATE TABLE R (K INT, V INT)")
	for i := 0; i < rows; i++ {
		exec(t, s, fmt.Sprintf("INSERT INTO T VALUES (%d, %d)", i, i*10))
	}
}

func TestBandRoutingPartitionsRows(t *testing.T) {
	r, srvs := newServerRouter(t, bandCfg(), 3)
	sess := r.NewSession()
	setupBanded(t, sess, 9)
	// DDL broadcast: the table exists on every shard; rows split by W%3.
	for i, s := range srvs {
		res, _, err := s.NewSession().Exec("SELECT W FROM T")
		if err != nil {
			t.Fatalf("shard %d: %v", i, err)
		}
		if len(res.Rows) != 3 {
			t.Errorf("shard %d holds %d rows, want 3", i, len(res.Rows))
		}
		for _, row := range res.Rows {
			if int(row[0].I)%3 != i {
				t.Errorf("shard %d holds band %d", i, row[0].I)
			}
		}
	}
	// A band-equality read routes to one shard and sees only that band.
	res := exec(t, sess, "SELECT A FROM T WHERE W = 4")
	if len(res.Rows) != 1 || res.Rows[0][0].I != 40 {
		t.Fatalf("band read: %v", res.Rows)
	}
}

func TestScatterMergeOrderLimitDistinct(t *testing.T) {
	r, _ := newServerRouter(t, bandCfg(), 3)
	sess := r.NewSession()
	setupBanded(t, sess, 9)
	res := exec(t, sess, "SELECT A FROM T ORDER BY A DESC LIMIT 4")
	want := []int64{80, 70, 60, 50}
	if len(res.Rows) != 4 {
		t.Fatalf("rows: %v", res.Rows)
	}
	for i, w := range want {
		if res.Rows[i][0].I != w {
			t.Fatalf("row %d = %v, want %d", i, res.Rows[i][0], w)
		}
	}
	exec(t, sess, "INSERT INTO T VALUES (9, 10)") // duplicate A=10 on another shard
	res = exec(t, sess, "SELECT DISTINCT A FROM T WHERE A = 10")
	if len(res.Rows) != 1 {
		t.Fatalf("DISTINCT across shards kept %d rows", len(res.Rows))
	}
}

// TestScatterDistinctCannotBeForged: the merge's DISTINCT tells rows from
// different shards apart by every cell, whatever bytes a string holds.
// Joined with a bare separator byte, the two rows' encoded cells agree.
func TestScatterDistinctCannotBeForged(t *testing.T) {
	r, _ := newServerRouter(t, Config{BandColumns: map[string]string{"F": "W"}}, 2)
	sess := r.NewSession()
	exec(t, sess, "CREATE TABLE F (W INT, A VARCHAR(20), B VARCHAR(20))")
	ins, err := sess.Prepare("INSERT INTO F VALUES ($1, $2, $3)")
	if err != nil {
		t.Fatal(err)
	}
	for w, row := range [][2]string{{"x\x1fS:y", "z"}, {"x", "y\x1fS:z"}} {
		if _, _, err := ins.Exec(types.NewInt(int64(w)), types.NewString(row[0]), types.NewString(row[1])); err != nil {
			t.Fatal(err)
		}
	}
	if res := exec(t, sess, "SELECT DISTINCT A, B FROM F"); len(res.Rows) != 2 {
		t.Fatalf("scatter DISTINCT kept %d rows, want 2", len(res.Rows))
	}
}

func TestScatterAggregates(t *testing.T) {
	r, _ := newServerRouter(t, bandCfg(), 3)
	sess := r.NewSession()
	setupBanded(t, sess, 9)
	res := exec(t, sess, "SELECT COUNT(*) AS N, SUM(A) AS S, MIN(A) AS LO, MAX(A) AS HI FROM T")
	row := res.Rows[0]
	if row[0].I != 9 || row[1].I != 360 || row[2].I != 0 || row[3].I != 80 {
		t.Fatalf("aggregates: %v", row)
	}
	if _, _, err := sess.Exec("SELECT W, COUNT(*) FROM T GROUP BY W"); err == nil ||
		!strings.Contains(err.Error(), "GROUP BY") {
		t.Fatalf("cross-shard GROUP BY: %v", err)
	}
	// With a band predicate GROUP BY routes to one shard and works.
	res = exec(t, sess, "SELECT W, COUNT(*) AS N FROM T WHERE W = 3 GROUP BY W")
	if len(res.Rows) != 1 || res.Rows[0][1].I != 1 {
		t.Fatalf("single-shard GROUP BY: %v", res.Rows)
	}
}

func TestScatterSkipsNoShardsWhenEmpty(t *testing.T) {
	// Edge case: shards holding no rows for the table contribute empty
	// fragments — the merge must not invent rows or NULLed aggregates.
	r, _ := newServerRouter(t, bandCfg(), 4)
	sess := r.NewSession()
	exec(t, sess, "CREATE TABLE T (W INT, A INT)")
	exec(t, sess, "INSERT INTO T VALUES (1, 7)") // only shard 1 has a row
	res := exec(t, sess, "SELECT A FROM T")
	if len(res.Rows) != 1 || res.Rows[0][0].I != 7 {
		t.Fatalf("scatter over mostly-empty shards: %v", res.Rows)
	}
	res = exec(t, sess, "SELECT COUNT(*) AS N, SUM(A) AS S, MIN(A) AS LO FROM T")
	row := res.Rows[0]
	if row[0].I != 1 || row[1].I != 7 || row[2].I != 7 {
		t.Fatalf("aggregates over empty fragments: %v", row)
	}
	// Entirely empty table: COUNT sums the per-shard zeros; SUM is NULL
	// everywhere and stays NULL.
	exec(t, sess, "DELETE FROM T")
	res = exec(t, sess, "SELECT COUNT(*) AS N, SUM(A) AS S FROM T")
	row = res.Rows[0]
	if row[0].I != 0 || !row[1].IsNull() {
		t.Fatalf("aggregates over empty table: %v", row)
	}
}

func TestReplicatedTableBroadcastsWrites(t *testing.T) {
	r, srvs := newServerRouter(t, bandCfg(), 3)
	sess := r.NewSession()
	setupBanded(t, sess, 0)
	res := exec(t, sess, "INSERT INTO R VALUES (1, 100)")
	// Replicated writes apply everywhere but report one logical row.
	if res.Affected != 1 {
		t.Fatalf("replicated INSERT affected %d rows, want 1", res.Affected)
	}
	exec(t, sess, "INSERT INTO R VALUES (2, 200), (3, 300)")
	if res := exec(t, sess, "UPDATE R SET V = V + 1 WHERE K > 1"); res.Affected != 2 {
		t.Fatalf("replicated UPDATE affected %d rows, want 2", res.Affected)
	}
	for i, s := range srvs {
		rr, _, err := s.NewSession().Exec("SELECT V FROM R WHERE K = 1")
		if err != nil || len(rr.Rows) != 1 {
			t.Fatalf("shard %d replica of R: %v %v", i, rr, err)
		}
	}
	// Reads of a replicated table pin to one shard (no fan-out needed).
	rr := exec(t, sess, "SELECT V FROM R WHERE K = 1")
	if len(rr.Rows) != 1 || rr.Rows[0][0].I != 100 {
		t.Fatalf("replicated read: %v", rr.Rows)
	}
}

// TestReplicatedWriteCountMismatchSurfaces: copies of a replicated table
// that report different counts for one write have diverged, and the
// write says so instead of answering with either count.
func TestReplicatedWriteCountMismatchSurfaces(t *testing.T) {
	r, srvs := newServerRouter(t, bandCfg(), 2)
	sess := r.NewSession()
	setupBanded(t, sess, 0)
	exec(t, sess, "INSERT INTO R VALUES (1, 100)")
	if _, _, err := srvs[1].NewSession().Exec("DELETE FROM R"); err != nil {
		t.Fatal(err)
	}
	if _, _, err := sess.Exec("UPDATE R SET V = 0"); err == nil ||
		!strings.Contains(err.Error(), "shard 1: replicated write affected 0 rows") {
		t.Fatalf("diverged replicated UPDATE: %v", err)
	}
}

// TestViewOverReplicatedTablesIsReplicated: a view reading only
// replicated tables answers from one shard's full copy; a view reading a
// banded table, or a banded view, scatters over the fragments.
func TestViewOverReplicatedTablesIsReplicated(t *testing.T) {
	r, _ := newServerRouter(t, bandCfg(), 2)
	sess := r.NewSession()
	setupBanded(t, sess, 4)
	exec(t, sess, "INSERT INTO R VALUES (1, 10), (2, 20)")
	exec(t, sess, "CREATE VIEW RV AS SELECT K FROM R")
	exec(t, sess, "CREATE VIEW TV AS SELECT A FROM T WHERE A > 0")
	exec(t, sess, "CREATE VIEW TTV AS SELECT A FROM TV")
	for q, want := range map[string]int{
		"SELECT K FROM RV":  2,
		"SELECT A FROM TV":  3,
		"SELECT A FROM TTV": 3,
	} {
		if res := exec(t, sess, q); len(res.Rows) != want {
			t.Errorf("%s: %d rows, want %d", q, len(res.Rows), want)
		}
	}
}

// slowBackend holds one statement text on its way into the shard for a
// while, and signals once it has arrived: the window in which another
// session's statement could overtake it on this shard.
type slowBackend struct {
	*server.Server
	sql     string
	arrived chan struct{}
}

func (b *slowBackend) OpenSession() core.Session {
	return &slowSession{Session: b.Server.OpenSession(), b: b}
}

type slowSession struct {
	core.Session
	b *slowBackend
}

func (s *slowSession) Exec(sql string) (*engine.Result, time.Duration, error) {
	if sql == s.b.sql {
		close(s.b.arrived)
		time.Sleep(100 * time.Millisecond)
	}
	return s.Session.Exec(sql)
}

// shardCopies renders one query's answer on every shard's own copy.
func shardCopies(t *testing.T, srvs []*server.Server, sql string) []string {
	t.Helper()
	var out []string
	for i, s := range srvs {
		res, _, err := s.NewSession().Exec(sql)
		if err != nil {
			t.Fatalf("shard %d: %s: %v", i, sql, err)
		}
		out = append(out, fmt.Sprint(res.Rows))
	}
	return out
}

// TestReplicatedWritesApplyInOneOrder: two sessions on different home
// shards write one replicated row concurrently. Both report one row
// whatever order they run in, so only a single global order of
// replicated writes, and of the rollbacks that undo them, keeps the
// copies alike: the second session's write may not overtake the first
// session's statement on shard 1 while that is still on its way there.
func TestReplicatedWritesApplyInOneOrder(t *testing.T) {
	for _, tc := range []struct {
		name string
		a    []string // the first session's statements; the last is held on shard 1
	}{
		{"autocommit", []string{"UPDATE R SET V = 1"}},
		{"rollback", []string{"BEGIN TRANSACTION", "INSERT INTO R VALUES (2, 1)", "ROLLBACK"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s0, err := server.New(dialect.PG, nil)
			if err != nil {
				t.Fatal(err)
			}
			s1, err := server.New(dialect.PG, nil)
			if err != nil {
				t.Fatal(err)
			}
			held := tc.a[len(tc.a)-1]
			slow := &slowBackend{Server: s1, sql: held, arrived: make(chan struct{})}
			r, err := New(Config{}, s0, slow)
			if err != nil {
				t.Fatal(err)
			}
			a, b := r.NewSession(), r.NewSession()
			defer a.Close()
			defer b.Close()
			if a.home == b.home {
				t.Fatalf("sessions share home shard %d", a.home)
			}
			exec(t, a, "CREATE TABLE R (K INT, V INT)")
			exec(t, a, "INSERT INTO R VALUES (1, 0)")
			for _, q := range tc.a[:len(tc.a)-1] {
				exec(t, a, q)
			}
			done := make(chan error)
			go func() {
				_, _, err := a.Exec(held)
				done <- err
			}()
			<-slow.arrived // applied on shard 0, held before shard 1
			exec(t, b, "UPDATE R SET V = 2")
			if err := <-done; err != nil {
				t.Fatal(err)
			}
			if got := shardCopies(t, []*server.Server{s0, s1}, "SELECT V FROM R"); got[0] != got[1] {
				t.Fatalf("replicated copies diverged: shard 0 %s, shard 1 %s", got[0], got[1])
			}
			ra, rb := exec(t, a, "SELECT V FROM R"), exec(t, b, "SELECT V FROM R")
			if fmt.Sprint(ra.Rows) != fmt.Sprint(rb.Rows) {
				t.Fatalf("home shards answer differently: %v vs %v", ra.Rows, rb.Rows)
			}
		})
	}
}

// TestReplicatedReadsSeeBroadcastsWhole: a read of a replicated table
// sees a broadcast write on every shard or on none, so two sessions on
// different home shards, reading one after the other while the write is
// on its way, cannot see it undone again.
func TestReplicatedReadsSeeBroadcastsWhole(t *testing.T) {
	s0, err := server.New(dialect.PG, nil)
	if err != nil {
		t.Fatal(err)
	}
	s1, err := server.New(dialect.PG, nil)
	if err != nil {
		t.Fatal(err)
	}
	slow := &slowBackend{Server: s1, sql: "UPDATE R SET V = 1", arrived: make(chan struct{})}
	r, err := New(Config{}, s0, slow)
	if err != nil {
		t.Fatal(err)
	}
	w, r1, r0 := r.NewSession(), r.NewSession(), r.NewSession()
	if r0.home != 0 || r1.home != 1 {
		t.Fatalf("reader homes %d, %d", r0.home, r1.home)
	}
	exec(t, w, "CREATE TABLE R (K INT, V INT)")
	exec(t, w, "INSERT INTO R VALUES (1, 0)")
	done := make(chan error)
	go func() {
		_, _, err := w.Exec("UPDATE R SET V = 1")
		done <- err
	}()
	<-slow.arrived // applied on shard 0, held before shard 1
	first := exec(t, r0, "SELECT V FROM R").Rows[0][0].I
	second := exec(t, r1, "SELECT V FROM R").Rows[0][0].I
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if first > second {
		t.Fatalf("home shard 0 read %d, then home shard 1 read %d", first, second)
	}
}

// TestSequencesAdvanceOnEveryShard: a sequence is replicated like a
// table, so every statement that advances one — a SELECT calling
// NEXTVAL, a read of a view that calls it, an INSERT whose DEFAULT does
// — advances every shard's copy alike, whichever home shard the session
// has. Over a banded table such a statement is rejected, and so is a
// banded table whose DEFAULT would advance one on every write.
func TestSequencesAdvanceOnEveryShard(t *testing.T) {
	r, srvs := newServerRouter(t, Config{BandColumns: map[string]string{"T": "W", "TD": "W"}}, 2)
	a, b := r.NewSession(), r.NewSession()
	defer a.Close()
	defer b.Close()
	if a.home == b.home {
		t.Fatalf("sessions share home shard %d", a.home)
	}
	setupBanded(t, a, 2)
	for _, q := range []string{
		"CREATE SEQUENCE S",
		"CREATE VIEW SV AS SELECT NEXTVAL(S) AS N FROM R WHERE K = 1",
		"INSERT INTO R VALUES (1, 0)",
	} {
		exec(t, a, q)
	}
	var got []int64
	for _, q := range []struct {
		s   *Session
		sql string
	}{
		{a, "SELECT NEXTVAL(S) AS N"},
		{b, "SELECT NEXTVAL(S) AS N"},
		{a, "SELECT N FROM SV"},
		{b, "SELECT N FROM SV"},
	} {
		got = append(got, exec(t, q.s, q.sql).Rows[0][0].I)
	}
	if fmt.Sprint(got) != "[1 2 3 4]" {
		t.Fatalf("NEXTVAL from two home shards answered %v, want [1 2 3 4]", got)
	}
	exec(t, b, "INSERT INTO R VALUES (NEXTVAL(S), 9)")
	exec(t, a, "CREATE TABLE RD (A INT DEFAULT (NEXTVAL('S')), B INT)")
	exec(t, a, "INSERT INTO RD (B) VALUES (1)")
	for _, q := range []string{
		"INSERT INTO T VALUES (1, NEXTVAL(S))",
		"SELECT NEXTVAL(S) AS N FROM T WHERE W = 1",
		"CREATE TABLE TD (W INT, A INT DEFAULT (NEXTVAL('S')))",
		"CREATE TABLE TD (W INT, A INT DEFAULT (SELECT N FROM SV))",
	} {
		if _, _, err := a.Exec(q); err == nil || !strings.Contains(err.Error(), "advancing a sequence") {
			t.Errorf("%s: %v, want rejected", q, err)
		}
	}
	for _, q := range []string{"SELECT K FROM R ORDER BY K", "SELECT A FROM RD", "SELECT NEXTVAL(S) AS N"} {
		if got := shardCopies(t, srvs, q); got[0] != got[1] {
			t.Errorf("%s: shard 0 %s, shard 1 %s", q, got[0], got[1])
		}
	}
}

func TestBandFreeWriteBroadcastsAndSumsAffected(t *testing.T) {
	r, _ := newServerRouter(t, bandCfg(), 3)
	sess := r.NewSession()
	setupBanded(t, sess, 9)
	res := exec(t, sess, "UPDATE T SET A = A + 1")
	if res.Affected != 9 {
		t.Fatalf("band-free UPDATE affected %d, want 9", res.Affected)
	}
	res = exec(t, sess, "DELETE FROM T WHERE A > 100")
	if res.Affected != 0 {
		t.Fatalf("delete affected %d", res.Affected)
	}
}

func TestTransactionLazyJoinAndRollback(t *testing.T) {
	r, _ := newServerRouter(t, bandCfg(), 3)
	sess := r.NewSession()
	setupBanded(t, sess, 3)
	s := r.NewSession()
	defer s.Close()
	mustOK := func(sql string) *engine.Result {
		t.Helper()
		res, _, err := s.Exec(sql)
		if err != nil {
			t.Fatalf("%s: %v", sql, err)
		}
		return res
	}
	res := mustOK("BEGIN TRANSACTION")
	if res.Kind != engine.ResultDDL {
		t.Fatalf("BEGIN kind %v", res.Kind)
	}
	mustOK("INSERT INTO T VALUES (6, 60)") // shard 0
	mustOK("INSERT INTO T VALUES (7, 70)") // shard 1
	// Nested BEGIN surfaces the engine's own error from a joined shard.
	if _, _, err := s.Exec("BEGIN TRANSACTION"); err == nil ||
		!strings.Contains(err.Error(), "already in progress") {
		t.Fatalf("nested BEGIN: %v", err)
	}
	mustOK("ROLLBACK")
	// Both shards rolled back; another session sees neither row.
	if res := exec(t, sess, "SELECT COUNT(*) AS N FROM T WHERE A >= 60"); res.Rows[0][0].I != 0 {
		t.Fatalf("rollback left rows: %v", res.Rows)
	}
	// COMMIT path.
	mustOK("BEGIN TRANSACTION")
	mustOK("INSERT INTO T VALUES (6, 60)")
	mustOK("INSERT INTO T VALUES (7, 70)")
	mustOK("COMMIT")
	if res := exec(t, sess, "SELECT COUNT(*) AS N FROM T WHERE A >= 60"); res.Rows[0][0].I != 2 {
		t.Fatalf("commit lost rows: %v", res.Rows)
	}
	// COMMIT without a transaction forwards the engine's authentic error.
	if _, _, err := s.Exec("COMMIT"); err == nil {
		t.Fatal("COMMIT outside txn succeeded")
	}
}

func TestTransactionIsolationAcrossSessions(t *testing.T) {
	r, _ := newServerRouter(t, bandCfg(), 2)
	sess := r.NewSession()
	setupBanded(t, sess, 2)
	s1, s2 := r.NewSession(), r.NewSession()
	defer s1.Close()
	defer s2.Close()
	if _, _, err := s1.Exec("BEGIN TRANSACTION"); err != nil {
		t.Fatal(err)
	}
	if _, _, err := s1.Exec("INSERT INTO T VALUES (4, 40)"); err != nil {
		t.Fatal(err)
	}
	// s2 sees the committed state only.
	res, _, err := s2.Exec("SELECT COUNT(*) AS N FROM T")
	if err != nil || res.Rows[0][0].I != 2 {
		t.Fatalf("dirty read across sessions: %v %v", res, err)
	}
	if _, _, err := s1.Exec("COMMIT"); err != nil {
		t.Fatal(err)
	}
	res, _, err = s2.Exec("SELECT COUNT(*) AS N FROM T")
	if err != nil || res.Rows[0][0].I != 3 {
		t.Fatalf("after commit: %v %v", res, err)
	}
}

func TestPreparedRoutesByArguments(t *testing.T) {
	r, srvs := newServerRouter(t, bandCfg(), 3)
	sess := r.NewSession()
	setupBanded(t, sess, 0)
	ins, err := sess.Prepare("INSERT INTO T VALUES (?, ?)")
	if err != nil {
		t.Fatal(err)
	}
	defer ins.Close()
	for i := 0; i < 6; i++ {
		if _, _, err := ins.Exec(types.NewInt(int64(i)), types.NewInt(int64(i*10))); err != nil {
			t.Fatalf("insert %d: %v", i, err)
		}
	}
	for i, s := range srvs {
		res, _, err := s.NewSession().Exec("SELECT W FROM T")
		if err != nil || len(res.Rows) != 2 {
			t.Fatalf("shard %d: %v %v", i, res, err)
		}
	}
	sel, err := sess.Prepare("SELECT A FROM T WHERE W = ?")
	if err != nil {
		t.Fatal(err)
	}
	defer sel.Close()
	res, _, err := sel.Exec(types.NewInt(4))
	if err != nil || len(res.Rows) != 1 || res.Rows[0][0].I != 40 {
		t.Fatalf("prepared band read: %v %v", res, err)
	}
	// Wrong arity reports a bind error, like the engine.
	if _, _, err := sel.Exec(); err == nil {
		t.Fatal("arity mismatch accepted")
	}
}

func TestMultiRowInsertSpanningShardsRejected(t *testing.T) {
	r, _ := newServerRouter(t, bandCfg(), 2)
	sess := r.NewSession()
	setupBanded(t, sess, 0)
	if _, _, err := sess.Exec("INSERT INTO T VALUES (0, 1), (1, 2)"); err == nil ||
		!strings.Contains(err.Error(), "spans shards") {
		t.Fatalf("spanning insert: %v", err)
	}
	// Same-band multi-row inserts are fine.
	exec(t, sess, "INSERT INTO T VALUES (0, 1), (2, 2)")
}

func TestCountDistinctCrossShardRejected(t *testing.T) {
	// COUNT(DISTINCT x) / SUM(DISTINCT x) cannot be recombined by
	// summing per-shard results: the same value of a non-band column can
	// exist on several shards, so the sum over-counts. The router must
	// reject the scatter instead of returning a silently wrong count.
	r, _ := newServerRouter(t, bandCfg(), 3)
	sess := r.NewSession()
	setupBanded(t, sess, 0)
	exec(t, sess, "INSERT INTO T VALUES (0, 5)")
	exec(t, sess, "INSERT INTO T VALUES (1, 5)") // same A on another shard
	for _, q := range []string{
		"SELECT COUNT(DISTINCT A) AS N FROM T",
		"SELECT SUM(DISTINCT A) AS S FROM T",
	} {
		if _, _, err := sess.Exec(q); err == nil ||
			!strings.Contains(err.Error(), "not supported") {
			t.Fatalf("%s: %v", q, err)
		}
	}
	// Pinned to one shard the engine computes it normally.
	res := exec(t, sess, "SELECT COUNT(DISTINCT A) AS N FROM T WHERE W = 0")
	if res.Rows[0][0].I != 1 {
		t.Fatalf("single-shard COUNT(DISTINCT): %v", res.Rows)
	}
}

func TestUnionAggregateCrossShardRejected(t *testing.T) {
	// An aggregate inside any branch of a compound query yields one
	// local value per shard; merging the branches as a plain deduped row
	// set would keep up to N spurious rows. Reject instead.
	r, _ := newServerRouter(t, bandCfg(), 3)
	sess := r.NewSession()
	setupBanded(t, sess, 6)
	if _, _, err := sess.Exec("SELECT A FROM T UNION SELECT MAX(A) FROM T"); err == nil ||
		!strings.Contains(err.Error(), "not supported") {
		t.Fatalf("UNION with aggregate branch: %v", err)
	}
}

func TestBandedSubqueryMultiShardRejected(t *testing.T) {
	// A band-free statement that scatters or broadcasts must not carry a
	// subquery over a banded table: each shard would evaluate the
	// subquery against its local fragment only, so shards filter by
	// different values and the merged outcome is silently wrong.
	r, _ := newServerRouter(t, bandCfg(), 3)
	sess := r.NewSession()
	setupBanded(t, sess, 6)
	exec(t, sess, "CREATE VIEW TV AS SELECT A FROM T")
	for _, q := range []string{
		"SELECT A FROM T WHERE A > (SELECT MAX(A) FROM T)",
		"SELECT A FROM T WHERE A IN (SELECT A FROM TV)",
		"SELECT A FROM T WHERE A IN (SELECT A FROM T WHERE A > 40)",
		"UPDATE T SET A = 0 WHERE A > (SELECT MAX(A) FROM T)",
		"DELETE FROM T WHERE EXISTS (SELECT 1 FROM T WHERE A > 40)",
	} {
		if _, _, err := sess.Exec(q); err == nil ||
			!strings.Contains(err.Error(), "subquery over banded table") {
			t.Fatalf("%s: %v", q, err)
		}
	}
	// INSERT ... SELECT from a banded source into a replicated table
	// would feed each replica its local fragment only.
	if _, _, err := sess.Exec("INSERT INTO R SELECT W, A FROM T"); err == nil ||
		!strings.Contains(err.Error(), "banded table") {
		t.Fatalf("INSERT..SELECT into replicated: %v", err)
	}
	// A subquery over a replicated table is safe to scatter — every
	// shard evaluates it against the full data.
	exec(t, sess, "INSERT INTO R VALUES (1, 25)")
	res := exec(t, sess, "SELECT A FROM T WHERE A IN (SELECT V FROM R)")
	if len(res.Rows) != 0 {
		// A=25 does not exist; the point is the route is accepted.
		t.Fatalf("replicated subquery scatter: %v", res.Rows)
	}
	// Pinned to one shard the subquery runs where the band predicate put
	// the statement, which is what the caller asked for.
	res = exec(t, sess, "SELECT A FROM T WHERE W = 2 AND A IN (SELECT A FROM T WHERE W = 2)")
	if len(res.Rows) != 1 || res.Rows[0][0].I != 20 {
		t.Fatalf("pinned subquery: %v", res.Rows)
	}
}

// failCommitBackend injects one COMMIT failure into every session it has
// opened, leaving the backend transaction open — the scenario of a shard
// failing mid COMMIT fan-out.
type failCommitBackend struct {
	*server.Server
	fail bool
}

func (b *failCommitBackend) OpenSession() core.Session {
	return &failCommitSession{Session: b.Server.OpenSession(), b: b}
}

type failCommitSession struct {
	core.Session
	b *failCommitBackend
}

func (s *failCommitSession) Exec(sql string) (*engine.Result, time.Duration, error) {
	if s.b.fail && strings.EqualFold(strings.TrimSpace(sql), "COMMIT") {
		s.b.fail = false
		return nil, 0, fmt.Errorf("injected commit failure")
	}
	return s.Session.Exec(sql)
}

func TestFailedCommitDoesNotPoisonShardSession(t *testing.T) {
	// If one shard's COMMIT fails after the router has dropped its
	// transaction record, the backend session must not be left with the
	// transaction open — later autocommit-style statements would
	// silently execute inside it. The router issues a best-effort
	// ROLLBACK to the failed shard.
	s0, err := server.New(dialect.PG, nil)
	if err != nil {
		t.Fatal(err)
	}
	s1, err := server.New(dialect.PG, nil)
	if err != nil {
		t.Fatal(err)
	}
	fb := &failCommitBackend{Server: s1}
	r, err := New(bandCfg(), s0, fb)
	if err != nil {
		t.Fatal(err)
	}
	sess := r.NewSession()
	exec(t, sess, "CREATE TABLE T (W INT, A INT)")
	s := r.NewSession()
	defer s.Close()
	for _, q := range []string{
		"BEGIN TRANSACTION",
		"INSERT INTO T VALUES (0, 60)", // shard 0
		"INSERT INTO T VALUES (1, 70)", // shard 1
	} {
		if _, _, err := s.Exec(q); err != nil {
			t.Fatalf("%s: %v", q, err)
		}
	}
	fb.fail = true
	if _, _, err := s.Exec("COMMIT"); err == nil ||
		!strings.Contains(err.Error(), "shard 1") {
		t.Fatalf("COMMIT with failing shard: %v", err)
	}
	// The next statement on the session autocommits: it must be durable
	// and visible to other sessions, not swallowed by a stale open
	// transaction on shard 1's backend session.
	if _, _, err := s.Exec("INSERT INTO T VALUES (1, 99)"); err != nil {
		t.Fatal(err)
	}
	res := exec(t, sess, "SELECT A FROM T WHERE W = 1 ORDER BY A")
	if len(res.Rows) != 1 || res.Rows[0][0].I != 99 {
		// Row 70's transaction failed to commit and must be gone; row 99
		// autocommitted after it and must be present.
		t.Fatalf("shard 1 rows after failed COMMIT: %v", res.Rows)
	}
}

func TestQuarantinedReplicaInsideOneShardDuringCrossShardRead(t *testing.T) {
	// Edge case: a quarantined replica inside one shard must not poison
	// a scatter-gather read — that shard's remaining replicas adjudicate
	// its fragment, the other shards are untouched.
	newShard := func(faults []fault.Fault) *middleware.DiverseServer {
		t.Helper()
		var srvs []*server.Server
		for _, n := range []dialect.ServerName{dialect.PG, dialect.OR, dialect.MS} {
			s, err := server.New(n, faults)
			if err != nil {
				t.Fatal(err)
			}
			srvs = append(srvs, s)
		}
		cfg := middleware.DefaultConfig()
		cfg.AutoResync = false // keep the outvoted replica quarantined
		d, err := middleware.New(cfg, srvs...)
		if err != nil {
			t.Fatal(err)
		}
		return d
	}
	faulty := []fault.Fault{{
		BugID:   "wrong",
		Server:  dialect.PG,
		Trigger: fault.Trigger{Table: "T", Flag: ast.FlagSelect},
		Effect:  fault.Effect{Kind: fault.EffectMutateResult, Mutation: fault.MutOffByOne},
	}}
	shard0, shard1 := newShard(faulty), newShard(nil)
	r, err := New(bandCfg(), shard0, shard1)
	if err != nil {
		t.Fatal(err)
	}
	sess := r.NewSession()
	exec(t, sess, "CREATE TABLE T (W INT, A INT)")
	exec(t, sess, "INSERT INTO T VALUES (0, 10)")
	exec(t, sess, "INSERT INTO T VALUES (1, 20)")
	// Trigger the fault inside shard 0 until PG is outvoted into
	// quarantine, then run the cross-shard read of record.
	for i := 0; i < 3 && len(shard0.QuarantinedReplicas()) == 0; i++ {
		exec(t, sess, "SELECT A FROM T ORDER BY A")
	}
	if got := shard0.QuarantinedReplicas(); len(got) != 1 || got[0] != "PG" {
		t.Fatalf("shard0 quarantine: %v", got)
	}
	res := exec(t, sess, "SELECT A FROM T ORDER BY A")
	if len(res.Rows) != 2 || res.Rows[0][0].I != 10 || res.Rows[1][0].I != 20 {
		t.Fatalf("cross-shard read with quarantined replica: %v", res.Rows)
	}
	if m := shard1.Metrics(); m.MaskedFailures != 0 || m.DetectedSplits != 0 {
		t.Errorf("healthy shard saw divergence: %+v", m)
	}
	// Introspection reflects the quarantine.
	sts := r.Status()
	if len(sts[0].Quarantined) != 1 || len(sts[1].Quarantined) != 0 {
		t.Errorf("Status quarantine: %+v", sts)
	}
	if txt := r.DescribeText(); !strings.Contains(txt, "PG (quarantined)") {
		t.Errorf("DescribeText: %q", txt)
	}
}

func TestShardLabeledCollectorsDoNotCollide(t *testing.T) {
	// Satellite: two shards' middleware families (for example
	// divsql_middleware_last_resync_seq) carry no distinguishing labels
	// of their own; the router must shard-qualify them so one registry
	// renders both without collision.
	newShard := func() *middleware.DiverseServer {
		t.Helper()
		var srvs []*server.Server
		for _, n := range []dialect.ServerName{dialect.PG, dialect.OR} {
			s, err := server.New(n, nil)
			if err != nil {
				t.Fatal(err)
			}
			srvs = append(srvs, s)
		}
		d, err := middleware.New(middleware.DefaultConfig(), srvs...)
		if err != nil {
			t.Fatal(err)
		}
		return d
	}
	r, err := New(Config{}, newShard(), newShard())
	if err != nil {
		t.Fatal(err)
	}
	sess := r.NewSession()
	exec(t, sess, "CREATE TABLE A_T (A INT)")
	exec(t, sess, "INSERT INTO A_T VALUES (1)")
	reg := obs.NewRegistry()
	reg.Register(r.MetricsCollectors()...)
	out := reg.Render()
	for _, want := range []string{
		`divsql_middleware_last_resync_seq{shard="shard0"}`,
		`divsql_middleware_last_resync_seq{shard="shard1"}`,
		`divsql_middleware_replica_quarantined{replica="PG",shard="shard0"}`,
		`divsql_middleware_replica_quarantined{replica="PG",shard="shard1"}`,
		`divsql_shard_statements_total`,
		`divsql_shard_routed_statements_total{shard="shard0"}`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %s", want)
		}
	}
	if n := strings.Count(out, "# TYPE divsql_middleware_last_resync_seq"); n != 1 {
		t.Errorf("family header repeated %d times", n)
	}
}

func TestRoutedStatementsCounterCovers(t *testing.T) {
	r, _ := newServerRouter(t, bandCfg(), 2)
	sess := r.NewSession()
	setupBanded(t, sess, 4)
	m := &r.metrics
	if m.statements.Load() == 0 || m.single.Load() == 0 || m.broadcast.Load() == 0 {
		t.Fatalf("counters: statements=%d single=%d broadcast=%d",
			m.statements.Load(), m.single.Load(), m.broadcast.Load())
	}
	before := m.scatter.Load()
	exec(t, sess, "SELECT COUNT(*) AS N FROM T")
	if m.scatter.Load() != before+1 {
		t.Errorf("scatter counter did not advance")
	}
	if _, _, err := sess.Exec("INSERT INTO T VALUES (0, 1), (1, 2)"); err == nil {
		t.Fatal("expected rejection")
	}
	if m.rejected.Load() == 0 {
		t.Errorf("rejected counter did not advance")
	}
}
