package middleware

import (
	"errors"
	"strings"
	"testing"

	"divsql/internal/dialect"
	"divsql/internal/fault"
	"divsql/internal/server"
	"divsql/internal/sql/ast"
)

func newServers(t *testing.T, faults []fault.Fault, names ...dialect.ServerName) []*server.Server {
	t.Helper()
	out := make([]*server.Server, 0, len(names))
	for _, n := range names {
		s, err := server.New(n, faults)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, s)
	}
	return out
}

func newDiverse(t *testing.T, faults []fault.Fault, names ...dialect.ServerName) *DiverseServer {
	t.Helper()
	d, err := New(DefaultConfig(), newServers(t, faults, names...)...)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func mustExec(t *testing.T, s *Session, sql string) {
	t.Helper()
	if _, _, err := s.Exec(sql); err != nil {
		t.Fatalf("exec %q: %v", sql, err)
	}
}

// mustPrepare prepares sql and returns the statement by its concrete
// type, for tests that look inside it.
func mustPrepare(t *testing.T, s *Session, sql string) *Stmt {
	t.Helper()
	st, err := s.Prepare(sql)
	if err != nil {
		t.Fatalf("prepare %q: %v", sql, err)
	}
	return st.(*Stmt)
}

func TestNewRequiresReplicas(t *testing.T) {
	if _, err := New(DefaultConfig()); !errors.Is(err, ErrNoReplicas) {
		t.Errorf("got %v", err)
	}
}

func TestUnanimousPath(t *testing.T) {
	d := newDiverse(t, nil, dialect.PG, dialect.OR, dialect.MS)
	sess := d.NewSession()
	mustExec(t, sess, "CREATE TABLE T (A INT)")
	mustExec(t, sess, "INSERT INTO T VALUES (1)")
	res, _, err := sess.Exec("SELECT A FROM T")
	if err != nil || res.Rows[0][0].I != 1 {
		t.Fatalf("select: %v %v", res, err)
	}
	m := d.Metrics()
	if m.Unanimous != 3 || m.MaskedFailures != 0 {
		t.Errorf("metrics: %+v", m)
	}
}

func TestMajorityMasksWrongResult(t *testing.T) {
	faults := []fault.Fault{{
		BugID:   "wrong",
		Server:  dialect.PG,
		Trigger: fault.Trigger{Table: "T", Flag: ast.FlagSelect},
		Effect:  fault.Effect{Kind: fault.EffectMutateResult, Mutation: fault.MutOffByOne},
	}}
	d := newDiverse(t, faults, dialect.PG, dialect.OR, dialect.MS)
	sess := d.NewSession()
	mustExec(t, sess, "CREATE TABLE T (A INT)")
	mustExec(t, sess, "INSERT INTO T VALUES (10)")
	res, _, err := sess.Exec("SELECT A FROM T")
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows[0][0].I != 10 {
		t.Errorf("client saw the wrong value %v", res.Rows[0][0])
	}
	m := d.Metrics()
	if m.MaskedFailures == 0 {
		t.Errorf("masking not recorded: %+v", m)
	}
	// The outvoted replica rejoins at the next statement (resync never
	// interleaves with in-flight reads on the shared path).
	mustExec(t, sess, "INSERT INTO T VALUES (20)")
	if m := d.Metrics(); m.Resyncs == 0 {
		t.Errorf("outvoted replica not resynced: %+v", m)
	}
	// After resync the faulty replica is back in agreement for
	// non-triggering statements.
	res, _, err = sess.Exec("SELECT A + 1 AS B FROM T WHERE A = 10")
	if err != nil || res.Rows[0][0].I != 11 {
		t.Errorf("after resync: %v %v", res, err)
	}
}

func TestPairDetectsWithoutMasking(t *testing.T) {
	faults := []fault.Fault{{
		BugID:   "wrong",
		Server:  dialect.PG,
		Trigger: fault.Trigger{Table: "T", Flag: ast.FlagSelect},
		Effect:  fault.Effect{Kind: fault.EffectMutateResult, Mutation: fault.MutOffByOne},
	}}
	d, err := New(DefaultConfig(), newServers(t, faults, dialect.PG, dialect.OR)...)
	if err != nil {
		t.Fatal(err)
	}
	sess := d.NewSession()
	mustExec(t, sess, "CREATE TABLE T (A INT)")
	mustExec(t, sess, "INSERT INTO T VALUES (5)")
	_, _, err = sess.Exec("SELECT A FROM T")
	var div *DivergenceError
	if !errors.As(err, &div) {
		t.Fatalf("want divergence, got %v", err)
	}
	if d.Metrics().DetectedSplits != 1 {
		t.Errorf("metrics: %+v", d.Metrics())
	}
}

// TestOrderOnlyDivergenceDetected: the replicas return the same rows in
// different orders for an ORDER BY over MOD of negative numbers (each
// product's MOD sign rule). The client asked for an order, so that is a
// divergence: the PG+OR+MS triple (three orders, no majority) and the
// PG+MS pair must both report a split, not a unanimous answer.
func TestOrderOnlyDivergenceDetected(t *testing.T) {
	for _, names := range [][]dialect.ServerName{
		{dialect.PG, dialect.OR, dialect.MS},
		{dialect.PG, dialect.MS},
	} {
		d := newDiverse(t, nil, names...)
		sess := d.NewSession()
		mustExec(t, sess, "CREATE TABLE T (A INT)")
		mustExec(t, sess, "INSERT INTO T VALUES (-4), (-2), (1), (3)")
		if _, _, err := sess.Exec("SELECT A FROM T WHERE A > 0 ORDER BY A"); err != nil {
			t.Fatalf("%v: an order the replicas agree on: %v", names, err)
		}
		_, _, err := sess.Exec("SELECT A FROM T ORDER BY MOD(A, 3)")
		var div *DivergenceError
		if !errors.As(err, &div) {
			t.Errorf("%v: want a divergence, got %v", names, err)
		}
		if m := d.Metrics(); m.DetectedSplits != 1 || m.Unanimous != m.Statements-1 {
			t.Errorf("%v: metrics %+v", names, m)
		}
		sess.Close()
	}
}

func TestCrashRecovery(t *testing.T) {
	faults := []fault.Fault{{
		BugID:   "crash",
		Server:  dialect.OR,
		Trigger: fault.Trigger{Table: "T", Flag: ast.FlagGroupBy},
		Effect:  fault.Effect{Kind: fault.EffectCrash},
	}}
	d := newDiverse(t, faults, dialect.PG, dialect.OR, dialect.MS)
	sess := d.NewSession()
	mustExec(t, sess, "CREATE TABLE T (A INT)")
	mustExec(t, sess, "INSERT INTO T VALUES (1)")
	mustExec(t, sess, "INSERT INTO T VALUES (2)")
	// Crashes OR; the other two answer.
	res, _, err := sess.Exec("SELECT A, COUNT(*) AS N FROM T GROUP BY A")
	if err != nil || len(res.Rows) != 2 {
		t.Fatalf("grouped select: %v %v", res, err)
	}
	if m := d.Metrics(); m.CrashesDetected != 1 {
		t.Errorf("metrics: %+v", m)
	}
	// The crashed replica is restarted and quarantined; it rejoins at the
	// start of the next statement, when the exclusive statement lock
	// guarantees nothing is in flight on any replica.
	if len(d.QuarantinedReplicas()) != 1 {
		t.Fatalf("quarantined: %v", d.QuarantinedReplicas())
	}
	mustExec(t, sess, "INSERT INTO T VALUES (3)")
	if m := d.Metrics(); m.Resyncs == 0 {
		t.Errorf("metrics after rejoin write: %+v", m)
	}
	if len(d.QuarantinedReplicas()) != 0 {
		t.Errorf("quarantined: %v", d.QuarantinedReplicas())
	}
	// The restarted replica serves again, in full agreement.
	res, _, err = sess.Exec("SELECT A FROM T ORDER BY A")
	if err != nil || len(res.Rows) != 3 {
		t.Fatalf("after recovery: %v %v", res, err)
	}
}

func TestErrorMajorityWins(t *testing.T) {
	// One replica silently accepts an invalid statement (Other-NSE
	// class); the majority's error is the adjudicated outcome.
	faults := []fault.Fault{{
		BugID:   "accept",
		Server:  dialect.PG,
		Trigger: fault.Trigger{Table: "T", Flag: ast.FlagInsert},
		Effect:  fault.Effect{Kind: fault.EffectSuppressError},
	}}
	d := newDiverse(t, faults, dialect.PG, dialect.OR, dialect.MS)
	sess := d.NewSession()
	mustExec(t, sess, "CREATE TABLE T (A INT PRIMARY KEY)")
	mustExec(t, sess, "INSERT INTO T VALUES (1)")
	// Duplicate key: OR and MS error (correctly); PG wrongly accepts.
	_, _, err := sess.Exec("INSERT INTO T VALUES (1)")
	if err == nil || !strings.Contains(err.Error(), "constraint") {
		t.Fatalf("majority error must win: %v", err)
	}
	if d.Metrics().MaskedFailures == 0 {
		t.Errorf("acceptance failure not masked: %+v", d.Metrics())
	}
}

func TestLegitimateErrorsPassThrough(t *testing.T) {
	d := newDiverse(t, nil, dialect.PG, dialect.OR, dialect.MS)
	sess := d.NewSession()
	mustExec(t, sess, "CREATE TABLE T (A INT)")
	if _, _, err := sess.Exec("SELECT NOPE FROM T"); err == nil {
		t.Error("unknown column must error")
	}
	if _, _, err := sess.Exec("INSERT INTO MISSING VALUES (1)"); err == nil {
		t.Error("missing table must error")
	}
	m := d.Metrics()
	if m.MaskedFailures != 0 || m.DetectedSplits != 0 {
		t.Errorf("legitimate errors misclassified: %+v", m)
	}
}

// Resync no longer waits for a transaction boundary: a replica
// quarantined while the donor sits mid-transaction rejoins on the very
// next statement, fed a committed snapshot plus the open transaction's
// redo journal.
func TestResyncCompletesInsideOpenTransaction(t *testing.T) {
	faults := []fault.Fault{{
		BugID:   "err",
		Server:  dialect.MS,
		Trigger: fault.Trigger{Table: "T", Flag: ast.FlagUpdate},
		Effect:  fault.Effect{Kind: fault.EffectError, Message: "spurious"},
	}}
	d := newDiverse(t, faults, dialect.PG, dialect.OR, dialect.MS)
	sess := d.NewSession()
	mustExec(t, sess, "CREATE TABLE T (A INT)")
	mustExec(t, sess, "INSERT INTO T VALUES (1)")
	mustExec(t, sess, "BEGIN TRANSACTION")
	// MS errors inside the transaction and is quarantined.
	mustExec(t, sess, "UPDATE T SET A = 2")
	if len(d.QuarantinedReplicas()) != 1 {
		t.Fatalf("quarantined: %v", d.QuarantinedReplicas())
	}
	// The next write rejoins MS while the transaction is STILL OPEN on
	// the donors: committed snapshot + journal redo, no boundary wait.
	mustExec(t, sess, "INSERT INTO T VALUES (5)")
	m := d.Metrics()
	if m.Resyncs == 0 {
		t.Fatalf("no resync inside open transaction: %+v", m)
	}
	if m.JournalReplays == 0 {
		t.Errorf("open-transaction redo not shipped: %+v", m)
	}
	mustExec(t, sess, "ROLLBACK")
	// Rolled back everywhere: all replicas agree on A = 1 and the insert
	// of 5 is gone.
	res, _, err := sess.Exec("SELECT A FROM T")
	if err != nil || len(res.Rows) != 1 || res.Rows[0][0].I != 1 {
		t.Fatalf("after rollback: %v %v", res, err)
	}
	if len(d.QuarantinedReplicas()) != 0 {
		t.Errorf("replica not reinstated: %v", d.QuarantinedReplicas())
	}
}

func TestAllReplicasDown(t *testing.T) {
	faults := []fault.Fault{
		{BugID: "c1", Server: dialect.PG, Trigger: fault.Trigger{Table: "T", Flag: ast.FlagSelect},
			Effect: fault.Effect{Kind: fault.EffectCrash}},
		{BugID: "c2", Server: dialect.OR, Trigger: fault.Trigger{Table: "T", Flag: ast.FlagSelect},
			Effect: fault.Effect{Kind: fault.EffectCrash}},
	}
	cfg := DefaultConfig()
	cfg.AutoResync = false
	d, err := New(cfg, newServers(t, faults, dialect.PG, dialect.OR)...)
	if err != nil {
		t.Fatal(err)
	}
	sess := d.NewSession()
	mustExec(t, sess, "CREATE TABLE T (A INT)")
	if _, _, err := sess.Exec("SELECT A FROM T"); err == nil {
		t.Error("want failure when every replica crashes")
	}
}

func TestReplicaNames(t *testing.T) {
	d := newDiverse(t, nil, dialect.IB, dialect.MS)
	names := d.ReplicaNames()
	if len(names) != 2 || names[0] != "IB" || names[1] != "MS" {
		t.Errorf("names: %v", names)
	}
}

func TestReadOnePolicySkipsComparison(t *testing.T) {
	faults := []fault.Fault{{
		BugID:   "wrong",
		Server:  dialect.PG,
		Trigger: fault.Trigger{Table: "T", Flag: ast.FlagSelect},
		Effect:  fault.Effect{Kind: fault.EffectMutateResult, Mutation: fault.MutOffByOne},
	}}
	cfg := DefaultConfig()
	cfg.Reads = ReadOne
	d, err := New(cfg, newServers(t, faults, dialect.PG, dialect.OR)...)
	if err != nil {
		t.Fatal(err)
	}
	sess := d.NewSession()
	mustExec(t, sess, "CREATE TABLE T (A INT)")
	mustExec(t, sess, "INSERT INTO T VALUES (5)")
	// Reads rotate across replicas without comparison: over several
	// queries both the correct (OR) and the wrong (PG) value surface —
	// the dependability cost of the performance end of the dial.
	sawWrong, sawRight := false, false
	for i := 0; i < 6; i++ {
		res, _, err := sess.Exec("SELECT A FROM T")
		if err != nil {
			t.Fatal(err)
		}
		switch res.Rows[0][0].I {
		case 5:
			sawRight = true
		case 6:
			sawWrong = true
		}
	}
	if !sawRight || !sawWrong {
		t.Errorf("read-one rotation: right=%v wrong=%v", sawRight, sawWrong)
	}
	if d.Metrics().DetectedSplits != 0 {
		t.Error("read-one must not compare")
	}
}

func TestReadOneFailsOverOnCrash(t *testing.T) {
	faults := []fault.Fault{{
		BugID:   "crash",
		Server:  dialect.PG,
		Trigger: fault.Trigger{Table: "T", Flag: ast.FlagSelect},
		Effect:  fault.Effect{Kind: fault.EffectCrash},
	}}
	cfg := DefaultConfig()
	cfg.Reads = ReadOne
	d, err := New(cfg, newServers(t, faults, dialect.PG, dialect.OR)...)
	if err != nil {
		t.Fatal(err)
	}
	sess := d.NewSession()
	mustExec(t, sess, "CREATE TABLE T (A INT)")
	mustExec(t, sess, "INSERT INTO T VALUES (1)")
	for i := 0; i < 4; i++ {
		res, _, err := sess.Exec("SELECT A FROM T")
		if err != nil || res.Rows[0][0].I != 1 {
			t.Fatalf("read %d: %v %v", i, res, err)
		}
	}
	if d.Metrics().CrashesDetected == 0 {
		t.Error("crash failover not recorded")
	}
}

// A ReadOne read that crashes a replica has rolled back every session's
// open transaction there (the crash aborts them all): the replica must be
// quarantined and rejoin with the sibling's journal replayed, not stay in
// service out of step and later leak that transaction's uncommitted rows
// to reads it serves alone.
func TestReadOneCrashResyncsReplica(t *testing.T) {
	faults := []fault.Fault{{
		BugID:   "crash",
		Server:  dialect.OR,
		Trigger: fault.Trigger{Table: "P", Flag: ast.FlagSelect},
		Effect:  fault.Effect{Kind: fault.EffectCrash},
	}}
	cfg := DefaultConfig()
	cfg.Reads = ReadOne
	servers := newServers(t, faults, dialect.PG, dialect.OR, dialect.MS)
	d, err := New(cfg, servers...)
	if err != nil {
		t.Fatal(err)
	}
	a, b := d.NewSession(), d.NewSession()
	defer a.Close()
	defer b.Close()
	mustExec(t, a, "CREATE TABLE T (A INT)")
	mustExec(t, a, "CREATE TABLE P (A INT)")
	mustExec(t, b, "BEGIN TRANSACTION")
	mustExec(t, b, "INSERT INTO T VALUES (1)")
	for i := 0; i < 6; i++ {
		mustExec(t, a, "SELECT A FROM P") // crashes OR when the rotation picks it
	}
	if m := d.Metrics(); m.CrashesDetected == 0 {
		t.Fatalf("the rotation never reached OR: %+v", m)
	}
	// On an OR left in service this write autocommits (its transaction
	// was rolled back) and is unanimous all the same.
	mustExec(t, b, "INSERT INTO T VALUES (2)")
	counts := map[int64]int{}
	for i := 0; i < 9; i++ {
		res, _, err := a.Exec("SELECT COUNT(*) AS N FROM T")
		if err != nil {
			t.Fatal(err)
		}
		counts[res.Rows[0][0].I]++
	}
	if counts[0] != 9 {
		t.Errorf("reads of T's committed rows answered %v, want {0: 9}", counts)
	}
	// Each crash is contained by one rejoin replaying b's BEGIN + INSERT.
	if m := d.Metrics(); m.Resyncs != m.CrashesDetected || m.JournalReplays != 2*m.Resyncs {
		t.Errorf("OR not resynced with b's transaction replayed: %+v", m)
	}
	mustExec(t, b, "COMMIT")
	if q := d.QuarantinedReplicas(); len(q) != 0 {
		t.Errorf("quarantined after COMMIT: %v", q)
	}
	sameImages(t, servers)
}

func TestReadOneBroadcastsInsideTransactions(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Reads = ReadOne
	d, err := New(cfg, newServers(t, nil, dialect.PG, dialect.OR)...)
	if err != nil {
		t.Fatal(err)
	}
	sess := d.NewSession()
	mustExec(t, sess, "CREATE TABLE T (A INT)")
	mustExec(t, sess, "BEGIN TRANSACTION")
	mustExec(t, sess, "INSERT INTO T VALUES (9)")
	// Inside the transaction the query must see the uncommitted write on
	// EVERY replica, so it is broadcast rather than read-one.
	res, _, err := sess.Exec("SELECT A FROM T")
	if err != nil || len(res.Rows) != 1 || res.Rows[0][0].I != 9 {
		t.Fatalf("txn read: %v %v", res, err)
	}
	mustExec(t, sess, "COMMIT")
}
