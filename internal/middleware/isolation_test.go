package middleware

import (
	"testing"

	"divsql/internal/dialect"
	"divsql/internal/fault"
	"divsql/internal/sql/ast"
)

// A session's isolation level must survive journal-replay resync: the
// rebuilt per-client sessions on a rejoined replica replay the
// session's SET TRANSACTION before its journal, so a snapshot-level
// transaction opened after the rejoin pins its read view on every
// replica — including the rebuilt one. If the level were lost, the
// rebuilt replica would run READ COMMITTED, see concurrent commits the
// others hide, and diverge on the re-read. SERIALIZABLE is the one
// snapshot-semantics spelling every dialect in the replica set accepts.
func TestResyncPreservesSessionIsolationLevel(t *testing.T) {
	faults := []fault.Fault{{
		BugID:   "poison",
		Server:  dialect.OR,
		Trigger: fault.Trigger{Table: "POISON", Flag: ast.FlagInsert},
		Effect:  fault.Effect{Kind: fault.EffectError, Message: "spurious internal failure"},
	}}
	d := newDiverse(t, faults, dialect.PG, dialect.OR, dialect.IB)
	sess := d.NewSession()
	mustExec(t, sess, "CREATE TABLE POISON (A INT)")
	mustExec(t, sess, "CREATE TABLE CLEAN (A INT)")
	mustExec(t, sess, "CREATE TABLE T (A INT)")
	for i := 1; i <= 3; i++ {
		mustExec(t, sess, "INSERT INTO T VALUES (1)")
	}

	// The session declares its level before the fault trips; the
	// middleware records it for replay into rebuilt sessions.
	s := d.NewSession()
	defer s.Close()
	if _, _, err := s.Exec("SET TRANSACTION ISOLATION LEVEL SERIALIZABLE"); err != nil {
		t.Fatalf("set isolation: %v", err)
	}

	// Quarantine OR, then rejoin it via the next clean write. The
	// rebuilt sessions are re-established from committed snapshot plus
	// journal redo, prefixed by each session's recorded SET TRANSACTION.
	mustExec(t, sess, "INSERT INTO POISON VALUES (1)")
	if len(d.QuarantinedReplicas()) != 1 {
		t.Fatalf("quarantined: %v", d.QuarantinedReplicas())
	}
	mustExec(t, sess, "INSERT INTO CLEAN VALUES (1)")
	if len(d.QuarantinedReplicas()) != 0 {
		t.Fatalf("replica did not rejoin: %v", d.QuarantinedReplicas())
	}
	if d.Metrics().Resyncs == 0 {
		t.Fatalf("no resync completed: %+v", d.Metrics())
	}

	// Snapshot level on the resynced session: the first read pins the
	// view; a concurrent commit must stay invisible on every replica.
	if _, _, err := s.Exec("BEGIN TRANSACTION"); err != nil {
		t.Fatalf("begin: %v", err)
	}
	res, _, err := s.Exec("SELECT COUNT(*) AS N FROM T")
	if err != nil {
		t.Fatalf("first read: %v", err)
	}
	first := res.Rows[0][0].I
	if first != 3 {
		t.Fatalf("first read: %d rows, want 3", first)
	}
	mustExec(t, sess, "INSERT INTO T VALUES (99)") // commits on all replicas

	res, _, err = s.Exec("SELECT COUNT(*) AS N FROM T")
	if err != nil {
		t.Fatalf("re-read: %v", err)
	}
	if res.Rows[0][0].I != first {
		t.Fatalf("re-read saw %d rows inside snapshot transaction, want %d", res.Rows[0][0].I, first)
	}
	// A replica that lost the level would have answered with 4 and been
	// outvoted back into quarantine.
	if len(d.QuarantinedReplicas()) != 0 {
		t.Fatalf("re-read diverged on a replica: %v", d.QuarantinedReplicas())
	}
	if m := d.Metrics(); m.DetectedSplits != 0 {
		t.Fatalf("splits during isolated re-read: %+v", m)
	}

	// Ending the transaction surfaces the concurrent commit.
	if _, _, err := s.Exec("COMMIT"); err != nil {
		t.Fatalf("commit: %v", err)
	}
	res, _, err = s.Exec("SELECT COUNT(*) AS N FROM T")
	if err != nil {
		t.Fatalf("post-commit read: %v", err)
	}
	if res.Rows[0][0].I != first+1 {
		t.Fatalf("post-commit read: %d rows, want %d", res.Rows[0][0].I, first+1)
	}
}
