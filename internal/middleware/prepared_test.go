package middleware

import (
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"divsql/internal/dialect"
	"divsql/internal/fault"
	"divsql/internal/sql/ast"
	"divsql/internal/sql/types"
)

func TestPreparedAdjudicatedAgreement(t *testing.T) {
	d := newDiverse(t, nil, dialect.PG, dialect.OR, dialect.MS)
	sess := d.NewSession()
	defer sess.Close()
	mustExec(t, sess, "CREATE TABLE T (A INT, S VARCHAR(10))")
	ins, err := sess.Prepare("INSERT INTO T VALUES (?, ?)")
	if err != nil {
		t.Fatal(err)
	}
	for i := int64(1); i <= 3; i++ {
		if _, _, err := ins.Exec(types.NewInt(i), types.NewString("v")); err != nil {
			t.Fatal(err)
		}
	}
	sel, err := sess.Prepare("SELECT A FROM T WHERE A >= $1 ORDER BY A")
	if err != nil {
		t.Fatal(err)
	}
	res, _, err := sel.Exec(types.NewInt(2))
	if err != nil || len(res.Rows) != 2 || res.Rows[0][0].I != 2 {
		t.Fatalf("bound select: %+v %v", res, err)
	}
	if m := d.Metrics(); m.Unanimous == 0 {
		t.Errorf("prepared executions must be adjudicated: %+v", m)
	}
}

func TestPreparedBindCoercionIsAdjudicated(t *testing.T) {
	// OR binds '' as NULL; PG and IB store the empty string. In a triple
	// the majority outvotes OR and the divergence is masked, exactly like
	// any wrong-result failure.
	d := newDiverse(t, nil, dialect.PG, dialect.IB, dialect.OR)
	sess := d.NewSession()
	defer sess.Close()
	mustExec(t, sess, "CREATE TABLE T (S VARCHAR(10))")
	ins, err := sess.Prepare("INSERT INTO T VALUES ($1)")
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := ins.Exec(types.NewString("")); err != nil {
		t.Fatal(err)
	}
	res, _, err := sess.Exec("SELECT S FROM T WHERE S IS NULL")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 0 {
		t.Errorf("majority stores '', so IS NULL must match nothing: %+v", res)
	}
	if m := d.Metrics(); m.MaskedFailures+m.DetectedSplits == 0 {
		t.Errorf("OR's bind coercion must surface in adjudication: %+v", m)
	}
}

func TestPreparedJournalReplayOnResync(t *testing.T) {
	// A replica quarantined while a session's transaction is open must
	// receive the bound writes of that transaction as journal redo —
	// through the prepare/bind path, not text interpolation.
	faults := []fault.Fault{{
		BugID:   "poison",
		Server:  dialect.OR,
		Trigger: fault.Trigger{Table: "POISON", Flag: ast.FlagInsert},
		Effect:  fault.Effect{Kind: fault.EffectError, Message: "spurious internal failure"},
	}}
	d := newDiverse(t, faults, dialect.PG, dialect.OR, dialect.IB)
	sess := d.NewSession()
	mustExec(t, sess, "CREATE TABLE POISON (A INT)")
	mustExec(t, sess, "CREATE TABLE H (A INT, S VARCHAR(10))")

	holder := d.NewSession()
	defer holder.Close()
	if _, _, err := holder.Exec("BEGIN TRANSACTION"); err != nil {
		t.Fatal(err)
	}
	ins, err := holder.Prepare("INSERT INTO H VALUES ($1, $2)")
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := ins.Exec(types.NewInt(1), types.NewString("bound")); err != nil {
		t.Fatal(err)
	}

	// Quarantine OR, then trigger the rejoin with a clean write. The
	// journal replay must re-establish holder's open transaction —
	// including the bound insert — on OR.
	mustExec(t, sess, "INSERT INTO POISON VALUES (1)")
	if len(d.QuarantinedReplicas()) != 1 {
		t.Fatalf("quarantined: %v", d.QuarantinedReplicas())
	}
	mustExec(t, sess, "INSERT INTO POISON VALUES (2)") // PG/IB apply; OR rejoins first
	if m := d.Metrics(); m.Resyncs == 0 || m.JournalReplays == 0 {
		t.Fatalf("metrics: %+v", m)
	}
	if _, _, err := holder.Exec("COMMIT"); err != nil {
		t.Fatal(err)
	}
	res, _, err := sess.Exec("SELECT S FROM H WHERE A = 1")
	if err != nil || len(res.Rows) != 1 || res.Rows[0][0].S != "bound" {
		t.Fatalf("replayed transaction: %+v %v", res, err)
	}
}

func TestPreparedDialectRejectionVotes(t *testing.T) {
	// MS has no sequences: its prepare fails, and on execution its error
	// votes against the replicas that accepted the statement.
	d := newDiverse(t, nil, dialect.PG, dialect.OR, dialect.MS)
	sess := d.NewSession()
	defer sess.Close()
	ps, err := sess.Prepare("CREATE SEQUENCE SQ1")
	if err != nil {
		t.Fatal(err) // two of three accepted: prepare succeeds
	}
	if _, _, err := ps.Exec(); err != nil {
		t.Fatalf("majority accepted the statement: %v", err)
	}
	if m := d.Metrics(); m.ReplicaErrors == 0 {
		t.Errorf("MS's rejection must be outvoted and counted: %+v", m)
	}
}

func TestIdleRejoinUnderReadOnlyLoad(t *testing.T) {
	// Acceptance for the ROADMAP item: a replica quarantined under a
	// sustained read-only workload rejoins without any write statement —
	// the idle-time poller grabs the statement lock between reads.
	faults := []fault.Fault{{
		BugID:   "wrongread",
		Server:  dialect.OR,
		Trigger: fault.Trigger{Table: "T", Flag: ast.FlagGroupBy},
		Effect:  fault.Effect{Kind: fault.EffectMutateResult, Mutation: fault.MutOffByOne},
	}}
	cfg := DefaultConfig()
	cfg.Rephrase = false
	d, err := New(cfg, newServers(t, faults, dialect.PG, dialect.IB, dialect.OR)...)
	if err != nil {
		t.Fatal(err)
	}
	sess := d.NewSession()
	mustExec(t, sess, "CREATE TABLE T (A INT)")
	mustExec(t, sess, "INSERT INTO T VALUES (5)")

	// OR returns a wrong (mutated) result on the grouped read, is
	// outvoted and quarantined.
	if _, _, err := sess.Exec("SELECT A, COUNT(*) AS N FROM T GROUP BY A"); err != nil {
		t.Fatal(err)
	}
	if len(d.QuarantinedReplicas()) != 1 {
		t.Fatalf("quarantined: %v", d.QuarantinedReplicas())
	}

	// Sustained read-only load only; no writes ever. The quarantine
	// window must still close.
	deadline := time.Now().Add(5 * time.Second)
	for len(d.QuarantinedReplicas()) > 0 && time.Now().Before(deadline) {
		if _, _, err := sess.Exec("SELECT A FROM T"); err != nil {
			t.Fatal(err)
		}
	}
	if q := d.QuarantinedReplicas(); len(q) != 0 {
		t.Fatalf("replica still quarantined after read-only window: %v", q)
	}
	m := d.Metrics()
	if m.IdleRejoins == 0 || m.Resyncs == 0 {
		t.Errorf("rejoin must be attributed to the idle path: %+v", m)
	}
	// The rejoined replica serves agreeing reads again.
	res, _, err := sess.Exec("SELECT A, COUNT(*) AS N FROM T GROUP BY A")
	if err != nil || len(res.Rows) != 1 {
		t.Fatalf("post-rejoin read: %+v %v", res, err)
	}
}

// Prepare on one session must not race resync journal replay triggered
// by another session's writes: the replay (exclusive statement lock)
// prepares bound journal entries into the first session's per-replica
// sessions, whose plan caches are unlocked single-client state. Run
// under -race; before PrepareStmt shared the statement lock this was a
// concurrent map write.
func TestPrepareDoesNotRaceJournalReplay(t *testing.T) {
	faults := []fault.Fault{{
		BugID:   "poison",
		Server:  dialect.OR,
		Trigger: fault.Trigger{Table: "POISON", Flag: ast.FlagInsert},
		Effect:  fault.Effect{Kind: fault.EffectError, Message: "spurious internal failure"},
	}}
	d := newDiverse(t, faults, dialect.PG, dialect.OR, dialect.IB)
	sess := d.NewSession()
	mustExec(t, sess, "CREATE TABLE POISON (A INT)")
	mustExec(t, sess, "CREATE TABLE H (A INT)")

	holder := d.NewSession()
	defer holder.Close()
	if _, _, err := holder.Exec("BEGIN TRANSACTION"); err != nil {
		t.Fatal(err)
	}
	ins, err := holder.Prepare("INSERT INTO H VALUES ($1)")
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := ins.Exec(types.NewInt(1)); err != nil {
		t.Fatal(err)
	}

	writer := d.NewSession()
	defer writer.Close()
	done := make(chan struct{})
	go func() {
		defer close(done)
		// Each poison insert quarantines OR; each following write flushes
		// the pending resync and replays holder's bound journal into
		// holder's OR session.
		for i := 0; i < 30; i++ {
			_, _, _ = writer.Exec("INSERT INTO POISON VALUES (1)")
			_, _, _ = writer.Exec("INSERT INTO H VALUES (1000)")
		}
	}()
	// Meanwhile the holder keeps preparing fresh texts (distinct plans,
	// so every call writes its per-replica plan caches).
	for i := 0; i < 60; i++ {
		st, err := holder.Prepare(fmt.Sprintf("SELECT A FROM H WHERE A = %d", i))
		if err != nil {
			t.Fatal(err)
		}
		_ = st.Close()
	}
	<-done
	if _, _, err := holder.Exec("ROLLBACK"); err != nil {
		t.Fatal(err)
	}
}

func TestPreparedArgCountMismatch(t *testing.T) {
	d := newDiverse(t, nil, dialect.PG, dialect.OR)
	sess := d.NewSession()
	defer sess.Close()
	mustExec(t, sess, "CREATE TABLE T (A INT)")
	ps, err := sess.Prepare("SELECT A FROM T WHERE A = ?")
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := ps.Exec(); err == nil || !strings.Contains(err.Error(), "bind error") {
		t.Errorf("missing args: %v", err)
	}
	var all error
	if _, _, all = ps.Exec(types.NewInt(1), types.NewInt(2)); all == nil {
		t.Error("extra args must fail")
	}
	if errors.Is(all, ErrAllReplicasFailed) {
		t.Error("arg-count mismatch must fail before any broadcast")
	}
}
