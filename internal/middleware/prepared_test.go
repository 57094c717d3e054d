package middleware

import (
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync"
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
	// A replica quarantined under a read-only workload rejoins without
	// any write statement: the next statement, a query too, takes the
	// statement lock exclusively and resyncs it first.
	faults := []fault.Fault{{
		BugID:   "wrongread",
		Server:  dialect.OR,
		Trigger: fault.Trigger{Table: "T", Flag: ast.FlagGroupBy},
		Effect:  fault.Effect{Kind: fault.EffectMutateResult, Mutation: fault.MutOffByOne},
	}}
	newRejoining := func() *DiverseServer {
		d, err := New(DefaultConfig(), newServers(t, faults, dialect.PG, dialect.IB, dialect.OR)...)
		if err != nil {
			t.Fatal(err)
		}
		return d
	}
	const grouped = "SELECT A, COUNT(*) AS N FROM T GROUP BY A"

	t.Run("sequential", func(t *testing.T) {
		d := newRejoining()
		sess := d.NewSession()
		defer sess.Close()
		mustExec(t, sess, "CREATE TABLE T (A INT)")
		mustExec(t, sess, "INSERT INTO T VALUES (5)")

		// OR returns a wrong (mutated) result on the grouped read, is
		// outvoted and quarantined.
		mustExec(t, sess, grouped)
		if q := d.QuarantinedReplicas(); len(q) != 1 || q[0] != "OR" {
			t.Fatalf("quarantined: %v", q)
		}
		if m := d.Metrics(); m.Resyncs != 0 {
			t.Fatalf("resynced before the next statement: %+v", m)
		}

		// Exactly one read later the quarantine window has closed.
		res, _, err := sess.Exec("SELECT A FROM T")
		if err != nil || len(res.Rows) != 1 || res.Rows[0][0].I != 5 {
			t.Fatalf("read after the quarantine: %+v %v", res, err)
		}
		if q := d.QuarantinedReplicas(); len(q) != 0 {
			t.Fatalf("replica still quarantined after one read: %v", q)
		}
		if m := d.Metrics(); m.Resyncs != 1 {
			t.Errorf("resyncs = %d, want 1: %+v", m.Resyncs, m)
		}
	})

	t.Run("concurrent readers", func(t *testing.T) {
		d := newRejoining()
		setup := d.NewSession()
		mustExec(t, setup, "CREATE TABLE T (A INT)")
		mustExec(t, setup, "INSERT INTO T VALUES (5)")
		setup.Close()

		// Every replica execution notes the resync count on entry and on
		// exit: a resync between the two rewrote a replica under an
		// in-flight read. Each execution is held in flight a moment after
		// entry, and the reader that gets the replica quarantined sends
		// its next statement only once a sibling's read is in flight.
		var (
			mu                   sync.Mutex
			entered              = map[string]int64{}
			inflight, overlapped int
		)
		d.execHook = func(entering bool) {
			id, n := goroutineID(), d.Metrics().Resyncs
			mu.Lock()
			if entering {
				entered[id] = n
				inflight++
			} else {
				inflight--
				if entered[id] != n {
					overlapped++
				}
			}
			mu.Unlock()
			if entering {
				time.Sleep(100 * time.Microsecond)
			}
		}
		siblingInFlight := func() {
			for deadline := time.Now().Add(time.Second); time.Now().Before(deadline); {
				mu.Lock()
				busy := inflight > 0
				mu.Unlock()
				if busy {
					return
				}
				runtime.Gosched()
			}
		}

		const (
			readers = 4
			reads   = 100
		)
		var wg sync.WaitGroup
		for r := 0; r < readers; r++ {
			wg.Add(1)
			go func(r int) {
				defer wg.Done()
				cs := d.NewSession()
				defer cs.Close()
				for i := 0; i < reads; i++ {
					q := "SELECT A FROM T"
					if r == 0 && i == reads/2 {
						q = grouped // OR is outvoted on this one read
					}
					res, _, err := cs.Exec(q)
					if err != nil || len(res.Rows) != 1 || res.Rows[0][0].I != 5 {
						t.Errorf("reader %d, read %d (%s): %+v %v", r, i, q, res, err)
						return
					}
					if q == grouped {
						siblingInFlight()
					}
				}
			}(r)
		}
		wg.Wait()

		m := d.Metrics()
		if m.MaskedFailures != 1 || m.Resyncs != 1 || m.DetectedSplits != 0 {
			t.Errorf("want one masked failure, one resync, no split: %+v", m)
		}
		if q := d.QuarantinedReplicas(); len(q) != 0 {
			t.Errorf("still quarantined: %v", q)
		}
		if overlapped != 0 {
			t.Errorf("%d replica executions spanned a resync", overlapped)
		}
	})
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
