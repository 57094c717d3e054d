package middleware

import (
	"fmt"
	"sync"
	"testing"

	"divsql/internal/dialect"
	"divsql/internal/fault"
	"divsql/internal/sql/ast"
	"divsql/internal/sql/types"
)

// The acceptance scenario for live resync: donor sessions hold open
// transactions the whole time, yet the quarantined replica completes its
// rejoin — committed snapshot plus journal redo — and the held
// transactions later commit with every replica in agreement.
func TestResyncWhileDonorsHoldOpenTransactions(t *testing.T) {
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
	const holders = 3
	for h := 0; h < holders; h++ {
		mustExec(t, sess, fmt.Sprintf("CREATE TABLE H%d (A INT)", h))
	}

	// Holder sessions open transactions and keep them open.
	var hs []*Session
	for h := 0; h < holders; h++ {
		s := d.NewSession()
		defer s.Close()
		hs = append(hs, s)
		for _, sql := range []string{
			"BEGIN TRANSACTION",
			fmt.Sprintf("INSERT INTO H%d VALUES (1)", h),
			fmt.Sprintf("INSERT INTO H%d VALUES (2)", h),
		} {
			if _, _, err := s.Exec(sql); err != nil {
				t.Fatalf("holder %d: %q: %v", h, sql, err)
			}
		}
	}

	// OR errors on the poison insert and is quarantined; the donors all
	// sit mid-transaction.
	mustExec(t, sess, "INSERT INTO POISON VALUES (1)")
	if len(d.QuarantinedReplicas()) != 1 {
		t.Fatalf("quarantined: %v", d.QuarantinedReplicas())
	}

	// The next clean write rejoins OR even though every holder still has
	// its transaction open — the old design would have waited for a
	// global transaction boundary that never comes here.
	mustExec(t, sess, "INSERT INTO CLEAN VALUES (1)")
	m := d.Metrics()
	if m.Resyncs == 0 {
		t.Fatalf("resync did not complete under open transactions: %+v", m)
	}
	// Redo shipping: each holder's journal (BEGIN + 2 inserts) was
	// replayed into the rejoined replica.
	if want := int64(holders * 3); m.JournalReplays < want {
		t.Errorf("journal replays: %d, want >= %d", m.JournalReplays, want)
	}
	if len(d.QuarantinedReplicas()) != 0 {
		t.Fatalf("replica did not rejoin: %v", d.QuarantinedReplicas())
	}

	// The held transactions keep working — including on the rejoined
	// replica, whose copy was re-established from the journals — and
	// commit to a state every replica agrees on.
	for h, s := range hs {
		for _, sql := range []string{
			fmt.Sprintf("INSERT INTO H%d VALUES (3)", h),
			"COMMIT",
		} {
			if _, _, err := s.Exec(sql); err != nil {
				t.Fatalf("holder %d: %q: %v", h, sql, err)
			}
		}
		res, _, err := sess.Exec(fmt.Sprintf("SELECT COUNT(*) AS N FROM H%d", h))
		if err != nil {
			t.Fatalf("post-commit count on H%d: %v", h, err)
		}
		if res.Rows[0][0].I != 3 {
			t.Errorf("H%d rows: %d, want 3", h, res.Rows[0][0].I)
		}
	}
	m = d.Metrics()
	if m.DetectedSplits != 0 {
		t.Errorf("unexpected splits after rejoin: %+v", m)
	}
	if m.ReplicaErrors != 1 { // the single poison insert
		t.Errorf("replica errors: %+v", m)
	}
}

// Sustained concurrent transactional load (run with -race): writer
// sessions continuously cycle BEGIN..COMMIT/ROLLBACK while a poisoner
// repeatedly trips one replica's fault. Resyncs must keep completing
// mid-load, and once the fault stops firing the replica set must reach
// full agreement again.
func TestResyncUnderSustainedConcurrentLoad(t *testing.T) {
	faults := []fault.Fault{{
		BugID:   "poison",
		Server:  dialect.OR,
		Trigger: fault.Trigger{Table: "POISON", Flag: ast.FlagUpdate},
		Effect:  fault.Effect{Kind: fault.EffectError, Message: "spurious internal failure"},
	}}
	d := newDiverse(t, faults, dialect.PG, dialect.OR, dialect.IB)
	sess := d.NewSession()
	mustExec(t, sess, "CREATE TABLE POISON (A INT)")
	mustExec(t, sess, "INSERT INTO POISON VALUES (0)")
	const writers = 4
	for w := 0; w < writers; w++ {
		mustExec(t, sess, fmt.Sprintf("CREATE TABLE W%d (A INT)", w))
	}

	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			s := d.NewSession()
			defer s.Close()
			for i := 0; i < 25; i++ {
				stmts := []string{
					"BEGIN TRANSACTION",
					fmt.Sprintf("INSERT INTO W%d VALUES (%d)", w, 2*i),
					fmt.Sprintf("INSERT INTO W%d VALUES (%d)", w, 2*i+1),
				}
				if i%4 == 0 {
					stmts = append(stmts, "ROLLBACK")
				} else {
					stmts = append(stmts, "COMMIT")
				}
				for _, sql := range stmts {
					if _, _, err := s.Exec(sql); err != nil {
						t.Errorf("writer %d: %q: %v", w, sql, err)
						return
					}
				}
			}
		}(w)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		s := d.NewSession()
		defer s.Close()
		for i := 0; i < 10; i++ {
			// OR errors here (outvoted) and is quarantined; concurrent
			// writer statements trigger the rejoin while transactions are
			// open all over the donor replicas.
			if _, _, err := s.Exec("UPDATE POISON SET A = A + 1"); err != nil {
				t.Errorf("poisoner: %v", err)
				return
			}
		}
	}()
	wg.Wait()

	// Stop poisoning; one more write flushes any pending rejoin.
	mustExec(t, sess, "INSERT INTO POISON VALUES (99)")
	m := d.Metrics()
	if m.Resyncs == 0 {
		t.Fatalf("no resync completed under load: %+v", m)
	}
	if len(d.QuarantinedReplicas()) != 0 {
		t.Fatalf("replica still quarantined after load: %v", d.QuarantinedReplicas())
	}
	if m.DetectedSplits != 0 {
		t.Errorf("splits under majority configuration: %+v", m)
	}
	// Full agreement across the healed replica set.
	for w := 0; w < writers; w++ {
		before := d.Metrics().Unanimous
		res, _, err := sess.Exec(fmt.Sprintf("SELECT COUNT(*) AS N FROM W%d", w))
		if err != nil {
			t.Fatalf("final count W%d: %v", w, err)
		}
		if res.Rows[0][0].I%2 != 0 {
			t.Errorf("W%d: odd committed row count %d (torn transaction)", w, res.Rows[0][0].I)
		}
		if d.Metrics().Unanimous != before+1 {
			t.Errorf("final count on W%d not unanimous", w)
		}
	}
}

// A statement is what it parses as, not what its first bytes spell: a
// BEGIN behind a comment opens a transaction on every replica, so it must
// open the session's redo journal too. A replica that rejoins inside that
// transaction is handed the transaction's writes and agrees with the
// others after COMMIT; classified by its leading bytes, the BEGIN was a
// plain statement, the journal stayed empty and the rejoined replica
// committed without the transaction's earlier writes.
func TestCommentedBeginOpensTheJournal(t *testing.T) {
	for _, begin := range []string{"-- note\nBEGIN TRANSACTION", "/* c */ BEGIN TRANSACTION"} {
		t.Run(begin, func(t *testing.T) {
			faults := []fault.Fault{{
				BugID:   "err",
				Server:  dialect.MS,
				Trigger: fault.Trigger{Table: "PROBE", Flag: ast.FlagSelect},
				Effect:  fault.Effect{Kind: fault.EffectError, Message: "spurious"},
			}}
			servers := newServers(t, faults, dialect.PG, dialect.OR, dialect.MS)
			d, err := New(DefaultConfig(), servers...)
			if err != nil {
				t.Fatal(err)
			}
			sess := d.NewSession()
			defer sess.Close()
			mustExec(t, sess, "CREATE TABLE T (A INT)")
			mustExec(t, sess, "CREATE TABLE PROBE (A INT)")
			mustExec(t, sess, begin)
			mustExec(t, sess, "INSERT INTO T VALUES (1)")
			mustExec(t, sess, "/* also a query */ SELECT A FROM PROBE") // MS errors: quarantined mid-transaction
			if q := d.QuarantinedReplicas(); len(q) != 1 || q[0] != "MS" {
				t.Fatalf("quarantined: %v", q)
			}
			mustExec(t, sess, "INSERT INTO T VALUES (2)") // MS rejoins: snapshot + the open transaction's redo
			if m := d.Metrics(); m.Resyncs != 1 || m.JournalReplays < 2 {
				t.Fatalf("rejoin inside the transaction: %+v", m)
			}
			mustExec(t, sess, "COMMIT")
			if q := d.QuarantinedReplicas(); len(q) != 0 {
				t.Errorf("quarantined after COMMIT: %v", q)
			}
			sameImages(t, servers)
			if rows := servers[2].Snapshot().Tables["T"].Rows; len(rows) != 2 {
				t.Errorf("MS holds %d rows of the committed transaction, want 2", len(rows))
			}
		})
	}
}

// A client's last result stays readable while other sessions'
// statements rejoin the replica that supplied it: each rejoin replays the
// client's open transaction into a new session on that replica, not into
// the one whose next statement would reclaim the result. Idle across
// rejoins, the client holds one retired session on the replica, not one
// per rejoin, and its next statement closes it; a client with nothing to
// replay keeps its session. OR runs first, so it supplies every unanimous
// answer.
func TestRejoinKeepsAClientsResult(t *testing.T) {
	faults := []fault.Fault{{
		BugID:   "poison",
		Server:  dialect.OR,
		Trigger: fault.Trigger{Table: "POISON", Flag: ast.FlagInsert},
		Effect:  fault.Effect{Kind: fault.EffectError, Message: "spurious internal failure"},
	}}
	servers := newServers(t, faults, dialect.OR, dialect.PG, dialect.IB)
	d, err := New(DefaultConfig(), servers...)
	if err != nil {
		t.Fatal(err)
	}
	or := servers[0]
	sess := d.NewSession()
	defer sess.Close()
	mustExec(t, sess, "CREATE TABLE POISON (A INT)")
	mustExec(t, sess, "CREATE TABLE HELD (A INT)")
	holder := d.NewSession()
	defer holder.Close()
	mustExec(t, holder, "BEGIN TRANSACTION")
	mustExec(t, holder, "INSERT INTO HELD VALUES (7)")
	res, _, err := holder.Exec("SELECT A FROM HELD")
	if err != nil {
		t.Fatal(err)
	}
	idle := d.NewSession() // nothing to replay: no transaction, no isolation level
	defer idle.Close()
	const live = 3 // sess, holder and idle, none with a retired session
	if n := or.SessionCount(); n != live {
		t.Fatalf("OR holds %d sessions, want %d", n, live)
	}

	mustExec(t, sess, "INSERT INTO POISON VALUES (1)") // OR is outvoted
	for rejoins := int64(1); rejoins <= 2; rejoins++ {
		// OR rejoins before each insert, and is outvoted again by it.
		mustExec(t, sess, fmt.Sprintf("INSERT INTO POISON VALUES (%d)", rejoins+1))
		if m := d.Metrics(); m.Resyncs != rejoins || m.JournalReplays != 2*rejoins {
			t.Fatalf("want %d rejoins, each replaying the holder's journal: %+v", rejoins, m)
		}
		if n := or.SessionCount(); n != live+1 {
			t.Errorf("after rejoin %d OR holds %d sessions, want %d: the holder's retired one and its new one", rejoins, n, live+1)
		}
	}
	if len(res.Rows) != 1 || len(res.Rows[0]) != 1 || res.Rows[0][0] != types.NewInt(7) {
		t.Errorf("the holder's result reads %v after the rejoins, want [[7]]", res.Rows)
	}
	mustExec(t, holder, "INSERT INTO HELD VALUES (8)") // OR rejoins once more
	if n := or.SessionCount(); n != live {
		t.Errorf("after the holder's next statement OR holds %d sessions, want %d", n, live)
	}
	mustExec(t, holder, "COMMIT")
	res, _, err = holder.Exec("SELECT COUNT(*) AS N FROM HELD")
	if err != nil || len(d.QuarantinedReplicas()) != 0 || res.Rows[0][0] != types.NewInt(2) {
		t.Fatalf("after the commit: %v, err %v, quarantined %v", res, err, d.QuarantinedReplicas())
	}
}
