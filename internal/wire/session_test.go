package wire

import (
	"strings"
	"testing"
	"time"
)

// TestConnectionsHaveIndependentTransactions: two wire clients against
// one server each get their own session — BEGIN on one connection does
// not open, close or disturb a transaction on the other.
func TestConnectionsHaveIndependentTransactions(t *testing.T) {
	addr, _ := startServer(t)
	a, b := dialSession(t, addr), dialSession(t, addr)

	mustC := func(c *Session, q string) {
		t.Helper()
		if _, err := c.Exec(q); err != nil {
			t.Fatalf("%q: %v", q, err)
		}
	}
	mustC(a, "CREATE TABLE T (A INT)")
	mustC(a, "BEGIN TRANSACTION")
	// b has no transaction: a's BEGIN must not leak across connections.
	if _, err := b.Exec("COMMIT"); err == nil || !strings.Contains(err.Error(), "no transaction") {
		t.Fatalf("COMMIT on b: %v (want no-transaction error)", err)
	}
	mustC(a, "INSERT INTO T VALUES (1)")
	mustC(a, "ROLLBACK")

	mustC(b, "BEGIN TRANSACTION")
	mustC(b, "INSERT INTO T VALUES (2)")
	// a rolling back its own (new) transaction must not touch b's.
	mustC(a, "BEGIN TRANSACTION")
	mustC(a, "ROLLBACK")
	mustC(b, "COMMIT")

	res, err := a.Exec("SELECT A FROM T")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 || res.Rows[0][0].I != 2 {
		t.Fatalf("want only b's committed row: %v", res.Rows)
	}
}

// TestDroppedConnectionRollsBackOnlyItsOwnTransaction: a client that
// disconnects mid-transaction loses the open transactions of every
// session on its connection — and nothing else.
func TestDroppedConnectionRollsBackOnlyItsOwnTransaction(t *testing.T) {
	addr, _ := startServer(t)
	a1 := dialSession(t, addr)
	a2, err := a1.mux.Session()
	if err != nil {
		t.Fatal(err)
	}
	b := dialSession(t, addr)

	mustC := func(c *Session, q string) {
		t.Helper()
		if _, err := c.Exec(q); err != nil {
			t.Fatalf("%q: %v", q, err)
		}
	}
	mustC(b, "CREATE TABLE TA (A INT)")
	mustC(b, "CREATE TABLE TB (A INT)")

	// b opens a transaction that must survive a's disconnect.
	mustC(b, "BEGIN TRANSACTION")
	mustC(b, "INSERT INTO TB VALUES (7)")

	mustC(a1, "BEGIN TRANSACTION")
	mustC(a1, "INSERT INTO TA VALUES (1)")
	mustC(a2, "BEGIN TRANSACTION")
	mustC(a2, "INSERT INTO TA VALUES (2)")
	// Drop a's connection abruptly, without QUIT: the server must roll
	// back both of a's open transactions (its sessions close) without
	// touching b's.
	_ = a1.mux.conn.Close()

	// b's own transaction is unaffected by a's disconnect: commit it.
	mustC(b, "COMMIT")

	// The rollback happens asynchronously when the server notices the
	// disconnect; poll through b until TA is empty again.
	deadline := time.Now().Add(5 * time.Second)
	for {
		res, err := b.Exec("SELECT COUNT(*) AS N FROM TA")
		if err != nil {
			t.Fatal(err)
		}
		if res.Rows[0][0].I == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("a's transaction not rolled back: TA has %d rows", res.Rows[0][0].I)
		}
		time.Sleep(10 * time.Millisecond)
	}

	// b's transaction committed: TB keeps its row.
	res, err := b.Exec("SELECT COUNT(*) AS N FROM TB")
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows[0][0].I != 1 {
		t.Errorf("b's committed row lost: %d", res.Rows[0][0].I)
	}
	// b's session was untouched: it still runs transactions.
	mustC(b, "BEGIN TRANSACTION")
	mustC(b, "INSERT INTO TA VALUES (3)")
	mustC(b, "COMMIT")
	if res, err := b.Exec("SELECT COUNT(*) AS N FROM TA"); err != nil || res.Rows[0][0].I != 1 {
		t.Fatalf("after the drop: %v %v", res, err)
	}
}
