package wire

import (
	"fmt"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"divsql/internal/sql/types"
)

func TestAffectedRowsRoundTrip(t *testing.T) {
	// Satellite: the wire protocol carries the affected-row count of
	// INSERT/UPDATE/DELETE end to end.
	addr, _ := startServer(t)
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Exec("CREATE TABLE T (A INT)"); err != nil {
		t.Fatal(err)
	}
	res, err := c.Exec("INSERT INTO T VALUES (1), (2), (3)")
	if err != nil {
		t.Fatal(err)
	}
	if res.Affected != 3 {
		t.Errorf("INSERT affected = %d, want 3", res.Affected)
	}
	res, err = c.Exec("UPDATE T SET A = A + 1 WHERE A >= 2")
	if err != nil {
		t.Fatal(err)
	}
	if res.Affected != 2 {
		t.Errorf("UPDATE affected = %d, want 2", res.Affected)
	}
	res, err = c.Exec("DELETE FROM T WHERE A = 4")
	if err != nil {
		t.Fatal(err)
	}
	if res.Affected != 1 {
		t.Errorf("DELETE affected = %d, want 1", res.Affected)
	}
	// The prepared path carries it too.
	st, err := c.Prepare("UPDATE T SET A = A + ? ")
	if err != nil {
		t.Fatal(err)
	}
	pres, err := st.Exec(types.NewInt(10))
	if err != nil {
		t.Fatal(err)
	}
	if pres.Affected != 2 {
		t.Errorf("prepared UPDATE affected = %d, want 2", pres.Affected)
	}
	// Queries report zero.
	if res, err = c.Exec("SELECT A FROM T"); err != nil || res.Affected != 0 {
		t.Errorf("SELECT affected = %d (%v), want 0", res.Affected, err)
	}
}

func TestExecBatchPipelines(t *testing.T) {
	addr, _ := startServer(t)
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	sqls := []string{
		"CREATE TABLE B (A INT)",
		"INSERT INTO B VALUES (1)",
		"SELECT A FROM B",
		"SELECT * FROM NO_SUCH_TABLE", // mid-batch error must not stop the rest
		"INSERT INTO B VALUES (2)",
	}
	results, errs := c.ExecBatch(sqls)
	if errs[0] != nil || errs[1] != nil || errs[2] != nil || errs[4] != nil {
		t.Fatalf("batch errors: %v", errs)
	}
	if errs[3] == nil {
		t.Error("bad statement in batch did not error")
	}
	if len(results[2].Rows) != 1 || results[2].Rows[0][0].I != 1 {
		t.Errorf("batch SELECT: %v", results[2].Rows)
	}
	if results[4].Affected != 1 {
		t.Errorf("batch INSERT affected = %d", results[4].Affected)
	}
	// The connection still works for ordinary frames after a batch.
	res, err := c.Exec("SELECT COUNT(*) AS N FROM B")
	if err != nil || res.Rows[0][0].I != 2 {
		t.Fatalf("after batch: %v %v", res, err)
	}
}

func TestMuxSessionsAreIndependentTransactions(t *testing.T) {
	addr, _ := startServer(t)
	m, err := DialMux(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	s1, err := m.Session()
	if err != nil {
		t.Fatal(err)
	}
	s2, err := m.Session()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s1.Exec("CREATE TABLE M (A INT)"); err != nil {
		t.Fatal(err)
	}
	if _, err := s1.Exec("BEGIN TRANSACTION"); err != nil {
		t.Fatal(err)
	}
	if _, err := s1.Exec("INSERT INTO M VALUES (1)"); err != nil {
		t.Fatal(err)
	}
	// s2, same TCP connection, is outside s1's transaction.
	res, err := s2.Exec("SELECT COUNT(*) AS N FROM M")
	if err != nil || res.Rows[0][0].I != 0 {
		t.Fatalf("s2 saw s1's uncommitted write: %v %v", res, err)
	}
	if _, err := s1.Exec("COMMIT"); err != nil {
		t.Fatal(err)
	}
	res, err = s2.Exec("SELECT COUNT(*) AS N FROM M")
	if err != nil || res.Rows[0][0].I != 1 {
		t.Fatalf("s2 after commit: %v %v", res, err)
	}
	// Prepared statements are session-scoped.
	st, err := s2.Prepare("INSERT INTO M VALUES (?)")
	if err != nil {
		t.Fatal(err)
	}
	pres, err := st.Exec(types.NewInt(7))
	if err != nil || pres.Affected != 1 {
		t.Fatalf("mux prepared exec: %v %v", pres, err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	if err := s2.Close(); err != nil {
		t.Fatal(err)
	}
	// A detached session rejects further frames.
	if _, err := s2.Exec("SELECT 1"); err == nil {
		t.Log("note: Exec after Close raced the detach; acceptable")
	}
}

func TestMuxConcurrentSessionsInterleave(t *testing.T) {
	// Out-of-order completion: many goroutines share one TCP connection,
	// each on its own session, and every response must reach its caller.
	addr, _ := startServer(t)
	m, err := DialMux(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	setup, err := m.Session()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := setup.Exec("CREATE TABLE C (W INT, V INT)"); err != nil {
		t.Fatal(err)
	}
	const workers = 8
	var wg sync.WaitGroup
	errs := make([]error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			s, err := m.Session()
			if err != nil {
				errs[w] = err
				return
			}
			defer s.Close()
			for i := 0; i < 20; i++ {
				if _, err := s.Exec(fmt.Sprintf("INSERT INTO C VALUES (%d, %d)", w, i)); err != nil {
					errs[w] = err
					return
				}
				res, err := s.Exec(fmt.Sprintf("SELECT COUNT(*) AS N FROM C WHERE W = %d", w))
				if err != nil {
					errs[w] = err
					return
				}
				if got := res.Rows[0][0].I; got != int64(i+1) {
					errs[w] = fmt.Errorf("worker %d iteration %d saw %d rows", w, i, got)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	for w, err := range errs {
		if err != nil {
			t.Errorf("worker %d: %v", w, err)
		}
	}
	res, err := setup.Exec("SELECT COUNT(*) AS N FROM C")
	if err != nil || res.Rows[0][0].I != workers*20 {
		t.Fatalf("total rows: %v %v", res, err)
	}
}

func TestOutOfOrderTaggedResponses(t *testing.T) {
	// Raw-protocol check: two sessions, the first holding a transaction,
	// frames pipelined to both in one write — the tags identify each
	// response regardless of arrival order.
	addr, _ := startServer(t)
	conn, err := net.DialTimeout("tcp", addr, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	rd := newLineReader(conn, 0)
	send := func(s string) {
		t.Helper()
		if _, err := fmt.Fprint(conn, s); err != nil {
			t.Fatal(err)
		}
	}
	recv := func() response {
		t.Helper()
		resp, err := readResponse(rd)
		if err != nil {
			t.Fatal(err)
		}
		return resp
	}
	send("@9 SESSION\n")
	if resp := recv(); resp.tag != 9 || resp.line != "SESS 1" {
		t.Fatalf("SESSION response %+v", resp)
	}
	send("BATCH 3\n@1 EXEC CREATE TABLE O (A INT)\n@2 #1 EXEC SELECT 1 AS X\n@3 EXEC INSERT INTO O VALUES (9)\n")
	got := map[uint64]response{}
	for i := 0; i < 3; i++ {
		resp := recv()
		got[resp.tag] = resp
	}
	for tag := uint64(1); tag <= 3; tag++ {
		resp, ok := got[tag]
		if !ok || resp.err != nil {
			t.Fatalf("response for @%d: %+v (have %v)", tag, resp, got)
		}
	}
	if got[2].res.Rows[0][0].I != 1 {
		t.Errorf("tagged select: %v", got[2].res.Rows)
	}
	if got[3].res.Affected != 1 {
		t.Errorf("tagged insert affected: %d", got[3].res.Affected)
	}
}

func TestMidBatchDropRollsBackOnlyThatConnection(t *testing.T) {
	// Satellite edge case: a connection dropped mid-batch, inside an open
	// transaction, rolls back exactly its own sessions' transactions —
	// a second connection's committed data is untouched.
	addr, ws := startServer(t)
	c1, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c1.Close()
	if _, err := c1.Exec("CREATE TABLE D (A INT)"); err != nil {
		t.Fatal(err)
	}
	if _, err := c1.Exec("INSERT INTO D VALUES (100)"); err != nil {
		t.Fatal(err)
	}

	// c2 opens a transaction on its root session AND on a multiplexed
	// session, writes through both, then drops mid-batch without COMMIT.
	conn, err := net.DialTimeout("tcp", addr, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	rd := newLineReader(conn, 0)
	roundTrip := func(line string) response {
		t.Helper()
		if _, err := fmt.Fprintf(conn, "@x %s\n", line); err != nil {
			t.Fatal(err)
		}
		resp, err := readResponse(rd)
		if err != nil {
			t.Fatal(err)
		}
		if resp.err != nil {
			t.Fatalf("%s: %v", line, resp.err)
		}
		return resp
	}
	roundTrip("SESSION") // sid 1
	if _, err := fmt.Fprint(conn, "BATCH 4\n@1 EXEC BEGIN TRANSACTION\n@2 EXEC INSERT INTO D VALUES (1)\n@3 #1 EXEC BEGIN TRANSACTION\n@4 #1 EXEC INSERT INTO D VALUES (2)\n"); err != nil {
		t.Fatal(err)
	}
	// Wait for all four responses so the writes definitely applied, then
	// drop the connection without COMMIT.
	for i := 0; i < 4; i++ {
		if resp, err := readResponse(rd); err != nil || resp.err != nil {
			t.Fatalf("batch response %d: %v %v", i, resp.err, err)
		}
	}
	_ = conn.Close()

	// The server notices the drop and rolls back both of c2's sessions.
	deadline := time.Now().Add(2 * time.Second)
	for {
		res, err := c1.Exec("SELECT COUNT(*) AS N FROM D")
		if err != nil {
			t.Fatal(err)
		}
		if res.Rows[0][0].I == 1 {
			break // only the committed row survives
		}
		if time.Now().After(deadline) {
			t.Fatalf("uncommitted rows survived the drop: %v", res.Rows)
		}
		time.Sleep(10 * time.Millisecond)
	}
	// c1's own session was untouched: it can still run a transaction.
	if _, err := c1.Exec("BEGIN TRANSACTION"); err != nil {
		t.Fatal(err)
	}
	if _, err := c1.Exec("INSERT INTO D VALUES (200)"); err != nil {
		t.Fatal(err)
	}
	if _, err := c1.Exec("COMMIT"); err != nil {
		t.Fatal(err)
	}
	res, err := c1.Exec("SELECT COUNT(*) AS N FROM D")
	if err != nil || res.Rows[0][0].I != 2 {
		t.Fatalf("after drop: %v %v", res, err)
	}
	_ = ws
}

func TestShardsFrame(t *testing.T) {
	addr, ws := startServer(t)
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Shards(); err == nil || !strings.Contains(err.Error(), "not a sharded") {
		t.Fatalf("unarmed SHARDS: %v", err)
	}
	ws.ServeShards(func() string { return "2 shard(s)\nshard0: ok\n" })
	doc, err := c.Shards()
	if err != nil || !strings.Contains(doc, "shard0") {
		t.Fatalf("SHARDS: %q %v", doc, err)
	}
}
