package wire

import (
	"bufio"
	"fmt"
	"io"
	"net"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"divsql/internal/obs"
	"divsql/internal/sql/types"
)

func TestAffectedRowsRoundTrip(t *testing.T) {
	// Satellite: the wire protocol carries the affected-row count of
	// INSERT/UPDATE/DELETE end to end.
	addr, _ := startServer(t)
	c := dialSession(t, addr)
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
	send("@1 EXEC CREATE TABLE O (A INT)\n@2 #1 EXEC SELECT 1 AS X\n@3 EXEC INSERT INTO O VALUES (9)\n")
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
	// A connection dropped in the middle of a pipelined batch of frames,
	// inside open transactions, rolls back exactly its own sessions'
	// transactions — a second connection's committed data is untouched.
	addr, _ := startServer(t)
	c1 := dialSession(t, addr)
	if _, err := c1.Exec("CREATE TABLE D (A INT)"); err != nil {
		t.Fatal(err)
	}
	if _, err := c1.Exec("INSERT INTO D VALUES (100)"); err != nil {
		t.Fatal(err)
	}

	// c2 opens a transaction on its root session AND on a multiplexed
	// session, writes through both in one pipelined write, then drops
	// without COMMIT.
	conn, err := net.DialTimeout("tcp", addr, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	rd := newLineReader(conn, 0)
	if _, err := fmt.Fprint(conn, "@9 SESSION\n"); err != nil {
		t.Fatal(err)
	}
	if resp, err := readResponse(rd); err != nil || resp.line != "SESS 1" {
		t.Fatalf("SESSION response %+v %v", resp, err)
	}
	if _, err := fmt.Fprint(conn, "@1 EXEC BEGIN TRANSACTION\n@2 EXEC INSERT INTO D VALUES (1)\n@3 #1 EXEC BEGIN TRANSACTION\n@4 #1 EXEC INSERT INTO D VALUES (2)\n"); err != nil {
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
	for _, q := range []string{"BEGIN TRANSACTION", "INSERT INTO D VALUES (200)", "COMMIT"} {
		if _, err := c1.Exec(q); err != nil {
			t.Fatalf("%q: %v", q, err)
		}
	}
	res, err := c1.Exec("SELECT COUNT(*) AS N FROM D")
	if err != nil || res.Rows[0][0].I != 2 {
		t.Fatalf("after drop: %v %v", res, err)
	}
}

func TestShardsFrame(t *testing.T) {
	addr, ws := startServer(t)
	m, err := DialMux(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	if _, err := m.Shards(); err == nil || !strings.Contains(err.Error(), "not a sharded") {
		t.Fatalf("unarmed SHARDS: %v", err)
	}
	ws.ServeShards(func() string { return "2 shard(s)\nshard0: ok\n" })
	doc, err := m.Shards()
	if err != nil || doc != "2 shard(s)\nshard0: ok\n" {
		t.Fatalf("SHARDS: %q %v", doc, err)
	}
}

// TestIntrospectionInterleavesWithSessions: METRICS and SHARDS frames
// share one Mux with sessions executing concurrently, and every response
// — a sized document or a statement's result — reaches its caller by
// its tag.
func TestIntrospectionInterleavesWithSessions(t *testing.T) {
	addr, ws := startStubServer(t)
	reg := obs.NewRegistry()
	reg.Register(ws.MetricsCollector())
	ws.ServeMetrics(reg)
	const layout = "2 shard(s)\nshard0: ok\nshard1: ok\n"
	ws.ServeShards(func() string { return layout })
	m, err := DialMux(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()

	const workers, rounds = 4, 50
	var wg sync.WaitGroup
	errs := make(chan error, workers+1)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			s, err := m.Session()
			if err != nil {
				errs <- err
				return
			}
			defer s.Close()
			for i := 0; i < rounds; i++ {
				if res, err := s.Exec("SELECT ROWS"); err != nil || len(res.Rows) != 2 || res.Rows[0][1].S != "x" {
					errs <- fmt.Errorf("session read: %+v %v", res, err)
					return
				}
				if res, err := s.Exec("INSERT"); err != nil || res.Affected != 3 {
					errs <- fmt.Errorf("session write: %+v %v", res, err)
					return
				}
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < rounds; i++ {
			doc, err := m.Metrics()
			if err != nil || !strings.Contains(doc, "divsql_wire_requests_total") || !strings.HasSuffix(doc, "\n") {
				errs <- fmt.Errorf("METRICS: %v (%d bytes)", err, len(doc))
				return
			}
			if doc, err = m.Shards(); err != nil || doc != layout {
				errs <- fmt.Errorf("SHARDS: %q %v", doc, err)
				return
			}
		}
	}()
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestSizedDocLengthIsNotTrusted: a MET head announcing ~100 GB, then a
// little payload and a hung-up peer, fails the call with the bytes that
// came costing what they are — the announced size is never allocated.
func TestSizedDocLengthIsNotTrusted(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	const payload = 64 << 10
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		if _, err := bufio.NewReader(conn).ReadString('\n'); err != nil {
			return
		}
		_, _ = io.WriteString(conn, "@1 MET 99999999999\n"+strings.Repeat("#", payload))
	}()
	m, err := DialMux(ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	doc, err := m.Metrics()
	runtime.ReadMemStats(&after)
	if err == nil {
		t.Fatalf("a truncated document was accepted (%d bytes)", len(doc))
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 16*payload {
		t.Errorf("reading %d payload bytes under a 99999999999-byte head allocated %d", payload, grew)
	}
	if !m.Broken() {
		t.Error("the Mux carries on after a truncated response")
	}
}
