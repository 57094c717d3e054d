package wire

import (
	"strings"
	"sync"
	"testing"

	"divsql/internal/dialect"
	"divsql/internal/server"
)

func startServer(t *testing.T) (string, *Server) {
	t.Helper()
	srv, err := server.New(dialect.PG, nil)
	if err != nil {
		t.Fatal(err)
	}
	ws := NewServer(srv)
	addr, err := ws.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = ws.Close() })
	return addr, ws
}

// dialSession dials a Mux to addr and opens one session on it; the Mux
// closes when the test ends.
func dialSession(tb testing.TB, addr string) *Session {
	tb.Helper()
	m, err := DialMux(addr)
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { _ = m.Close() })
	s, err := m.Session()
	if err != nil {
		tb.Fatal(err)
	}
	return s
}

func TestExecRoundTrip(t *testing.T) {
	addr, _ := startServer(t)
	c := dialSession(t, addr)

	if _, err := c.Exec("CREATE TABLE T (A INT, S VARCHAR(10))"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Exec("INSERT INTO T VALUES (1, 'x'), (2, NULL)"); err != nil {
		t.Fatal(err)
	}
	res, err := c.Exec("SELECT A, S FROM T ORDER BY A")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Columns) != 2 || res.Columns[0] != "A" {
		t.Errorf("columns: %v", res.Columns)
	}
	if len(res.Rows) != 2 {
		t.Fatalf("rows: %v", res.Rows)
	}
	if res.Rows[0][0].I != 1 || res.Rows[0][1].S != "x" {
		t.Errorf("row 0: %v", res.Rows[0])
	}
	if !res.Rows[1][1].IsNull() {
		t.Errorf("NULL round trip failed: %v", res.Rows[1][1])
	}
	if res.Latency <= 0 {
		t.Error("latency not transmitted")
	}
}

func TestErrorsPropagate(t *testing.T) {
	addr, _ := startServer(t)
	c := dialSession(t, addr)
	if _, err := c.Exec("SELECT A FROM MISSING"); err == nil {
		t.Error("server error must reach the client")
	}
	// The connection stays usable after an error.
	if _, err := c.Exec("CREATE TABLE U (A INT)"); err != nil {
		t.Errorf("connection unusable after error: %v", err)
	}
}

func TestMultilineSQLFlattened(t *testing.T) {
	addr, _ := startServer(t)
	c := dialSession(t, addr)
	if _, err := c.Exec("CREATE TABLE M\n(A INT,\n B INT)"); err != nil {
		t.Fatalf("multiline SQL: %v", err)
	}
}

func TestConcurrentClients(t *testing.T) {
	addr, _ := startServer(t)
	if _, err := dialSession(t, addr).Exec("CREATE TABLE C (A INT)"); err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(n int) {
			defer wg.Done()
			m, err := DialMux(addr)
			if err != nil {
				errs <- err
				return
			}
			defer m.Close()
			c, err := m.Session()
			if err != nil {
				errs <- err
				return
			}
			for j := 0; j < 10; j++ {
				if _, err := c.Exec("SELECT COUNT(*) AS N FROM C"); err != nil {
					errs <- err
					return
				}
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

func TestTabsInValuesSanitized(t *testing.T) {
	addr, _ := startServer(t)
	c := dialSession(t, addr)
	if _, err := c.Exec("CREATE TABLE TB (S VARCHAR(20))"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Exec("INSERT INTO TB VALUES ('a\tb')"); err != nil {
		t.Fatal(err)
	}
	res, err := c.Exec("SELECT S FROM TB")
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(res.Rows[0][0].S, "\t") {
		t.Error("tab not sanitized in wire format")
	}
}

func TestServerCloseUnblocksClients(t *testing.T) {
	addr, ws := startServer(t)
	c := dialSession(t, addr)
	if err := ws.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Exec("SELECT 1 AS X"); err == nil {
		t.Error("exec after server close must fail")
	}
}
