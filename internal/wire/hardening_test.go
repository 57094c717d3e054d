package wire

import (
	"bufio"
	"io"
	"net"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"divsql/internal/obs"
)

func renderMetrics(ws *Server) string {
	reg := obs.NewRegistry()
	reg.Register(ws.MetricsCollector())
	return reg.Render()
}

func dialRaw(t *testing.T, addr string) net.Conn {
	t.Helper()
	conn, err := net.DialTimeout("tcp", addr, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = conn.Close() })
	_ = conn.SetDeadline(time.Now().Add(30 * time.Second))
	return conn
}

// expectRejected reads the server's last words on a connection it
// refused: one ERR line, then end of stream.
func expectRejected(t *testing.T, conn net.Conn, want string) {
	t.Helper()
	rest, err := io.ReadAll(conn)
	if err != nil || string(rest) != want {
		t.Fatalf("rejected connection answered %q (%v), want %q", rest, err, want)
	}
}

func expectServes(t *testing.T, addr string) {
	t.Helper()
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if res, err := c.Exec("SELECT ROWS"); err != nil || len(res.Rows) != 2 {
		t.Fatalf("fresh connection: %+v %v", res, err)
	}
}

// TestOversizedRequestLine: a request line past maxRequestLine is
// answered ERR and the connection closed. The line is sized so that the
// server's 4 KiB reads consume all of it before the bound trips — unread
// input at close would reset the connection under the ERR line.
func TestOversizedRequestLine(t *testing.T) {
	addr, ws := startStubServer(t)
	conn := dialRaw(t, addr)
	if _, err := conn.Write([]byte(strings.Repeat("x", maxRequestLine+4096))); err != nil {
		t.Fatal(err)
	}
	expectRejected(t, conn, "ERR request line exceeds 1048576 bytes\n")
	expectServes(t, addr)

	// The longest line under the bound is served.
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Exec("FAIL" + strings.Repeat(" ", maxRequestLine-len("EXEC FAIL\n"))); err == nil || err.Error() != "boom line two" {
		t.Fatalf("line at the bound: %v", err)
	}
	if doc := renderMetrics(ws); !strings.Contains(doc, `divsql_wire_rejected_frames_total{reason="line_too_long"} 1`) ||
		!strings.Contains(doc, `divsql_wire_rejected_frames_total{reason="batch_too_large"} 0`) {
		t.Errorf("rejected counters:\n%s", doc)
	}
}

// TestNewlineFreeStreamIsBounded: a peer streaming 64 MiB without a
// newline costs the server about the line bound, not the stream, and
// the server serves the next connection.
func TestNewlineFreeStreamIsBounded(t *testing.T) {
	addr, ws := startStubServer(t)
	conn := dialRaw(t, addr)
	chunk := []byte(strings.Repeat("y", 64<<10))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	sent := 0
	for sent < 64<<20 {
		n, err := conn.Write(chunk)
		sent += n
		if err != nil {
			break // the server hung up, as it should
		}
	}
	deadline := time.Now().Add(10 * time.Second)
	for ws.metrics.rejected[rejectLineTooLong].Value() == 0 {
		if time.Now().After(deadline) {
			t.Fatalf("server never rejected the stream (%d bytes sent)", sent)
		}
		time.Sleep(time.Millisecond)
	}
	runtime.ReadMemStats(&after)
	if sent <= maxRequestLine {
		t.Fatalf("only %d bytes accepted before the hang-up", sent)
	}
	// Doubling a buffer up to the bound allocates about four times the
	// bound in total; the stream is sixty-four times it.
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 8*maxRequestLine {
		t.Errorf("process allocated %d bytes while the peer streamed %d", grew, sent)
	}
	expectServes(t, addr)
}

func TestOversizedBatch(t *testing.T) {
	addr, ws := startStubServer(t)
	conn := dialRaw(t, addr)
	if _, err := io.WriteString(conn, "BATCH "+strconv.Itoa(maxBatch+1)+"\n"); err != nil {
		t.Fatal(err)
	}
	expectRejected(t, conn, "ERR BATCH exceeds 65536 frames\n")
	if got := ws.metrics.rejected[rejectBatchTooLarge].Value(); got != 1 {
		t.Errorf("batch_too_large = %d", got)
	}

	// The largest allowed envelope is read as one.
	conn = dialRaw(t, addr)
	if _, err := io.WriteString(conn, "BATCH "+strconv.Itoa(maxBatch)+"\n@1 EXEC INSERT\n"); err != nil {
		t.Fatal(err)
	}
	if resp, err := readRawResponse(bufio.NewReader(conn)); err != nil || resp != "@1 OK 0 0 7 3\n.\n" {
		t.Fatalf("frame inside a full-size BATCH: %q %v", resp, err)
	}
	expectServes(t, addr)
}

// TestPanicInSessionWorkerIsContained: an executor panic on one frame is
// that frame's error. The panicking session, its sibling sessions on the
// same connection and the process all carry on.
func TestPanicInSessionWorkerIsContained(t *testing.T) {
	addr, ws := startStubServer(t)
	m, err := DialMux(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	bad, err := m.Session()
	if err != nil {
		t.Fatal(err)
	}
	good, err := m.Session()
	if err != nil {
		t.Fatal(err)
	}
	const panics = 20
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		for i := 0; i < panics; i++ {
			if _, err := bad.Exec("PANIC"); err == nil || err.Error() != "internal error: stub: executor bug" {
				t.Errorf("panicking frame answered %v", err)
				return
			}
			if res, err := bad.Exec("INSERT"); err != nil || res.Affected != 3 {
				t.Errorf("session after its own panic: %+v %v", res, err)
				return
			}
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < 5*panics; i++ {
			if res, err := good.Exec("SELECT ROWS"); err != nil || len(res.Rows) != 2 {
				t.Errorf("sibling session: %+v %v", res, err)
				return
			}
		}
	}()
	wg.Wait()
	if doc := renderMetrics(ws); !strings.Contains(doc, "divsql_wire_panics_total "+strconv.Itoa(panics)) {
		t.Errorf("panics counter:\n%s", doc)
	}
}
