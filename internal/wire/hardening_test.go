package wire

import (
	"bufio"
	"io"
	"net"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"divsql/internal/core"
	"divsql/internal/obs"
	"divsql/internal/sql/types"
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
	if res, err := dialSession(t, addr).Exec("SELECT ROWS"); err != nil || len(res.Rows) != 2 {
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

	// The longest line under the bound is served: a fresh session's
	// first frame, tagged after its SESSION frame.
	c := dialSession(t, addr)
	if _, err := c.Exec("FAIL" + strings.Repeat(" ", maxRequestLine-len("@2 #1 EXEC FAIL\n"))); err == nil || err.Error() != "boom line two" {
		t.Fatalf("line at the bound: %v", err)
	}
	if doc := renderMetrics(ws); !strings.Contains(doc, `divsql_wire_rejected_frames_total{reason="line_too_long"} 1`) {
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

// countingEndpoint is stubExec with its open sessions counted, and an
// OpenSession that panics on one chosen call.
type countingEndpoint struct {
	open    atomic.Int64
	calls   atomic.Int64
	panicOn atomic.Int64 // the OpenSession call (one-based) that panics; 0: none
}

func (e *countingEndpoint) OpenSession() core.Session {
	if e.calls.Add(1) == e.panicOn.Load() {
		panic("stub: OpenSession bug")
	}
	e.open.Add(1)
	return &countedSession{e: e}
}

type countedSession struct {
	stubSession
	e *countingEndpoint
}

func (s *countedSession) Close() error {
	s.e.open.Add(-1)
	return nil
}

func startServerOn(t *testing.T, ep core.SessionExecutor) (string, *Server) {
	t.Helper()
	ws := NewServer(ep)
	addr, err := ws.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = ws.Close() })
	return addr, ws
}

// TestSessionsPerConnectionAreBounded: a peer sending SESSION frames
// without end gets maxConnSessions of them (the root included), an ERR
// for each of the rest on a connection that stays usable, and every
// session is released when the connection closes.
func TestSessionsPerConnectionAreBounded(t *testing.T) {
	ep := &countingEndpoint{}
	addr, ws := startServerOn(t, ep)
	conn := dialRaw(t, addr)
	const frames = 10000
	go func() { _, _ = io.WriteString(conn, strings.Repeat("SESSION\n", frames)+"#1 EXEC INSERT\n") }()
	rd := bufio.NewReader(conn)
	opened, refused := 0, 0
	for i := 0; i < frames; i++ {
		line, err := rd.ReadString('\n')
		switch {
		case err != nil:
			t.Fatalf("response %d: %v", i, err)
		case strings.HasPrefix(line, "SESS "):
			opened++
		case line == "ERR connection exceeds 1024 sessions (DETACH some)\n":
			refused++
		default:
			t.Fatalf("response %d: %q", i, line)
		}
	}
	if opened != maxConnSessions-1 || refused != frames-opened {
		t.Errorf("%d sessions opened, %d refused", opened, refused)
	}
	if resp, err := readRawResponse(rd); err != nil || resp != "OK 0 0 7 3\n.\n" {
		t.Errorf("session 1 after the refusals: %q %v", resp, err)
	}
	if got := ep.open.Load(); got != maxConnSessions {
		t.Errorf("%d backend sessions open, want %d", got, maxConnSessions)
	}
	if got := ws.metrics.rejected[rejectTooManySessions].Value(); got != uint64(refused) {
		t.Errorf("too_many_sessions = %d, want %d", got, refused)
	}
	// A DETACH frees a slot.
	if _, err := io.WriteString(conn, "DETACH 1\nSESSION\n"); err != nil {
		t.Fatal(err)
	}
	// The worker answers the DETACH, the reader the SESSION: either order.
	a, errA := readRawResponse(rd)
	b, errB := readRawResponse(rd)
	if errA != nil || errB != nil || !(a == doneResponse && b == "SESS 1024\n" || a == "SESS 1024\n" && b == doneResponse) {
		t.Fatalf("DETACH then SESSION: %q (%v), %q (%v)", a, errA, b, errB)
	}
	_ = conn.Close()
	_ = ws.Close() // waits for the connection's workers
	if got := ep.open.Load(); got != 0 {
		t.Errorf("%d backend sessions still open after the connection closed", got)
	}
}

// TestStatementsPerSessionAreBounded: PREPARE under ever new names stops
// at maxSessionStmts live statements; the session carries on, CLOSE
// frees a slot, and re-preparing a held name is always allowed.
func TestStatementsPerSessionAreBounded(t *testing.T) {
	addr, ws := startStubServer(t)
	c := dialSession(t, addr)
	stmts := make([]*Stmt, maxSessionStmts)
	var err error
	for i := range stmts {
		if stmts[i], err = c.Prepare("SELECT ?"); err != nil {
			t.Fatalf("statement %d: %v", i, err)
		}
	}
	if _, err := c.Prepare("SELECT ?"); err == nil || err.Error() != "session exceeds 4096 prepared statements (CLOSE some)" {
		t.Fatalf("statement over the cap: %v", err)
	}
	if got := ws.metrics.rejected[rejectTooManyStmts].Value(); got != 1 {
		t.Errorf("too_many_statements = %d", got)
	}
	if res, err := stmts[0].Exec(types.NewInt(1)); err != nil || len(res.Rows) != 1 {
		t.Fatalf("held statement after the refusal: %+v %v", res, err)
	}
	// Re-preparing a held name ("m1_1") replaces it in place.
	c.nextID.Store(0)
	if _, err := c.Prepare("SELECT ? ?"); err != nil {
		t.Fatalf("re-prepare at the cap: %v", err)
	}
	if err := stmts[1].Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Prepare("SELECT ?"); err != nil {
		t.Fatalf("prepare after a CLOSE: %v", err)
	}
}

// TestPanicOnReaderGoroutineIsContained: the frames the connection's
// reader serves itself — SESSION's OpenSession, METRICS and SHARDS
// rendering — answer a panic as an error, count it, and leave the
// connection and its other sessions running.
func TestPanicOnReaderGoroutineIsContained(t *testing.T) {
	ep := &countingEndpoint{}
	ep.panicOn.Store(2) // call 1 is the connection's root session
	addr, ws := startServerOn(t, ep)
	reg := obs.NewRegistry()
	reg.Register(obs.NewCollector("boom", func(*obs.Feed) { panic("stub: collector bug") }))
	ws.ServeMetrics(reg)
	ws.ServeShards(func() string { panic("stub: renderer bug") })

	m, err := DialMux(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	done := make(chan struct{})
	go func() { // the root session keeps working throughout
		defer close(done)
		root := &Session{mux: m}
		for i := 0; i < 200; i++ {
			if res, err := root.Exec("SELECT ROWS"); err != nil || len(res.Rows) != 2 {
				t.Errorf("root session: %+v %v", res, err)
				return
			}
		}
	}()
	if _, err := m.Session(); err == nil || err.Error() != "internal error: stub: OpenSession bug" {
		t.Errorf("SESSION over a panicking OpenSession: %v", err)
	}
	s, err := m.Session()
	if err != nil {
		t.Fatalf("SESSION after the panic: %v", err)
	}
	if res, err := s.Exec("INSERT"); err != nil || res.Affected != 3 {
		t.Errorf("new session: %+v %v", res, err)
	}
	for verb, doc := range map[string]func() (string, error){verbMetrics: m.Metrics, verbShards: m.Shards} {
		if _, err := doc(); err == nil || !strings.HasPrefix(err.Error(), "internal error: stub: ") {
			t.Errorf("%s over a panicking renderer: %v", verb, err)
		}
	}
	<-done
	if got := ws.metrics.panics.Value(); got != 3 {
		t.Errorf("panics counter = %d, want 3", got)
	}
	if got := ep.open.Load(); got != 2 {
		t.Errorf("%d backend sessions open, want 2 (the panicking call left none)", got)
	}

	// A connection whose root session cannot be opened is answered and
	// closed; the server carries on.
	ep.panicOn.Store(ep.calls.Load() + 1)
	expectRejected(t, dialRaw(t, addr), "ERR internal error: stub: OpenSession bug\n")
	if _, err := s.Exec("INSERT"); err != nil {
		t.Errorf("existing connection after a failed one: %v", err)
	}
}
