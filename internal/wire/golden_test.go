package wire

import (
	"bufio"
	"bytes"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"divsql/internal/core"
	"divsql/internal/engine"
	"divsql/internal/sql/types"
)

// The golden transcripts pin the protocol's bytes. They were captured
// from the commit before the append-based codec (PR 13) with
// -update-golden and must never be regenerated to make a codec change
// pass: a diff here is a protocol change.
var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/*.golden from this build's behaviour")

// stubExec is a deterministic endpoint: fixed latency, canned results,
// prepared statements that echo their arguments.
type stubExec struct{}

const stubLatency = 7 * time.Microsecond

var stubRows = &engine.Result{
	Kind:    engine.ResultRows,
	Columns: []string{"A", "S"},
	Rows: [][]types.Value{
		{types.NewInt(1), types.NewString("x")},
		{types.NewInt(2), types.Null()},
	},
}

func (stubExec) Exec(sql string) (*engine.Result, time.Duration, error) {
	// Clients flatten each CR and LF to a space; statements compare
	// whitespace-insensitively so the tests can send multi-line SQL.
	switch strings.Join(strings.Fields(sql), " ") {
	case "SELECT ROWS":
		return stubRows, stubLatency, nil
	case "SELECT CELLS":
		return &engine.Result{
			Kind:    engine.ResultRows,
			Columns: []string{"T", "E", "F", "B", "D", "N"},
			Rows: [][]types.Value{{
				types.NewString("a\tb\nc\rd"), types.NewString(""), types.NewFloat(1.5),
				types.NewBool(true), types.NewDate("2026-01-02"), types.Null(),
			}},
		}, stubLatency, nil
	case "SELECT NOROWS":
		return &engine.Result{Kind: engine.ResultRows, Columns: []string{"A"}}, stubLatency, nil
	case "SELECT TABHEAD":
		return &engine.Result{
			Kind:    engine.ResultRows,
			Columns: []string{"'A\tB'", "C\nD\rE"},
			Rows:    [][]types.Value{{types.NewString("a\tb"), types.NewInt(1)}},
		}, stubLatency, nil
	case "PANIC":
		panic("stub: executor bug")
	case "INSERT":
		return &engine.Result{Kind: engine.ResultCount, Affected: 3}, stubLatency, nil
	case "NIL":
		return nil, 0, nil
	case "FAIL":
		return nil, 0, errors.New("boom\nline two")
	}
	return nil, 0, fmt.Errorf("stub: unknown statement %q", sql)
}

func (stubExec) OpenSession() core.Session { return stubSession{} }

type stubSession struct{ stubExec }

func (stubSession) Close() error { return nil }

func (stubSession) Prepare(sql string) (core.Statement, error) {
	if strings.HasPrefix(sql, "BAD") {
		return nil, errors.New("stub: cannot prepare")
	}
	return &stubStmt{sql: sql, np: strings.Count(sql, "?")}, nil
}

// stubStmt answers one row echoing the bound arguments.
type stubStmt struct {
	sql string
	np  int
}

func (st *stubStmt) SQL() string    { return st.sql }
func (st *stubStmt) NumParams() int { return st.np }
func (st *stubStmt) Close() error   { return nil }

func (st *stubStmt) Exec(args ...types.Value) (*engine.Result, time.Duration, error) {
	if len(args) != st.np {
		return nil, 0, fmt.Errorf("stub: want %d args, got %d", st.np, len(args))
	}
	if st.np == 0 {
		return &engine.Result{Kind: engine.ResultCount, Affected: 1}, stubLatency, nil
	}
	cols := make([]string, len(args))
	for i := range cols {
		cols[i] = "P" + strconv.Itoa(i+1)
	}
	return &engine.Result{
		Kind:    engine.ResultRows,
		Columns: cols,
		Rows:    [][]types.Value{append([]types.Value(nil), args...)},
	}, stubLatency, nil
}

func startStubServer(t testing.TB) (string, *Server) {
	t.Helper()
	ws := NewServer(stubExec{})
	addr, err := ws.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = ws.Close() })
	return addr, ws
}

func startStub(t testing.TB) string {
	t.Helper()
	addr, _ := startStubServer(t)
	return addr
}

// goldenStep is one exchange of the raw server transcript: bytes sent,
// and how many responses to wait for before the next step (so that
// sessions, which answer concurrently, cannot reorder the transcript).
type goldenStep struct {
	send      string
	responses int
}

var serverScript = []goldenStep{
	{"EXEC SELECT ROWS\n", 1},
	{"EXEC INSERT\n", 1},
	{"EXEC NIL\n", 1},
	{"EXEC SELECT NOROWS\n", 1},
	{"EXEC SELECT CELLS\n", 1},
	{"EXEC FAIL\n", 1},
	{"EXEC SELECT ROWS\r\n", 1},
	{"PREPARE p2 SELECT ? ?\n", 1},
	{"BIND p2 I:42\tS:a\\sb\\tc\n", 1},
	{"BIND p2 N\tF:1.5\n", 1},
	{"BIND p2 B:1\tD:2026-01-02\n", 1},
	{"BIND p2 I:1\n", 1},
	{"BIND p2 X\tI:1\n", 1},
	{"PREPARE p0 SELECT\n", 1},
	{"BIND p0\n", 1},
	{"BIND p0 \n", 1},
	{"BIND nosuch I:1\n", 1},
	{"PREPARE p2 SELECT ?\n", 1},
	{"BIND p2 S:\n", 1},
	{"PREPARE bad\n", 1},
	{"PREPARE b BAD ?\n", 1},
	{"CLOSE p2\n", 1},
	{"CLOSE nosuch\n", 1},
	{"BIND p2 I:1\n", 1},
	{"@t1 EXEC SELECT ROWS\n", 1},
	{"@t2 EXEC FAIL\n", 1},
	{"@1 EXEC INSERT\n@2 EXEC FAIL\n@3 EXEC SELECT ROWS\n", 3},
	{"SESSION\n", 1},
	{"@s SESSION\n", 1},
	{"#1 EXEC INSERT\n", 1},
	{"@7 #1 PREPARE q SELECT ?\n", 1},
	{"@8 #1 BIND q S:x\n", 1},
	{"BIND q S:x\n", 1},
	{"#9 EXEC INSERT\n", 1},
	{"@9 #x EXEC INSERT\n", 1},
	{"@t # EXEC INSERT\n", 1},
	{"@ EXEC INSERT\n", 1},
	{"DETACH 1\n", 1},
	{"@d DETACH 2\n", 1},
	{"#1 EXEC INSERT\n", 1},
	{"DETACH 0\n", 1},
	{"DETACH 5\n", 1},
	{"DETACH x\n", 1},
	{"PING\n", 1},
	{"@p PING\n", 1},
	{"METRICS\n", 1},
	{"SHARDS\n", 1},
	{"BOGUS\n", 1},
	{"@u BOGUS\n", 1},
	{"EXEC\n", 1},
	{"SESSION x\n", 1},
	{"@b BATCH 1\n", 1},
	{"BATCH x\n", 1},
	{"\n", 1},
	{"QUIT\n", 0},
}

// readRawResponse reads one response's bytes off the socket with its
// own framing logic (independent of the codec under test).
func readRawResponse(rd *bufio.Reader) (string, error) {
	head, err := rd.ReadString('\n')
	if err != nil {
		return head, err
	}
	out := head
	body := head
	if strings.HasPrefix(body, "@") {
		if i := strings.IndexByte(body, ' '); i > 0 {
			body = body[i+1:]
		}
	}
	if !strings.HasPrefix(body, "OK ") {
		return out, nil
	}
	var ncols, nrows int
	if _, err := fmt.Sscanf(body, "OK %d %d", &ncols, &nrows); err != nil {
		return out, err
	}
	lines := 1
	if ncols > 0 {
		lines += 1 + nrows
	}
	for i := 0; i < lines; i++ {
		l, err := rd.ReadString('\n')
		out += l
		if err != nil {
			return out, err
		}
	}
	return out, nil
}

func goldenPath(name string) string { return filepath.Join("testdata", name+".golden") }

// checkGolden compares (or with -update-golden rewrites) a transcript of
// quoted lines.
func checkGolden(t *testing.T, name string, lines []string) {
	t.Helper()
	got := strings.Join(lines, "\n") + "\n"
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath(name), []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(goldenPath(name))
	if err != nil {
		t.Fatal(err)
	}
	if got == string(want) {
		return
	}
	wantLines := strings.Split(strings.TrimRight(string(want), "\n"), "\n")
	for i := 0; i < len(lines) || i < len(wantLines); i++ {
		var g, w string
		if i < len(lines) {
			g = lines[i]
		}
		if i < len(wantLines) {
			w = wantLines[i]
		}
		if g != w {
			t.Fatalf("%s line %d:\n got %s\nwant %s", name, i+1, g, w)
		}
	}
}

// goldenSeeds returns the unquoted payloads of a transcript's lines with
// the given prefix ("C " or "S "), for seeding the fuzz targets.
func goldenSeeds(t testing.TB, name, prefix string) []string {
	t.Helper()
	data, err := os.ReadFile(goldenPath(name))
	if err != nil {
		t.Fatal(err)
	}
	var out []string
	for _, line := range strings.Split(string(data), "\n") {
		if q, ok := strings.CutPrefix(line, prefix); ok {
			s, err := strconv.Unquote(q)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			out = append(out, s)
		}
	}
	return out
}

// TestGoldenServerTranscript replays raw request bytes against the
// server and compares every response byte.
func TestGoldenServerTranscript(t *testing.T) {
	addr := startStub(t)
	conn, err := net.DialTimeout("tcp", addr, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	_ = conn.SetDeadline(time.Now().Add(20 * time.Second))
	rd := bufio.NewReader(conn)
	var lines []string
	for _, step := range serverScript {
		if _, err := io.WriteString(conn, step.send); err != nil {
			t.Fatal(err)
		}
		lines = append(lines, "C "+strconv.Quote(step.send))
		for i := 0; i < step.responses; i++ {
			resp, err := readRawResponse(rd)
			if err != nil {
				t.Fatalf("after %q: %v (partial %q)", step.send, err, resp)
			}
			lines = append(lines, "S "+strconv.Quote(resp))
		}
	}
	// QUIT closes the connection without a response.
	if rest, err := io.ReadAll(rd); err != nil || len(rest) != 0 {
		t.Fatalf("after QUIT: %q %v", rest, err)
	}
	checkGolden(t, "server", lines)
}

// recordingProxy forwards one client connection to addr and records the
// bytes moving each way.
type recordingProxy struct {
	ln   net.Listener
	mu   sync.Mutex
	c2s  bytes.Buffer
	s2c  bytes.Buffer
	done chan struct{}
}

type lockedWriter struct {
	mu  *sync.Mutex
	buf *bytes.Buffer
}

func (w lockedWriter) Write(p []byte) (int, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.buf.Write(p)
}

func startProxy(t *testing.T, addr string) *recordingProxy {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	p := &recordingProxy{ln: ln, done: make(chan struct{})}
	go func() {
		defer close(p.done)
		client, err := ln.Accept()
		if err != nil {
			return
		}
		defer client.Close()
		server, err := net.DialTimeout("tcp", addr, 5*time.Second)
		if err != nil {
			return
		}
		defer server.Close()
		var wg sync.WaitGroup
		wg.Add(2)
		go func() {
			defer wg.Done()
			_, _ = io.Copy(io.MultiWriter(server, lockedWriter{&p.mu, &p.c2s}), client)
			_ = server.Close()
		}()
		go func() {
			defer wg.Done()
			_, _ = io.Copy(io.MultiWriter(client, lockedWriter{&p.mu, &p.s2c}), server)
			_ = client.Close()
		}()
		wg.Wait()
	}()
	t.Cleanup(func() { _ = ln.Close() })
	return p
}

// transcript waits for the proxied connection to end and returns both
// directions' bytes as quoted lines.
func (p *recordingProxy) transcript(t *testing.T) []string {
	t.Helper()
	select {
	case <-p.done:
	case <-time.After(10 * time.Second):
		t.Fatal("proxied connection did not close")
	}
	var lines []string
	for _, dir := range []struct {
		prefix string
		buf    *bytes.Buffer
	}{{"C ", &p.c2s}, {"S ", &p.s2c}} {
		for _, l := range strings.SplitAfter(dir.buf.String(), "\n") {
			if l != "" {
				lines = append(lines, dir.prefix+strconv.Quote(l))
			}
		}
	}
	return lines
}

func mustErr(t *testing.T, what string, err error, want string) {
	t.Helper()
	if err == nil || err.Error() != want {
		t.Fatalf("%s: error %v, want %q", what, err, want)
	}
}

// goldenArgs covers every value kind and the escaped payload bytes.
var goldenArgs = []types.Value{
	types.NewInt(-42), types.NewString("a b\tc\nd,e\\f"),
}

// TestGoldenMuxTranscript drives a Mux, its sessions and their
// statements through a recording proxy: the request bytes it produces
// are pinned, and what it decodes from the server's bytes is checked.
// Calls are sequential so tags and bytes are deterministic.
func TestGoldenMuxTranscript(t *testing.T) {
	addr, ws := startStubServer(t)
	ws.ServeShards(func() string { return "2 shard(s)\nshard0: ok\n" })
	p := startProxy(t, addr)
	m, err := DialMux(p.ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	s1, err := m.Session()
	if err != nil {
		t.Fatal(err)
	}
	s2, err := m.Session()
	if err != nil {
		t.Fatal(err)
	}
	res, err := s1.Exec("SELECT\r\nROWS")
	if err != nil || len(res.Rows) != 2 || res.Rows[0][1].S != "x" || !res.Rows[1][1].IsNull() ||
		res.Latency != stubLatency || strings.Join(res.Columns, ",") != "A,S" {
		t.Fatalf("rows: %+v %v", res, err)
	}
	res, err = s2.Exec("INSERT")
	if err != nil || res.Affected != 3 {
		t.Fatalf("insert: %+v %v", res, err)
	}
	_, err = s2.Exec("FAIL")
	mustErr(t, "FAIL", err, "boom line two")
	st, err := s2.Prepare("SELECT ?\n?")
	if err != nil || st.NumParams() != 2 {
		t.Fatalf("prepare: %+v %v", st, err)
	}
	res, err = st.Exec(goldenArgs...)
	if err != nil || len(res.Rows) != 1 || res.Rows[0][0].I != -42 || res.Rows[0][1].S != "a b c d,e\\f" {
		t.Fatalf("bind: %+v %v", res, err)
	}
	st0, err := s1.Prepare("SELECT")
	if err != nil {
		t.Fatal(err)
	}
	if res, err = st0.Exec(); err != nil || res.Affected != 1 {
		t.Fatalf("bind 0: %+v %v", res, err)
	}
	_, err = s1.Prepare("BAD ?")
	mustErr(t, "bad prepare", err, "stub: cannot prepare")
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	if err := s2.Close(); err != nil {
		t.Fatal(err)
	}
	_, err = s2.Exec("INSERT")
	mustErr(t, "detached", err, "unknown session 2")
	if err := s1.Close(); err != nil {
		t.Fatal(err)
	}
	_, err = m.Metrics()
	mustErr(t, "metrics", err, "metrics not enabled")
	if doc, err := m.Shards(); err != nil || doc != "2 shard(s)\nshard0: ok\n" {
		t.Fatalf("shards: %q %v", doc, err)
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "mux", p.transcript(t))
}
