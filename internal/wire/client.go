package wire

import (
	"errors"
	"fmt"
	"io"
	"net"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"divsql/internal/sql/types"
)

// Result is a decoded wire response.
type Result struct {
	Columns []string
	Rows    [][]types.Value
	Latency time.Duration
	// Affected is the statement's affected-row count
	// (INSERT/UPDATE/DELETE; zero from pre-affected servers).
	Affected int64
}

// Session is one client session on a wire server: its own transaction
// scope and prepared-statement table. Exec and Prepare calls of one
// session execute in order; on a Mux they interleave on the wire with
// other sessions'.
//
// A session's requests travel on one of two transports, and exactly one
// of cli and mux is set. A Client is the synchronous transport: untagged
// bytes, and the calling goroutine reads its own response. A Mux is the
// multiplexed one: tagged requests from many sessions, demultiplexed by
// a reader goroutine. They are two pointers, not an interface, because
// a call through an interface makes every BIND's argument slice escape
// to the heap — an allocation per execution.
type Session struct {
	cli *Client
	mux *Mux
	sid int
	// prefix starts the session's statement names: "s" on a Client,
	// "m<sid>_" on a Mux (the bytes the golden transcripts pin).
	prefix string
	nextID atomic.Int64
	closed atomic.Bool
}

// MuxSession is a Session opened with Mux.Session.
type MuxSession = Session

// Exec executes one statement in this session. SQL containing newlines
// is flattened to spaces.
func (s *Session) Exec(sql string) (*Result, error) {
	return s.result(verbExec, sql, nil)
}

// roundTrip sends one request of the session — verb and arg, with args
// when the verb is BIND — and returns its response. The error is the
// transport's; an ERR response is in the response.
func (s *Session) roundTrip(verb, arg string, args []types.Value) (response, error) {
	if s.mux != nil {
		return s.mux.roundTrip(s.sid, verb, arg, args)
	}
	return s.cli.roundTrip(verb, arg, args)
}

// result is a round trip for the frames answered in the EXEC format.
func (s *Session) result(verb, arg string, args []types.Value) (*Result, error) {
	resp, err := s.roundTrip(verb, arg, args)
	if err != nil {
		return nil, err
	}
	return resp.result()
}

// Broken reports whether the session's transport has failed: nothing
// sent on it will be answered. Its caller should discard the session
// and dial again.
func (s *Session) Broken() bool {
	if s.mux != nil {
		return s.mux.Broken()
	}
	return s.cli.failed.Load()
}

// Close ends the session, rolling back its open transaction
// server-side. A Mux stays up for its other sessions: the session is
// released with a DETACH frame on the connection's root session. A
// Client's session is its connection, which closes with it.
func (s *Session) Close() error {
	if s.closed.Swap(true) {
		return nil
	}
	if s.mux != nil {
		resp, err := s.mux.roundTrip(0, verbDetach, strconv.Itoa(s.sid), nil)
		if err == nil {
			_, err = resp.result()
		}
		return err
	}
	c := s.cli
	c.mu.Lock()
	defer c.mu.Unlock()
	_ = c.send(appendRequest(c.wbuf[:0], 0, 0, verbQuit, ""))
	c.failed.Store(true)
	return c.conn.Close()
}

// Client is a connection to a wire server carrying one session: the
// synchronous transport and, embedded, the session that runs on it
// (whose cli points back here).
type Client struct {
	Session

	mu     sync.Mutex // serializes round trips
	conn   net.Conn
	rd     *lineReader
	wbuf   []byte      // request buffer, reused under mu
	failed atomic.Bool // a send or a read failed; the stream is unusable
}

// Dial connects to a wire server.
func Dial(addr string) (*Client, error) {
	conn, err := net.DialTimeout("tcp", addr, 5*time.Second)
	if err != nil {
		return nil, fmt.Errorf("wire dial: %w", err)
	}
	c := &Client{conn: conn, rd: newLineReader(conn, 0)}
	c.cli, c.prefix = c, "s"
	return c, nil
}

// send writes the request buffer in one Write. Caller holds c.mu.
func (c *Client) send(req []byte) error {
	c.wbuf = req
	if _, err := c.conn.Write(req); err != nil {
		c.failed.Store(true)
		return fmt.Errorf("wire send: %w", err)
	}
	return nil
}

// recv decodes one response. Caller holds c.mu.
func (c *Client) recv() (response, error) {
	resp, err := readResponse(c.rd)
	if err != nil {
		c.failed.Store(true)
	}
	return resp, err
}

// roundTrip sends one request and reads its response: the connection is
// its one session, so requests travel untagged and unprefixed.
func (c *Client) roundTrip(verb, arg string, args []types.Value) (response, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if err := c.send(appendFrame(c.wbuf[:0], 0, 0, verb, arg, args)); err != nil {
		return response{}, err
	}
	return c.recv()
}

// ExecBatch pipelines a burst of statements: one BATCH envelope carries
// every tagged EXEC in a single write, and the responses stream back
// without a per-statement round trip. Results and errors are
// index-aligned with sqls. The statements run in order on the
// connection's root session — the batch is a pipeline, not a
// transaction; a failed statement does not stop the ones after it.
func (c *Client) ExecBatch(sqls []string) ([]*Result, []error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	results := make([]*Result, len(sqls))
	errs := make([]error, len(sqls))
	if len(sqls) == 0 {
		return results, errs
	}
	// A failed send or an unmatchable response poisons the stream: fail
	// every slot still open and stop reading.
	failRest := func(err error) ([]*Result, []error) {
		for i := range errs {
			if results[i] == nil && errs[i] == nil {
				errs[i] = err
			}
		}
		return results, errs
	}
	req := append(c.wbuf[:0], "BATCH "...)
	req = strconv.AppendInt(req, int64(len(sqls)), 10)
	req = append(req, '\n')
	for i, sql := range sqls {
		req = appendRequest(req, uint64(i+1), 0, verbExec, sql)
	}
	if err := c.send(req); err != nil {
		return failRest(err)
	}
	for range sqls {
		resp, err := c.recv()
		if err == nil && (resp.tag < 1 || resp.tag > uint64(len(sqls))) {
			err = fmt.Errorf("wire: unmatched batch response tag %d", resp.tag)
		}
		if err != nil {
			return failRest(err)
		}
		results[resp.tag-1], errs[resp.tag-1] = resp.res, resp.err
	}
	return results, errs
}

// Shards sends a SHARDS frame and returns the server's shard status
// text. It fails when the deployment is not sharded (ServeShards was
// not called).
func (c *Client) Shards() (string, error) {
	return c.sizedDoc(verbShards, "SHARDS ")
}

// Metrics sends a METRICS frame and returns the server's rendered
// Prometheus exposition document. It fails when the server has no
// metrics registry armed (ServeMetrics was not called).
func (c *Client) Metrics() (string, error) {
	return c.sizedDoc(verbMetrics, "MET ")
}

// sizedDoc sends an introspection frame and decodes its
// "<kind> <nbytes>\npayload.\n" response.
func (c *Client) sizedDoc(verb, kind string) (string, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if err := c.send(appendRequest(c.wbuf[:0], 0, 0, verb, "")); err != nil {
		return "", err
	}
	line, err := c.rd.readLine()
	if err != nil {
		return "", fmt.Errorf("wire recv: %w", err)
	}
	head := string(line)
	if msg, ok := strings.CutPrefix(head, "ERR "); ok {
		return "", errors.New(msg)
	}
	size, ok := strings.CutPrefix(head, kind)
	n, err := strconv.Atoi(size)
	if !ok || err != nil || n < 0 {
		return "", fmt.Errorf("wire: malformed %sresponse %q", kind, head)
	}
	doc := make([]byte, n)
	if _, err := io.ReadFull(c.rd.rd, doc); err != nil {
		return "", fmt.Errorf("wire recv: %w", err)
	}
	term, err := c.rd.readLine()
	if err != nil {
		return "", err
	}
	if string(term) != "." {
		return "", fmt.Errorf("wire: missing terminator, got %q", term)
	}
	return string(doc), nil
}

// Stmt is a client-side handle on a server-side prepared statement of
// one Session.
type Stmt struct {
	s       *Session
	name    string
	sql     string
	nparams int
	closed  atomic.Bool
}

// MuxStmt is a Stmt prepared on a MuxSession.
type MuxStmt = Stmt

// Prepare sends a PREPARE frame and returns a handle on the server-side
// statement. The SQL may contain ? or $n placeholders; the arguments of
// each execution travel typed in BIND frames — nothing is interpolated
// into the statement text on either side.
func (s *Session) Prepare(sql string) (*Stmt, error) {
	name := s.prefix + strconv.FormatInt(s.nextID.Add(1), 10)
	resp, err := s.roundTrip(verbPrepare, name+" "+sql, nil)
	if err != nil {
		return nil, err
	}
	if resp.err != nil {
		return nil, resp.err
	}
	// The response is "STMT <name> <nparams>".
	rest, ok := strings.CutPrefix(resp.line, "STMT "+name+" ")
	nparams, err := strconv.Atoi(rest)
	if !ok || err != nil {
		return nil, fmt.Errorf("wire: malformed PREPARE response %q", resp.line)
	}
	return &Stmt{s: s, name: name, sql: sql, nparams: nparams}, nil
}

// SQL returns the statement text as prepared.
func (st *Stmt) SQL() string { return st.sql }

// NumParams reports how many arguments Exec expects.
func (st *Stmt) NumParams() int { return st.nparams }

// Exec executes the prepared statement with the given typed arguments
// via a BIND frame and decodes the response.
func (st *Stmt) Exec(args ...types.Value) (*Result, error) {
	if st.closed.Load() {
		return nil, errors.New("wire: statement is closed")
	}
	return st.s.result(verbBind, st.name, args)
}

// Close deallocates the server-side statement.
func (st *Stmt) Close() error {
	if st.closed.Swap(true) {
		return nil
	}
	_, err := st.s.result(verbClose, st.name, nil)
	return err
}
