package wire

import (
	"errors"
	"fmt"
	"io"
	"net"
	"strconv"
	"strings"
	"sync"
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

// Client is a connection to a wire server.
type Client struct {
	mu     sync.Mutex
	conn   net.Conn
	rd     *lineReader
	wbuf   []byte // request buffer, reused under mu
	nextID int
}

// Dial connects to a wire server.
func Dial(addr string) (*Client, error) {
	conn, err := net.DialTimeout("tcp", addr, 5*time.Second)
	if err != nil {
		return nil, fmt.Errorf("wire dial: %w", err)
	}
	return &Client{conn: conn, rd: newLineReader(conn, 0)}, nil
}

// send writes the request buffer in one Write. Caller holds c.mu.
func (c *Client) send(req []byte) error {
	c.wbuf = req
	if _, err := c.conn.Write(req); err != nil {
		return fmt.Errorf("wire send: %w", err)
	}
	return nil
}

// roundTrip sends one encoded request and decodes its response. Caller
// holds c.mu.
func (c *Client) roundTrip(req []byte) (response, error) {
	if err := c.send(req); err != nil {
		return response{}, err
	}
	return readResponse(c.rd)
}

// result is roundTrip for the frames answered in the EXEC format.
func (c *Client) result(req []byte) (*Result, error) {
	resp, err := c.roundTrip(req)
	if err != nil {
		return nil, err
	}
	return resp.result()
}

// Exec sends one statement and decodes the response. SQL containing
// newlines is flattened to spaces.
func (c *Client) Exec(sql string) (*Result, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.result(appendRequest(c.wbuf[:0], 0, 0, verbExec, sql))
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
		resp, err := readResponse(c.rd)
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

// Stmt is a client-side handle on a server-side prepared statement.
type Stmt struct {
	c       *Client
	name    string
	sql     string
	nparams int
	closed  bool
}

// parseStmtLine reads the parameter count off a "STMT <name> <nparams>"
// response to the PREPARE of name.
func parseStmtLine(line, name string) (int, error) {
	if rest, ok := strings.CutPrefix(line, "STMT "+name+" "); ok {
		if n, err := strconv.Atoi(rest); err == nil {
			return n, nil
		}
	}
	return 0, fmt.Errorf("wire: malformed PREPARE response %q", line)
}

// Prepare sends a PREPARE frame and returns a handle on the server-side
// statement. The SQL may contain ? or $n placeholders; the arguments of
// each execution travel typed in BIND frames — nothing is interpolated
// into the statement text on either side.
func (c *Client) Prepare(sql string) (*Stmt, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.nextID++
	name := "s" + strconv.Itoa(c.nextID)
	resp, err := c.roundTrip(appendRequest(c.wbuf[:0], 0, 0, verbPrepare, name+" "+sql))
	if err != nil {
		return nil, err
	}
	if resp.err != nil {
		return nil, resp.err
	}
	nparams, err := parseStmtLine(resp.line, name)
	if err != nil {
		return nil, err
	}
	return &Stmt{c: c, name: name, sql: sql, nparams: nparams}, nil
}

// SQL returns the statement text as prepared.
func (st *Stmt) SQL() string { return st.sql }

// NumParams reports how many arguments Exec expects.
func (st *Stmt) NumParams() int { return st.nparams }

// Exec executes the prepared statement with the given typed arguments
// via a BIND frame and decodes the response.
func (st *Stmt) Exec(args ...types.Value) (*Result, error) {
	c := st.c
	c.mu.Lock()
	defer c.mu.Unlock()
	if st.closed {
		return nil, errors.New("wire: statement is closed")
	}
	return c.result(appendBind(c.wbuf[:0], 0, 0, st.name, args))
}

// Close deallocates the server-side statement.
func (st *Stmt) Close() error {
	c := st.c
	c.mu.Lock()
	defer c.mu.Unlock()
	if st.closed {
		return nil
	}
	st.closed = true
	_, err := c.result(appendRequest(c.wbuf[:0], 0, 0, verbClose, st.name))
	return err
}

// Close closes the connection.
func (c *Client) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	_ = c.send(appendRequest(c.wbuf[:0], 0, 0, verbQuit, ""))
	return c.conn.Close()
}
