// Package sqldriver adapts the divsql endpoints to Go's standard
// database/sql interface, so the simulated servers and the diverse
// middleware can be used by any code written against database/sql — the
// natural integration point for a replication middleware in the Go
// ecosystem.
//
// Data source names select the configuration:
//
//	single:PG                 one simulated server
//	diverse:PG,OR,MS          diverse fault-tolerant server
//	replicated:PG,3           non-diverse primary/backup group
//	wire:127.0.0.1:5433       attach to a running divsqld over TCP, the
//	                          pool's connections multiplexed over one
//	                          shared TCP connection
//
// Register-and-open:
//
//	db, err := sql.Open("divsql", "diverse:PG,OR,MS")
//
// Endpoints are shared per DSN for the lifetime of the process and each
// database/sql connection maps to one session of the endpoint — so Go's
// connection pool actually pools: every pooled connection sees the same
// data, transactions are scoped to their connection, and concurrent
// connections execute in parallel. Closing a connection closes only its
// session (the endpoint and its data survive, as for a networked DBMS).
// Append a '#label' fragment to a DSN to force a distinct endpoint
// instance ("single:PG#test2" is a different database than "single:PG").
package sqldriver

import (
	"context"
	"database/sql"
	"database/sql/driver"
	"errors"
	"fmt"
	"io"
	"strconv"
	"strings"
	"sync"
	"time"

	"divsql"
	"divsql/internal/core"
	"divsql/internal/engine"
	"divsql/internal/sql/types"
)

// DriverName is the name registered with database/sql.
const DriverName = "divsql"

var registerOnce sync.Once

// Register installs the driver under DriverName. It is safe to call more
// than once.
func Register() {
	registerOnce.Do(func() {
		sql.Register(DriverName, &Driver{})
	})
}

// Driver implements driver.Driver.
type Driver struct{}

var _ driver.Driver = (*Driver)(nil)

// endpoints caches one endpoint per DSN so that every connection of a
// database/sql pool attaches to the same database.
var (
	endpointsMu sync.Mutex
	endpoints   = map[string]core.SessionExecutor{}
)

// Open opens one session — the connection — with the DSN's dialer: on
// the (shared, cached) in-process endpoint, or over the address's shared
// multiplexed connection ("wire:"), where the remote divsqld owns the
// shared state.
func (d *Driver) Open(dsn string) (driver.Conn, error) {
	if addr, ok := strings.CutPrefix(dsn, "wire:"); ok {
		return dialWire(addr)
	}
	ep, err := endpointFor(dsn)
	if err != nil {
		return nil, err
	}
	return &conn{sess: ep.OpenSession()}, nil
}

// endpointFor returns the endpoint for a DSN, building it on first use.
// The cache key is the full DSN including any '#label' fragment; the
// fragment is stripped before parsing, so labels select distinct
// instances of otherwise identical configurations.
func endpointFor(dsn string) (core.SessionExecutor, error) {
	endpointsMu.Lock()
	defer endpointsMu.Unlock()
	if ep, ok := endpoints[dsn]; ok {
		return ep, nil
	}
	base, _, _ := strings.Cut(dsn, "#")
	db, err := openDSN(base)
	if err != nil {
		return nil, err
	}
	ep, ok := divsql.Executor(db)
	if !ok {
		return nil, fmt.Errorf("sqldriver: endpoint %q exposes no executor", dsn)
	}
	endpoints[dsn] = ep
	return ep, nil
}

func openDSN(dsn string) (divsql.DB, error) {
	mode, arg, ok := strings.Cut(dsn, ":")
	if !ok {
		return nil, fmt.Errorf("sqldriver: malformed DSN %q (want mode:args)", dsn)
	}
	switch mode {
	case "single":
		return divsql.Open(divsql.ServerName(strings.TrimSpace(arg)))
	case "diverse":
		var names []divsql.ServerName
		for _, p := range strings.Split(arg, ",") {
			names = append(names, divsql.ServerName(strings.TrimSpace(p)))
		}
		return divsql.OpenDiverse(names...)
	case "replicated":
		name, nStr, ok := strings.Cut(arg, ",")
		n := 2
		if ok {
			v, err := strconv.Atoi(strings.TrimSpace(nStr))
			if err != nil {
				return nil, fmt.Errorf("sqldriver: bad replica count %q", nStr)
			}
			n = v
		}
		return divsql.OpenReplicated(divsql.ServerName(strings.TrimSpace(name)), n)
	default:
		return nil, fmt.Errorf("sqldriver: unknown mode %q", mode)
	}
}

// conn is one database/sql connection: one session of an endpoint,
// in-process or across the wire, carrying the connection's transaction
// scope.
type conn struct {
	sess core.Session
	// broken reports a session whose transport has failed (wire modes;
	// nil in-process, where a session cannot lose its endpoint).
	broken func() bool
}

var (
	_ driver.Conn        = (*conn)(nil)
	_ driver.ConnBeginTx = (*conn)(nil)
	_ driver.Validator   = (*conn)(nil)
)

// IsValid implements driver.Validator: database/sql discards the
// connection once its transport has failed, so the pool's next statement
// dials afresh instead of failing on a dead socket forever. The
// statement that met the failure reports it as it is — never
// driver.ErrBadConn, which would have database/sql silently run it
// again when it may already have executed.
func (c *conn) IsValid() bool { return c.broken == nil || !c.broken() }

// Prepare prepares the statement server-side: the endpoint session
// parses, dialect-checks and plans the text once (? and $n placeholders
// both work), and every execution ships typed arguments through the
// engine's bind path. Nothing is ever interpolated into SQL text.
func (c *conn) Prepare(query string) (driver.Stmt, error) {
	st, err := c.sess.Prepare(query)
	if err != nil {
		return nil, err
	}
	return &stmt{st: st}, nil
}

// Close releases the connection's session, rolling back any open
// transaction. The endpoint itself (and its data) survives.
func (c *conn) Close() error { return c.sess.Close() }

// Begin starts a transaction on this connection's session.
func (c *conn) Begin() (driver.Tx, error) {
	return c.BeginTx(context.TODO(), driver.TxOptions{})
}

// BeginTx starts a transaction at the requested isolation level. The
// level is issued as the transaction's first statement (SET TRANSACTION
// ISOLATION LEVEL ...) — ordinary statement text, so the wire protocol
// needs no frame for it — and scopes to this transaction, leaving the
// session default untouched. A level the endpoint's dialect rejects
// fails here, before any work runs inside the transaction.
func (c *conn) BeginTx(ctx context.Context, opts driver.TxOptions) (driver.Tx, error) {
	iso, err := isoStatement(opts)
	if err != nil {
		return nil, err
	}
	if _, _, err := c.sess.Exec("BEGIN TRANSACTION"); err != nil {
		return nil, err
	}
	if iso != "" {
		if _, _, err := c.sess.Exec(iso); err != nil {
			_, _, _ = c.sess.Exec("ROLLBACK")
			return nil, err
		}
	}
	return &tx{conn: c}, nil
}

// isoStatement maps database/sql transaction options to the SET
// TRANSACTION statement requesting them ("" for the default level).
func isoStatement(opts driver.TxOptions) (string, error) {
	if opts.ReadOnly {
		return "", errors.New("sqldriver: read-only transactions are not supported")
	}
	switch sql.IsolationLevel(opts.Isolation) {
	case sql.LevelDefault:
		return "", nil
	case sql.LevelReadUncommitted:
		return "SET TRANSACTION ISOLATION LEVEL READ UNCOMMITTED", nil
	case sql.LevelReadCommitted:
		return "SET TRANSACTION ISOLATION LEVEL READ COMMITTED", nil
	case sql.LevelRepeatableRead:
		return "SET TRANSACTION ISOLATION LEVEL REPEATABLE READ", nil
	case sql.LevelSnapshot:
		return "SET TRANSACTION ISOLATION LEVEL SNAPSHOT", nil
	case sql.LevelSerializable:
		return "SET TRANSACTION ISOLATION LEVEL SERIALIZABLE", nil
	}
	return "", fmt.Errorf("sqldriver: unsupported isolation level %v", sql.IsolationLevel(opts.Isolation))
}

type tx struct{ conn *conn }

func (t *tx) Commit() error {
	_, _, err := t.conn.sess.Exec("COMMIT")
	return err
}

func (t *tx) Rollback() error {
	_, _, err := t.conn.sess.Exec("ROLLBACK")
	return err
}

// stmt adapts a server-side prepared statement (core.Statement) to
// database/sql's driver.Stmt. Arguments cross the boundary as typed
// values — the driver's only job is the driver.Value ↔ types.Value
// mapping.
type stmt struct {
	st core.Statement
}

var (
	_ driver.Stmt             = (*stmt)(nil)
	_ driver.StmtExecContext  = (*stmt)(nil)
	_ driver.StmtQueryContext = (*stmt)(nil)
)

func (s *stmt) Close() error  { return s.st.Close() }
func (s *stmt) NumInput() int { return s.st.NumParams() }

func (s *stmt) Exec(args []driver.Value) (driver.Result, error) {
	vals, err := toTypesValues(args)
	if err != nil {
		return nil, err
	}
	res, _, err := s.st.Exec(vals...)
	if err != nil {
		return nil, err
	}
	var affected int64
	if res != nil {
		affected = res.Affected
	}
	return result{affected: affected}, nil
}

func (s *stmt) Query(args []driver.Value) (driver.Rows, error) {
	vals, err := toTypesValues(args)
	if err != nil {
		return nil, err
	}
	res, _, err := s.st.Exec(vals...)
	if err != nil {
		return nil, err
	}
	if res == nil || res.Kind != engine.ResultRows {
		return &rows{}, nil
	}
	// The rows are read while the connection runs other statements: an
	// in-process result lives only until its session's next one.
	res = res.Clone()
	return &rows{cols: res.Columns, data: res.Rows}, nil
}

// ExecContext implements driver.StmtExecContext (the context is
// consulted up front; the simulated engines execute synchronously).
func (s *stmt) ExecContext(ctx context.Context, args []driver.NamedValue) (driver.Result, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return s.Exec(namedToValues(args))
}

// QueryContext implements driver.StmtQueryContext.
func (s *stmt) QueryContext(ctx context.Context, args []driver.NamedValue) (driver.Rows, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return s.Query(namedToValues(args))
}

func namedToValues(named []driver.NamedValue) []driver.Value {
	out := make([]driver.Value, len(named))
	for i, nv := range named {
		out[i] = nv.Value
	}
	return out
}

// toTypesValues maps database/sql driver values onto the engine's typed
// value system. time.Time maps to the engine's DATE (stored normalized
// as YYYY-MM-DD, the representation the four dialects share).
func toTypesValues(args []driver.Value) ([]types.Value, error) {
	if len(args) == 0 {
		return nil, nil
	}
	out := make([]types.Value, len(args))
	for i, a := range args {
		switch x := a.(type) {
		case nil:
			out[i] = types.Null()
		case int64:
			out[i] = types.NewInt(x)
		case float64:
			out[i] = types.NewFloat(x)
		case bool:
			out[i] = types.NewBool(x)
		case string:
			out[i] = types.NewString(x)
		case []byte:
			out[i] = types.NewString(string(x))
		case time.Time:
			out[i] = types.NewDate(x.Format("2006-01-02"))
		default:
			return nil, fmt.Errorf("sqldriver: unsupported argument type %T", a)
		}
	}
	return out, nil
}

type result struct{ affected int64 }

func (r result) LastInsertId() (int64, error) {
	return 0, errors.New("sqldriver: LastInsertId is not supported")
}

func (r result) RowsAffected() (int64, error) { return r.affected, nil }

type rows struct {
	cols []string
	data [][]types.Value
	pos  int
}

var _ driver.Rows = (*rows)(nil)

func (r *rows) Columns() []string { return r.cols }
func (r *rows) Close() error      { return nil }

func (r *rows) Next(dest []driver.Value) error {
	if r.pos >= len(r.data) {
		return io.EOF
	}
	row := r.data[r.pos]
	r.pos++
	for i := range dest {
		if i >= len(row) {
			dest[i] = nil
			continue
		}
		dest[i] = toDriverValue(row[i])
	}
	return nil
}

func toDriverValue(v types.Value) driver.Value {
	switch v.K {
	case types.KindNull:
		return nil
	case types.KindInt:
		return v.I
	case types.KindFloat:
		return v.F()
	case types.KindBool:
		return v.B()
	default:
		return v.S
	}
}
