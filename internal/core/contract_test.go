package core_test

import (
	"errors"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"divsql/internal/core"
	"divsql/internal/dialect"
	"divsql/internal/engine"
	"divsql/internal/middleware"
	"divsql/internal/replication"
	"divsql/internal/server"
	"divsql/internal/shard"
	"divsql/internal/sql/stmt"
	"divsql/internal/sql/types"
)

// countingBackend counts every statement its sessions send to the
// server: texts and prepared executions alike.
type countingBackend struct {
	*server.Server
	n *atomic.Int64
}

func (b countingBackend) OpenSession() core.Session {
	return countingSession{b.Server.OpenSession(), b.n}
}

type countingSession struct {
	core.Session
	n *atomic.Int64
}

func (s countingSession) Exec(sql string) (*engine.Result, time.Duration, error) {
	s.n.Add(1)
	return s.Session.Exec(sql)
}

func (s countingSession) Prepare(sql string) (core.Statement, error) {
	st, err := s.Session.Prepare(sql)
	if err != nil {
		return nil, err
	}
	return countingStmt{st, s.n}, nil
}

type countingStmt struct {
	core.Statement
	n *atomic.Int64
}

func (s countingStmt) Exec(args ...types.Value) (*engine.Result, time.Duration, error) {
	s.n.Add(1)
	return s.Statement.Exec(args...)
}

func newServers(t *testing.T, names ...dialect.ServerName) []*server.Server {
	t.Helper()
	var out []*server.Server
	for _, n := range names {
		s, err := server.New(n, nil)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, s)
	}
	return out
}

// TestPreparedContract holds every in-process endpoint to one prepared
// statement contract: SQL and NumParams read the prepared text, Close is
// idempotent, and a closed statement or an argument vector of the wrong
// length fails with no latency before anything runs — on the router,
// before it routes or joins a shard to the open transaction.
func TestPreparedContract(t *testing.T) {
	cases := []struct {
		name string
		// open returns the endpoint and a rendering of what it has sent
		// below it ("" where only the table's rows can tell).
		open func(t *testing.T) (core.SessionExecutor, func() string)
	}{
		{"server", func(t *testing.T) (core.SessionExecutor, func() string) {
			return newServers(t, dialect.PG)[0], func() string { return "" }
		}},
		{"replication", func(t *testing.T) (core.SessionExecutor, func() string) {
			g, err := replication.NewGroup(false, newServers(t, dialect.PG, dialect.PG)...)
			if err != nil {
				t.Fatal(err)
			}
			return g, func() string { return "" }
		}},
		{"middleware", func(t *testing.T) (core.SessionExecutor, func() string) {
			d, err := middleware.New(middleware.DefaultConfig(), newServers(t, dialect.PG, dialect.OR, dialect.MS)...)
			if err != nil {
				t.Fatal(err)
			}
			return d, func() string { return "" }
		}},
		{"router", func(t *testing.T) (core.SessionExecutor, func() string) {
			var n atomic.Int64
			var backends []shard.Backend
			for _, s := range newServers(t, dialect.PG, dialect.PG) {
				backends = append(backends, countingBackend{s, &n})
			}
			r, err := shard.New(shard.Config{BandColumns: map[string]string{"T": "A"}}, backends...)
			if err != nil {
				t.Fatal(err)
			}
			return r, func() string { return fmt.Sprintf("%+v, %d sent to shards", r.Routes(), n.Load()) }
		}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			ep, activity := c.open(t)
			sess := ep.OpenSession()
			defer sess.Close()
			exec := func(sql string) *engine.Result {
				t.Helper()
				res, _, err := sess.Exec(sql)
				if err != nil {
					t.Fatalf("%s: %v", sql, err)
				}
				return res
			}
			rows := func() int64 {
				t.Helper()
				return exec("SELECT COUNT(*) FROM T").Rows[0][0].AsInt()
			}
			exec("CREATE TABLE T (A INT, B INT)")

			const text = "INSERT INTO T (A, B) VALUES ($1, $2)"
			st, err := sess.Prepare(text)
			if err != nil {
				t.Fatal(err)
			}
			if st.SQL() != text || st.NumParams() != 2 {
				t.Fatalf("SQL() = %q, NumParams() = %d; want %q, 2", st.SQL(), st.NumParams(), text)
			}

			before := activity()
			for _, args := range [][]types.Value{nil, {types.NewInt(1)}, {types.NewInt(1), types.NewInt(2), types.NewInt(3)}} {
				_, lat, err := st.Exec(args...)
				if !errors.Is(err, stmt.ErrBind) || lat != 0 {
					t.Errorf("Exec with %d arguments: latency %v, error %v; want a bind error with latency 0", len(args), lat, err)
				}
			}
			if got := activity(); got != before {
				t.Errorf("an argument-count mismatch ran below the endpoint: %s, then %s", before, got)
			}
			if n := rows(); n != 0 {
				t.Fatalf("an argument-count mismatch stored %d rows", n)
			}
			if _, _, err := st.Exec(types.NewInt(1), types.NewInt(10)); err != nil {
				t.Fatal(err)
			}

			exec("BEGIN")
			before = activity()
			for i := 0; i < 2; i++ {
				if err := st.Close(); err != nil {
					t.Fatalf("Close #%d: %v", i+1, err)
				}
			}
			_, lat, err := st.Exec(types.NewInt(2), types.NewInt(20))
			if err == nil || !strings.Contains(err.Error(), "statement is closed") || lat != 0 {
				t.Errorf("Exec after Close: latency %v, error %v; want \"statement is closed\" with latency 0", lat, err)
			}
			if got := activity(); got != before {
				t.Errorf("a closed statement ran below the endpoint: %s, then %s", before, got)
			}
			exec("COMMIT")
			if n := rows(); n != 1 {
				t.Errorf("the table holds %d rows, want the one executed before Close", n)
			}
		})
	}
}
