package server

import (
	"errors"
	"fmt"
	"testing"

	"divsql/internal/core"
	"divsql/internal/dialect"
	"divsql/internal/sql/stmt"
	"divsql/internal/sql/types"
)

func TestPrepareExecRoundTrip(t *testing.T) {
	s, _ := New(dialect.PG, nil)
	sess := s.NewSession()
	defer sess.Close()
	if _, _, err := sess.Exec("CREATE TABLE T (A INT, S VARCHAR(10))"); err != nil {
		t.Fatal(err)
	}
	ins, err := sess.Prepare("INSERT INTO T VALUES (?, ?)")
	if err != nil {
		t.Fatal(err)
	}
	if ins.NumParams() != 2 {
		t.Fatalf("NumParams = %d", ins.NumParams())
	}
	for i := 0; i < 3; i++ {
		if _, _, err := ins.Exec(types.NewInt(int64(i)), types.NewString(fmt.Sprintf("v%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	sel, err := sess.Prepare("SELECT S FROM T WHERE A = $1")
	if err != nil {
		t.Fatal(err)
	}
	res, _, err := sel.Exec(types.NewInt(1))
	if err != nil || len(res.Rows) != 1 || res.Rows[0][0].S != "v1" {
		t.Fatalf("bound select: %+v %v", res, err)
	}
}

// Preparing a text resolves it through stmt.Resolve: one handle per
// text, whichever session or server prepares it.
func TestPrepareSharesHandle(t *testing.T) {
	s, _ := New(dialect.OR, nil)
	sess := s.NewSession()
	defer sess.Close()
	if _, _, err := sess.Exec("CREATE TABLE T (A INT)"); err != nil {
		t.Fatal(err)
	}
	handle := func(c *Session) *stmt.Parsed {
		st, err := c.Prepare("SELECT A FROM T WHERE A > ?")
		if err != nil {
			t.Fatal(err)
		}
		return st.(*core.Prepared).Handle()
	}
	other := s.NewSession()
	defer other.Close()
	pg, _ := New(dialect.PG, nil)
	elsewhere := pg.NewSession()
	defer elsewhere.Close()
	if h := handle(sess); h != handle(sess) || h != handle(other) || h != handle(elsewhere) {
		t.Error("same text must resolve to the same handle on every session and server")
	}
}

func TestPrepareErrors(t *testing.T) {
	s, _ := New(dialect.MS, nil)
	sess := s.NewSession()
	defer sess.Close()
	if _, err := sess.Prepare("SELEC nonsense"); err == nil {
		t.Error("syntax error must fail at prepare time")
	}
	// Dialect gates apply at prepare time, like on a real server.
	if _, err := sess.Prepare("CREATE SEQUENCE SQ1"); err == nil {
		t.Error("MS has no sequences; prepare must reject")
	}
	// Parameters in DDL are rejected at prepare time.
	if _, err := sess.Prepare("CREATE TABLE P (A INT DEFAULT $1)"); err == nil {
		t.Error("param in DDL must fail at prepare time")
	}
	// Arg-count mismatch is a bind error at execution time.
	if _, _, err := sess.Exec("CREATE TABLE T (A INT)"); err != nil {
		t.Fatal(err)
	}
	st, err := sess.Prepare("SELECT A FROM T WHERE A = ?")
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := st.Exec(); err == nil {
		t.Error("missing argument must fail")
	}
	if _, _, err := st.Exec(types.NewInt(1), types.NewInt(2)); err == nil {
		t.Error("extra argument must fail")
	}
}

func TestDialectBindCoercionDiffers(t *testing.T) {
	// The same bound argument vector lands differently on different
	// servers: OR binds '' as NULL, PG stores it as the empty string.
	setup := func(name dialect.ServerName) *Session {
		srv, err := New(name, nil)
		if err != nil {
			t.Fatal(err)
		}
		sess := srv.NewSession()
		if _, _, err := sess.Exec("CREATE TABLE T (S VARCHAR(10))"); err != nil {
			t.Fatal(err)
		}
		st, err := sess.Prepare("INSERT INTO T VALUES ($1)")
		if err != nil {
			t.Fatal(err)
		}
		if _, _, err := st.Exec(types.NewString("")); err != nil {
			t.Fatal(err)
		}
		return sess
	}
	orSess := setup(dialect.OR)
	pgSess := setup(dialect.PG)
	check := func(sess *Session, wantNull bool, name string) {
		res, _, err := sess.Exec("SELECT S FROM T")
		if err != nil || len(res.Rows) != 1 {
			t.Fatalf("%s: %+v %v", name, res, err)
		}
		if got := res.Rows[0][0].IsNull(); got != wantNull {
			t.Errorf("%s: IsNull=%v want %v", name, got, wantNull)
		}
	}
	check(orSess, true, "OR")
	check(pgSess, false, "PG")
}

func TestPrepareOnCrashedServer(t *testing.T) {
	s, _ := New(dialect.PG, nil)
	sess := s.NewSession()
	defer sess.Close()
	if _, _, err := sess.Exec("CREATE TABLE T (A INT)"); err != nil {
		t.Fatal(err)
	}
	st, err := sess.Prepare("SELECT A FROM T")
	if err != nil {
		t.Fatal(err)
	}
	s.crash()
	if _, err := sess.Prepare("SELECT A FROM T"); !errors.Is(err, ErrCrashed) {
		t.Errorf("prepare on crashed server: %v", err)
	}
	if _, _, err := st.Exec(); !errors.Is(err, ErrCrashed) {
		t.Errorf("exec on crashed server: %v", err)
	}
	s.Restart()
	if _, _, err := st.Exec(); err != nil {
		t.Errorf("prepared statement must survive a restart: %v", err)
	}
}
