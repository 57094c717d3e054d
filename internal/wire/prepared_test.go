package wire

import (
	"strings"
	"testing"

	"divsql/internal/dialect"
	"divsql/internal/server"
	"divsql/internal/sql/types"
)

func dialPrepared(t *testing.T, name string) *Session {
	t.Helper()
	srv, err := server.New(dialect.ServerName(name), nil)
	if err != nil {
		t.Fatal(err)
	}
	ws := NewServer(srv)
	addr, err := ws.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = ws.Close() })
	return dialSession(t, addr)
}

func TestWirePrepareBindRoundTrip(t *testing.T) {
	c := dialPrepared(t, "PG")
	if _, err := c.Exec("CREATE TABLE T (A INT, S VARCHAR(20))"); err != nil {
		t.Fatal(err)
	}
	ins, err := c.Prepare("INSERT INTO T VALUES (?, ?)")
	if err != nil {
		t.Fatal(err)
	}
	if ins.NumParams() != 2 {
		t.Fatalf("NumParams = %d", ins.NumParams())
	}
	// Hostile payloads survive the typed path: tabs, quotes, newlines.
	hostile := "a\tb'c\nd,e"
	if _, err := ins.Exec(types.NewInt(1), types.NewString(hostile)); err != nil {
		t.Fatal(err)
	}
	if _, err := ins.Exec(types.NewInt(2), types.Null()); err != nil {
		t.Fatal(err)
	}
	sel, err := c.Prepare("SELECT S FROM T WHERE A = $1")
	if err != nil {
		t.Fatal(err)
	}
	res, err := sel.Exec(types.NewInt(1))
	if err != nil || len(res.Rows) != 1 {
		t.Fatalf("bound select: %+v %v", res, err)
	}
	// The wire flattens newlines in result cells (tab-separated rows);
	// everything else must round-trip.
	got := res.Rows[0][0].S
	if !strings.Contains(got, "b'c") || !strings.Contains(got, "d,e") {
		t.Errorf("hostile payload mangled: %q", got)
	}
	res, err = sel.Exec(types.NewInt(2))
	if err != nil || len(res.Rows) != 1 || !res.Rows[0][0].IsNull() {
		t.Fatalf("NULL round-trip: %+v %v", res, err)
	}
	if err := sel.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := sel.Exec(types.NewInt(1)); err == nil {
		t.Error("closed statement must reject execution")
	}
}

// Trailing spaces survive the frame: the typed encoding escapes spaces,
// so the protocol's whitespace handling cannot eat them. The endpoint is
// IB, whose bind rules leave trailing spaces alone (on PG the trim would
// be the server's own modeled coercion, not a wire artifact).
func TestWireBindPreservesTrailingSpaces(t *testing.T) {
	c := dialPrepared(t, "IB")
	if _, err := c.Exec("CREATE TABLE T (A INT, S VARCHAR(20))"); err != nil {
		t.Fatal(err)
	}
	ins, err := c.Prepare("INSERT INTO T VALUES (?, ?)")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ins.Exec(types.NewInt(3), types.NewString("pad  ")); err != nil {
		t.Fatal(err)
	}
	res, err := c.Exec("SELECT S FROM T WHERE A = 3")
	if err != nil || len(res.Rows) != 1 || res.Rows[0][0].S != "pad  " {
		t.Fatalf("trailing spaces lost on the wire: %+v %v", res, err)
	}
}

func TestWirePrepareErrors(t *testing.T) {
	c := dialPrepared(t, "PG")
	if _, err := c.Prepare("SELEC nonsense"); err == nil {
		t.Error("syntax error must surface at PREPARE")
	}
	if _, err := c.Exec("CREATE TABLE T (A INT)"); err != nil {
		t.Fatal(err)
	}
	st, err := c.Prepare("SELECT A FROM T WHERE A = ?")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st.Exec(); err == nil || !strings.Contains(err.Error(), "bind error") {
		t.Errorf("missing argument: %v", err)
	}
}
