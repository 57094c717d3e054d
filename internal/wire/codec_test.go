package wire

import (
	"bytes"
	"errors"
	"math"
	"math/rand"
	"strconv"
	"strings"
	"testing"
	"time"

	"divsql/internal/core"
	"divsql/internal/engine"
	"divsql/internal/sql/types"
)

func decodeBytes(b []byte) (response, error) {
	return readResponse(newLineReader(bytes.NewReader(b), 0))
}

// refDecodeCell is the cell decoder of the commit before the codec
// rewrite, kept as the reference decodeCell must agree with.
func refDecodeCell(cell string) types.Value {
	if cell == nullToken {
		return types.Null()
	}
	if i, err := strconv.ParseInt(cell, 10, 64); err == nil {
		return types.NewInt(i)
	}
	if f, err := strconv.ParseFloat(cell, 64); err == nil {
		return types.NewFloat(f)
	}
	return types.NewString(cell)
}

// refFlatten is the framing rule for cells and column names.
var refFlatten = strings.NewReplacer("\t", " ", "\n", " ", "\r", " ")

// sameValue reports whether two values are the same cell: == compares a
// FLOAT's bits (so -0 and +0 differ), and any two NaNs count as the same.
func sameValue(a, b types.Value) bool {
	if a.K == types.KindFloat && b.K == types.KindFloat && math.IsNaN(a.F()) && math.IsNaN(b.F()) {
		return true
	}
	return a == b
}

var fixedCells = []string{
	"", "0", "-0", "+7", "007", "42", "-42", "9223372036854775807", "-9223372036854775808",
	"9223372036854775808", "123456789012345678", "1234567890123456789", "12345678901234567890",
	"1.5", "-1.5e10", "1e400", ".5", "5.", "0x1p-2", "0x10", "1_000", "0x1_0p0", "Infinity", "-inf", "+Inf",
	"NaN", "nan", "infinit", "i", "N", `\N`, `\n`, "NULL", "TRUE", "2026-01-02", "1-2", "--1", "+", "-", ".",
	"e5", "1e", "abc", "a b", "Item 7", "Name", " 1", "1 ", "१२३",
}

func randomCell(rng *rand.Rand) string {
	const alphabet = "0123456789+-.eExXpP_iInNfFaAtTyY aZ\\"
	n := rng.Intn(12)
	b := make([]byte, n)
	for i := range b {
		b[i] = alphabet[rng.Intn(len(alphabet))]
	}
	return string(b)
}

func TestDecodeCellMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	cells := append([]string(nil), fixedCells...)
	for i := 0; i < 20000; i++ {
		cells = append(cells, randomCell(rng))
	}
	for _, cell := range cells {
		want := refDecodeCell(cell)
		got, numeric := decodeCell([]byte(cell))
		if !numeric {
			got = types.NewString(cell)
		}
		if !sameValue(got, want) {
			t.Fatalf("decodeCell(%q) = %#v, reference %#v", cell, got, want)
		}
	}
}

func randomValue(rng *rand.Rand) types.Value {
	switch rng.Intn(8) {
	case 0:
		return types.Null()
	case 1:
		return types.NewInt(rng.Int63() - rng.Int63())
	case 2:
		return types.NewInt(int64(rng.Intn(200) - 100))
	case 3:
		return types.NewFloat(rng.NormFloat64() * math.Pow(10, float64(rng.Intn(40)-20)))
	case 4:
		return types.NewBool(rng.Intn(2) == 0)
	case 5:
		return types.NewDate("2026-01-" + strconv.Itoa(10+rng.Intn(18)))
	case 6:
		return types.NewString(fixedCells[rng.Intn(len(fixedCells))])
	default:
		const alphabet = "ab \t\n\r\\,'N0."
		b := make([]byte, rng.Intn(20))
		for i := range b {
			b[i] = alphabet[rng.Intn(len(alphabet))]
		}
		return types.NewString(string(b))
	}
}

// TestResultRoundTripProperty: appendResult → readResponse returns what
// the reference rules (flatten, then the reference cell decoder) predict,
// for generated results including NULLs, empty strings, framing bytes in
// cells and headers, and rows longer than the reader's buffer.
func TestResultRoundTripProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for iter := 0; iter < 300; iter++ {
		ncols := 1 + rng.Intn(6)
		nrows := rng.Intn(8)
		res := &engine.Result{Kind: engine.ResultRows, Affected: int64(rng.Intn(3))}
		for c := 0; c < ncols; c++ {
			res.Columns = append(res.Columns, []string{"A", "col b", "T\tAB", "N\nL", ""}[rng.Intn(5)])
		}
		for r := 0; r < nrows; r++ {
			row := make([]types.Value, ncols)
			for c := range row {
				row[c] = randomValue(rng)
			}
			if iter%10 == 0 && r == nrows-1 {
				// A row well past the 4 KiB bufio buffer: the grow path.
				row[0] = types.NewString(strings.Repeat("long\tcell ", 300+rng.Intn(900)))
			}
			res.Rows = append(res.Rows, row)
		}
		lat := time.Duration(rng.Intn(1e6)) * time.Microsecond
		wire := appendResult([]byte("@17 "), res, lat, nil)
		// A second response behind it proves the first consumed exactly
		// its own bytes.
		wire = append(wire, doneResponse...)
		rd := newLineReader(bytes.NewReader(wire), 0)
		resp, err := readResponse(rd)
		if err != nil {
			t.Fatalf("iter %d: %v\n%q", iter, err, wire)
		}
		got := resp.res
		if resp.tag != 17 || resp.err != nil || got == nil || got.Latency != lat || got.Affected != res.Affected {
			t.Fatalf("iter %d: head %+v", iter, resp)
		}
		if len(got.Columns) != ncols || len(got.Rows) != nrows {
			t.Fatalf("iter %d: shape %dx%d, want %dx%d", iter, len(got.Columns), len(got.Rows), ncols, nrows)
		}
		for c, name := range res.Columns {
			if got.Columns[c] != refFlatten.Replace(name) {
				t.Fatalf("iter %d: column %d = %q, sent %q", iter, c, got.Columns[c], name)
			}
		}
		for r, row := range res.Rows {
			if len(got.Rows[r]) != ncols {
				t.Fatalf("iter %d row %d: %d cells", iter, r, len(got.Rows[r]))
			}
			for c, v := range row {
				want := types.Null()
				if !v.IsNull() {
					want = refDecodeCell(refFlatten.Replace(v.String()))
				}
				if !sameValue(got.Rows[r][c], want) {
					t.Fatalf("iter %d cell [%d][%d]: sent %#v, got %#v, want %#v", iter, r, c, v, got.Rows[r][c], want)
				}
			}
		}
		if next, err := readResponse(rd); err != nil || next.res == nil {
			t.Fatalf("iter %d: following response: %+v %v", iter, next, err)
		}
	}
}

func TestAppendResultErrorsAndCounts(t *testing.T) {
	for _, tc := range []struct {
		res  *engine.Result
		err  error
		want string
	}{
		{nil, nil, "OK 0 0 0 0\n.\n"},
		{&engine.Result{Kind: engine.ResultCount, Affected: 5, Columns: []string{"X"}}, nil, "OK 0 0 0 5\n.\n"},
		{nil, errors.New("two\nlines\r"), "ERR two lines\r\n"},
	} {
		if got := string(appendResult(nil, tc.res, 0, tc.err)); got != tc.want {
			t.Errorf("appendResult(%+v, %v) = %q, want %q", tc.res, tc.err, got, tc.want)
		}
	}
}

// TestOKHeadVariants: the three-field head of servers older than the
// affected-row count still decodes, and fields past the fourth (a newer
// server's) are ignored.
func TestOKHeadVariants(t *testing.T) {
	for _, tc := range []struct {
		wire     string
		tag      uint64
		lat      time.Duration
		affected int64
		rows     int
	}{
		{"OK 1 1 5\nA\n1\n.\n", 0, 5 * time.Microsecond, 0, 1},
		{"@4 OK 0 0 9\n.\n", 4, 9 * time.Microsecond, 0, 0},
		{"OK 0 0 9 3\r\n.\r\n", 0, 9 * time.Microsecond, 3, 0},
		{"@x OK 1 2 5 2 extra fields\nA\n1\n2\n.\n", 0, 5 * time.Microsecond, 2, 2},
	} {
		resp, err := decodeBytes([]byte(tc.wire))
		if err != nil || resp.res == nil {
			t.Fatalf("%q: %+v %v", tc.wire, resp, err)
		}
		if resp.tag != tc.tag || resp.res.Latency != tc.lat || resp.res.Affected != tc.affected || len(resp.res.Rows) != tc.rows {
			t.Errorf("%q decoded as %+v (tag %d)", tc.wire, resp.res, resp.tag)
		}
	}
	for _, bad := range []string{
		"OK\n.\n", "OK 1\n.\n", "OK 1 1\n.\n", "OK -1 0 0 0\n.\n", "OK 0 -1 0 0\n.\n", "OK a b c\n.\n",
		"OK 0 0 0 0\nx\n", "OK 1 1 0 0\nA\n1\n", "@ OK 0 0 0 0\n.\n", "NOPE\n", "ERR\n", "",
	} {
		if resp, err := decodeBytes([]byte(bad)); err == nil {
			t.Errorf("%q decoded as %+v, want an error", bad, resp)
		}
	}
}

// TestResultHeaderFraming: a column name containing a tab or newline
// used to split the header line into extra fields; it is flattened like
// a cell.
func TestResultHeaderFraming(t *testing.T) {
	res, err := dialSession(t, startStub(t)).Exec("SELECT TABHEAD")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Columns) != 2 || res.Columns[0] != "'A B'" || res.Columns[1] != "C D E" {
		t.Errorf("columns %q", res.Columns)
	}
	if len(res.Rows) != 1 || len(res.Rows[0]) != 2 || res.Rows[0][0].S != "a b" || res.Rows[0][1].I != 1 {
		t.Errorf("rows %v", res.Rows)
	}
}

func TestAppendRequestFlattensAndPrefixes(t *testing.T) {
	for _, tc := range []struct {
		got  []byte
		want string
	}{
		{appendRequest(nil, 0, 0, verbExec, "SELECT\r\n1"), "EXEC SELECT  1\n"},
		{appendRequest(nil, 3, 2, verbExec, "A\tB"), "@3 #2 EXEC A\tB\n"},
		{appendRequest(nil, 12, 0, verbSession, ""), "@12 SESSION\n"},
		{appendBind(nil, 0, 0, "s1", nil), "BIND s1\n"},
		{appendBind(nil, 5, 1, "m1_1", []types.Value{types.NewInt(1), types.Null(), types.NewString("a b")}), "@5 #1 BIND m1_1 I:1\tN\tS:a\\sb\n"},
	} {
		if string(tc.got) != tc.want {
			t.Errorf("got %q, want %q", tc.got, tc.want)
		}
	}
}

// TestReadLineBounds: lines longer than the bufio buffer are assembled,
// a bounded reader refuses one past its limit, and the long-line buffer
// is not kept once it has grown large.
func TestReadLineBounds(t *testing.T) {
	long := strings.Repeat("x", 3*maxRetainedLine)
	rd := newLineReader(strings.NewReader("short\r\n"+long+"\n\nlast"), 0)
	for i, want := range []string{"short", long, ""} {
		line, err := rd.readLine()
		if err != nil || string(line) != want {
			t.Fatalf("line %d: %d bytes, %v", i, len(line), err)
		}
	}
	if cap(rd.long) <= maxRetainedLine {
		t.Fatalf("long buffer cap %d: test must exceed maxRetainedLine", cap(rd.long))
	}
	if _, err := rd.readLine(); err == nil {
		t.Error("an unterminated last line must be an error")
	}

	rd = newLineReader(strings.NewReader(strings.Repeat("y", 6000)+"\n"+strings.Repeat("z", 20000)+"\nok\n"), 10000)
	if line, err := rd.readLine(); err != nil || len(line) != 6000 {
		t.Fatalf("line under the bound: %d bytes, %v", len(line), err)
	}
	if _, err := rd.readLine(); err != errLineTooLong {
		t.Fatalf("line over the bound: %v", err)
	}
}

// allocStub answers every prepared execution with one shared result, so
// the executor contributes no allocations of its own.
type allocStub struct{ stubExec }

var allocResult = &engine.Result{
	Kind:    engine.ResultRows,
	Columns: []string{"ID", "NAME"},
	Rows:    [][]types.Value{{types.NewInt(42), types.NewString("alice")}},
}

func (allocStub) OpenSession() core.Session { return allocSession{} }

type allocSession struct{ stubSession }

func (allocSession) Prepare(sql string) (core.Statement, error) { return allocStmt{}, nil }

type allocStmt struct{}

func (allocStmt) SQL() string    { return "" }
func (allocStmt) NumParams() int { return 1 }
func (allocStmt) Close() error   { return nil }
func (allocStmt) Exec(args ...types.Value) (*engine.Result, time.Duration, error) {
	return allocResult, stubLatency, nil
}

func muxPointRead(tb testing.TB) *MuxStmt {
	tb.Helper()
	ws := NewServer(allocStub{})
	addr, err := ws.Listen("127.0.0.1:0")
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { _ = ws.Close() })
	m, err := DialMux(addr)
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { _ = m.Close() })
	s, err := m.Session()
	if err != nil {
		tb.Fatal(err)
	}
	st, err := s.Prepare("SELECT ID, NAME FROM T WHERE ID = ?")
	if err != nil {
		tb.Fatal(err)
	}
	return st
}

// TestWireRoundTripAllocs holds the whole round trip — Mux encode, TCP,
// server decode, execute on a stub, server encode, Mux decode — to its
// allocation budget. Mallocs are counted process-wide, so the server's
// goroutines are in the number. What is left is what the caller is
// handed (Result, its columns, rows and cell backing, one string per
// header and per text-bearing row) plus the request line the server
// copies out of its reader.
func TestWireRoundTripAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates")
	}
	st := muxPointRead(t)
	arg := types.NewInt(42)
	exec := func() {
		res, err := st.Exec(arg)
		if err != nil || len(res.Rows) != 1 || res.Rows[0][1].S != "alice" {
			t.Fatalf("%+v %v", res, err)
		}
	}
	exec()
	const budget = 12
	if got := testing.AllocsPerRun(500, exec); got > budget {
		t.Errorf("%.1f allocations per round trip, budget %d", got, budget)
	} else {
		t.Logf("%.1f allocations per round trip", got)
	}
}
