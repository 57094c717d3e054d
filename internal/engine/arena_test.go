package engine

import (
	"fmt"
	"reflect"
	"slices"
	"strings"
	"testing"

	"divsql/internal/engine/plan"
	"divsql/internal/sql/types"
)

// isPoison reports whether v reads a poison sentinel, of any reset.
func isPoison(v types.Value) bool {
	return v.K == types.KindString && strings.HasPrefix(v.S, poisonText)
}

// A row the arena handed out reads the poison sentinel once the session's
// next statement starts — poison mode is armed for this package's tests
// (poison_test.go) — and zeroes when it is off. The chunk a small
// statement used is kept for the next; one grown past the retention cap
// is dropped.
func TestArenaPoisonsReclaimedRows(t *testing.T) {
	e := NewOracle()
	s := e.NewSession()
	row := s.mem.table(1, 2)[0]
	row[0], row[1] = types.NewInt(7), types.NewString("kept")
	sessExec(t, s, "BEGIN") // a statement that takes nothing from the arena
	if !isPoison(row[0]) || !isPoison(row[1]) {
		t.Fatalf("a retained arena row reads %v after a reset, want the poison sentinel", row)
	}
	if got := s.mem.values(2); got[0] != (types.Value{}) || got[1] != (types.Value{}) {
		t.Errorf("the arena hands out poisoned values %v, want zeroed ones", got)
	}

	PoisonReclaimed(false)
	defer PoisonReclaimed(true)
	row = s.mem.table(1, 1)[0]
	row[0] = types.NewInt(7)
	s.startStatement()
	if row[0] != (types.Value{}) {
		t.Errorf("without poison a reclaimed value reads %v, want it zeroed", row[0])
	}
	kept := cap(s.mem.vals.buf)
	if kept == 0 || kept > keepVals {
		t.Errorf("a small statement's chunk: kept %d values, want 1..%d", kept, keepVals)
	}
	s.mem.values(2 * keepVals)
	s.startStatement()
	if c := cap(s.mem.vals.buf); c > keepVals {
		t.Errorf("kept a %d-value chunk past the %d cap", c, keepVals)
	}
	// A statement that grew past the cap in doubling chunks leaves the
	// largest one within it, not nothing.
	for range 4 * keepVals / 100 {
		s.mem.values(100)
	}
	s.startStatement()
	if c := cap(s.mem.vals.buf); c <= keepVals/4 || c > keepVals {
		t.Errorf("after a statement past the cap: kept a %d-value chunk, want (%d, %d]", c, keepVals/4, keepVals)
	}
}

// held is how many elements the slab's chunks hold.
func (p *slab[T]) held() int {
	n := cap(p.buf) + cap(p.spare)
	for _, c := range p.done {
		n += cap(c)
	}
	return n
}

// resultShare is how much of what p holds a result's n elements,
// starting at first, account for: the whole chunk when the result starts
// it — a take that does not fit the chunk being carved opens one up to
// twice as large — else the n elements themselves.
func resultShare[T any](p *slab[T], first *T, n int) int {
	for _, c := range append(slices.Clip(p.done), p.buf) {
		if cap(c) > 0 && &c[:1][0] == first {
			return cap(c)
		}
	}
	return n
}

// A nested select run per row, and a builtin's argument vector, give
// their arena memory back once their answer is read: after an UPDATE,
// a correlated SELECT and a forced SELECT, each running a subquery over
// a table of n rows for each of n rows, the arena holds what one run
// needs, not n runs. A subquery run once keeps its rows (in the once
// arena) across those rewinds.
func TestNestedRunsRewindTheArena(t *testing.T) {
	const n = 1000
	e := NewOracle()
	s := e.NewSession()
	sessExec(t, s, "CREATE TABLE IO (K INT)")
	sessExec(t, s, "CREATE TABLE II (K INT)")
	vals := make([]string, n)
	for i := range vals {
		vals[i] = fmt.Sprintf("(%d)", i)
	}
	sessExec(t, s, "INSERT INTO IO VALUES "+strings.Join(vals, ", "))
	sessExec(t, s, "INSERT INTO II VALUES "+strings.Join(vals, ", "))
	for _, tc := range []struct {
		sql   string
		force plan.Force
		rows  int
		held  int // the bound on what the arena holds, in units of n
	}{
		// The replaced rows grow per row between runs: 2n row headers,
		// and the copies the list left behind each time it doubled.
		{"UPDATE IO SET K = ABS(K) WHERE K IN (SELECT K FROM II)", plan.ForceAuto, -1, 8},
		{"SELECT K FROM IO WHERE EXISTS (SELECT K FROM II WHERE II.K + 0 = IO.K)", plan.ForceAuto, n, 4},
		{"SELECT K FROM IO WHERE COALESCE(K IN (SELECT ABS(K) FROM II), FALSE)", plan.ForceFullScan, n, 4},
		// Run once inside a builtin's arguments: its rows outlive the
		// call's rewind, and every later row reads them intact.
		{"SELECT K FROM IO WHERE COALESCE(K IN (SELECT ABS(K) FROM II), FALSE)", plan.ForceAuto, n, 4},
	} {
		p := resolve(t, tc.sql)
		var res *Result
		var err error
		if tc.rows < 0 {
			res, err = s.Exec(p, nil)
		} else {
			res, err = s.ExecSelectVariant(p, tc.force, nil)
		}
		if err != nil {
			t.Fatalf("%q: %v", tc.sql, err)
		}
		if tc.rows < 0 && res.Affected != n || tc.rows >= 0 && len(res.Rows) != tc.rows {
			t.Errorf("%q (%v): %d rows, %d affected, want %d", tc.sql, tc.force, len(res.Rows), res.Affected, max(tc.rows, n))
		}
		// Doubling chunks hold a few times the statement's largest live
		// need — the inner result and, for the UPDATE, its replaced rows
		// — linear in n; a run kept per outer row holds n*n. A SELECT's
		// own result comes from the arena too, and is counted apart.
		v, r := s.mem.vals.held(), s.mem.rows.held()
		var rv, rr int
		if len(res.Rows) > 0 {
			rv = resultShare(&s.mem.vals, &res.Rows[0][0], len(res.Rows)*len(res.Rows[0]))
			rr = resultShare(&s.mem.rows, &res.Rows[0], len(res.Rows))
		}
		t.Logf("%q (%v): the arena holds %d values and %d row headers, the result's share %d and %d", tc.sql, tc.force, v, r, rv, rr)
		if v-rv > tc.held*n || r-rr > tc.held*n {
			t.Errorf("%q (%v): the arena holds %d values and %d row headers besides the result, want <= %d each", tc.sql, tc.force, v-rv, r-rr, tc.held*n)
		}
	}
	if got := rowStrings(sessExec(t, s, "SELECT COUNT(*) FROM IO WHERE COALESCE(K IN (SELECT ABS(K) FROM II), FALSE)")); !reflect.DeepEqual(got, []string{fmt.Sprint(n)}) {
		t.Errorf("a once-run subquery under a builtin: got %q, want [%d]", got, n)
	}
}

// The statement memory gate: on a warm session a join plus an
// uncorrelated IN subquery allocates nothing — the join's slab and hash
// table, the filtered lists, the subquery's rows and IN set and the
// result all come from the arena.
func TestStatementMemoryAllocs(t *testing.T) {
	e := NewOracle()
	s := e.NewSession()
	sessExec(t, s, "CREATE TABLE JA (K INT, V INT)")
	sessExec(t, s, "CREATE TABLE JB (K INT, V INT)")
	for i := 1; i <= 64; i++ {
		sessExec(t, s, fmt.Sprintf("INSERT INTO JA VALUES (%d, %d)", i, i))
		sessExec(t, s, fmt.Sprintf("INSERT INTO JB VALUES (%d, %d)", 65-i, i))
	}
	p := resolve(t, "SELECT JA.V, JB.V FROM JA INNER JOIN JB ON JA.K = JB.K WHERE JA.V IN (SELECT K FROM JB WHERE V > 32)")
	sessExec(t, s, p.Text) // the warm-up run below files the plan
	allocs := testing.AllocsPerRun(50, func() {
		res, err := s.Exec(p, nil)
		if err != nil || len(res.Rows) != 32 {
			t.Fatalf("%d rows, err %v", len(res.Rows), err)
		}
	})
	t.Logf("64x64 join + uncorrelated IN over 32 rows: %.0f allocations", allocs)
	if allocs > 0 {
		t.Errorf("%.0f allocations, want 0", allocs)
	}
}

// A result is its session's until the session's next statement: read
// after it, the Result and its rows read the poison sentinel (armed in
// poison_test.go), never the next statement's data, while a Clone taken
// before reads the statement's values. A change to the clone's names
// never reaches the names the plan hands the next execution.
func TestResultLivesUntilTheNextStatement(t *testing.T) {
	e := NewOracle()
	s := e.NewSession()
	sessExec(t, s, "CREATE TABLE RL (K INT PRIMARY KEY, V VARCHAR(5))")
	sessExec(t, s, "INSERT INTO RL VALUES (1, 'a'), (2, 'b')")
	p := resolve(t, "SELECT K, V FROM RL ORDER BY K")
	for _, next := range []string{"SELECT V, K FROM RL WHERE K = 2", "UPDATE RL SET V = 'c' WHERE K = 1", "BEGIN", "ROLLBACK"} {
		res, err := s.Exec(p, nil)
		if err != nil {
			t.Fatal(err)
		}
		kept, row := res.Clone(), res.Rows[0]
		sessExec(t, s, next)
		if res.Kind != 0 || res.Affected != -1 || len(res.Columns) != 1 || !strings.HasPrefix(res.Columns[0], poisonText) ||
			len(res.Rows) != 1 || len(res.Rows[0]) != 1 || !isPoison(res.Rows[0][0]) {
			t.Errorf("after %q the result reads %+v, want the poison", next, *res)
		}
		if !isPoison(row[0]) || !isPoison(row[1]) {
			t.Errorf("after %q its first row reads %v, want the poison", next, row)
		}
		if got := rowStrings(kept); kept.Kind != ResultRows || !reflect.DeepEqual(kept.Columns, []string{"K", "V"}) ||
			got[0][:2] != "1|" || len(got) != 2 {
			t.Errorf("after %q the clone reads %v %q, want the statement's answer", next, kept.Columns, got)
		}
		kept.Columns[0] = ""
	}
	if res := sessExec(t, s, "SELECT K, V FROM RL ORDER BY K"); !reflect.DeepEqual(res.Columns, []string{"K", "V"}) {
		t.Errorf("a clone's changed names reached the plan's: %q", res.Columns)
	}
}

// Each reset poisons with its own sentinel: two sessions that each keep
// a result past their next statement read two different ones, so a
// comparison of the two stale results disagrees instead of passing as
// agreement.
func TestKeptResultsReadDistinctPoison(t *testing.T) {
	e := NewOracle()
	a, b := e.NewSession(), e.NewSession()
	sessExec(t, a, "CREATE TABLE KP (K INT, V VARCHAR(5))")
	sessExec(t, a, "INSERT INTO KP VALUES (1, 'a'), (2, 'b')")
	p := resolve(t, "SELECT K, V FROM KP ORDER BY K")
	var kept [2]*Result
	var rows [2][]types.Value
	for i, s := range []*Session{a, b} {
		res, err := s.Exec(p, nil)
		if err != nil {
			t.Fatal(err)
		}
		kept[i], rows[i] = res, res.Rows[0]
	}
	if !reflect.DeepEqual(rows[0], rows[1]) {
		t.Fatalf("the two answers differ before any reset: %v, %v", rows[0], rows[1])
	}
	sessExec(t, a, "BEGIN")
	sessExec(t, b, "BEGIN")
	for i := range kept {
		if !isPoison(rows[i][0]) || !isPoison(kept[i].Rows[0][0]) {
			t.Fatalf("session %d's kept result reads %v, %v, want the poison", i, rows[i], kept[i].Rows)
		}
	}
	if reflect.DeepEqual(rows[0], rows[1]) {
		t.Errorf("two kept rows compare equal after their sessions' next statements: %q", rows[0][0].S)
	}
	if reflect.DeepEqual(kept[0], kept[1]) {
		t.Errorf("two kept results compare equal after their sessions' next statements: %+v", *kept[0])
	}
}
