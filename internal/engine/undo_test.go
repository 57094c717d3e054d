package engine

import (
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"strings"
	"testing"

	"divsql/internal/sql/stmt"
	"divsql/internal/sql/types"
)

// TestWritePathAllocs pins what one transaction's write path allocates
// on one engine: BEGIN, a 7-column prepared INSERT, a 2-SET point
// UPDATE by primary key, COMMIT, then another session's first point
// SELECT (which builds the read view the commit made stale). An INSERT
// allocates the row it stores and an UPDATE the replacement row; the
// undo records are data held in the session's reused log, and a view
// rebuild after a commit with no DDL copies no catalog map.
func TestWritePathAllocs(t *testing.T) {
	e := NewOracle()
	w, r := e.NewSession(), e.NewSession()
	sessExec(t, w, "CREATE TABLE WP (ID INT PRIMARY KEY, A INT, B INT, C VARCHAR(10), D FLOAT, E INT, F INT)")
	for i := 0; i < 64; i++ {
		sessExec(t, w, fmt.Sprintf("INSERT INTO WP VALUES (%d, 1, 2, 'c', 1.5, 5, 6)", -1-i))
	}
	begin, commit := resolve(t, "BEGIN"), resolve(t, "COMMIT")
	ins := resolve(t, "INSERT INTO WP VALUES ($1, $2, $3, $4, $5, $6, $7)")
	upd := resolve(t, "UPDATE WP SET A = $1, E = $2 WHERE ID = $3")
	sel := resolve(t, "SELECT A, E FROM WP WHERE ID = $1")

	steps := []struct {
		name string
		max  float64
		p    *stmt.Parsed
		s    *Session
		args func(id int64) []types.Value
	}{
		{"BEGIN", 0, begin, w, nil},
		{"INSERT", 2, ins, w, func(id int64) []types.Value {
			return []types.Value{types.NewInt(id), types.NewInt(1), types.NewInt(2), types.NewString("c"), types.NewFloat(1.5), types.NewInt(5), types.NewInt(6)}
		}},
		{"UPDATE", 3, upd, w, func(id int64) []types.Value {
			return []types.Value{types.NewInt(7), types.NewInt(8), types.NewInt(id)}
		}},
		{"COMMIT", 0, commit, w, nil},
		{"first SELECT", 10, sel, r, func(id int64) []types.Value { return []types.Value{types.NewInt(id)} }},
	}
	// Each step is counted on its own (runtime.MemStats around it); the
	// argument vectors are built outside the counted region.
	var ms runtime.MemStats
	counts := make([]uint64, len(steps))
	id, measured := int64(0), false
	const runs = 100
	testing.AllocsPerRun(runs, func() {
		id++
		for i, st := range steps {
			var args []types.Value
			if st.args != nil {
				args = st.args(id)
			}
			runtime.ReadMemStats(&ms)
			before := ms.Mallocs
			res, err := st.s.Exec(st.p, args)
			runtime.ReadMemStats(&ms)
			if err != nil {
				t.Fatalf("%s: %v", st.name, err)
			}
			if measured {
				counts[i] += ms.Mallocs - before
			}
			if st.p == sel && (len(res.Rows) != 1 || res.Rows[0][0].I != 7) {
				t.Fatalf("%s: got %v", st.name, res.Rows)
			}
		}
		measured = true // the first call is AllocsPerRun's warm-up
	})
	for i, st := range steps {
		got := float64(counts[i]) / float64(runs)
		t.Logf("%-12s %5.1f allocations", st.name, got)
		if got > st.max {
			t.Errorf("%s: %.1f allocations, want at most %.0f", st.name, got, st.max)
		}
	}
}

// TestDeleteUndoKeepsSiblingUpdate: a rolled-back DELETE must not erase
// a committed UPDATE another session made meanwhile to a row the DELETE
// kept, neither in the committed image a reader sees while the DELETE
// is open nor in the table the rollback leaves.
func TestDeleteUndoKeepsSiblingUpdate(t *testing.T) {
	e := NewOracle()
	a, b, c := e.NewSession(), e.NewSession(), e.NewSession()
	sessExec(t, a, "CREATE TABLE T (ID INT PRIMARY KEY, V INT)")
	sessExec(t, a, "INSERT INTO T VALUES (1, 10), (2, 20), (3, 30)")
	sessExec(t, a, "BEGIN")
	sessExec(t, a, "DELETE FROM T WHERE ID = 1")
	sessExec(t, b, "UPDATE T SET V = 99 WHERE ID = 2")
	if got := rowStrings(sessExec(t, c, "SELECT V FROM T WHERE ID = 2")); !slices.Equal(got, []string{"99"}) {
		t.Errorf("reader during the open DELETE: V = %v, want 99", got)
	}
	sessExec(t, a, "ROLLBACK")
	want := []string{"1|10", "2|99", "3|30"}
	if got := rowStrings(sessExec(t, c, "SELECT ID, V FROM T ORDER BY ID")); !slices.Equal(got, want) {
		t.Errorf("after ROLLBACK: %v, want %v", got, want)
	}
}

// TestRowUndoRewindsLikeRollback runs a seeded stream of every kind of
// row write — single- and multi-row INSERT, an UPDATE that moves a
// primary key, a multi-row UPDATE, DELETE — in session A's open
// transaction, while session B interleaves autocommit writes on rows A
// never touches. After every step, reader C and Snapshot must see
// exactly the committed rows (the seed plus B's writes; A's row undo
// records rewound), and A's ROLLBACK must leave exactly that.
func TestRowUndoRewindsLikeRollback(t *testing.T) {
	e := NewOracle()
	a, b, c := e.NewSession(), e.NewSession(), e.NewSession()
	sessExec(t, a, "CREATE TABLE R (ID INT PRIMARY KEY, K INT, V INT)")
	// committed is the model of the committed table: A owns K = 1 rows
	// with IDs below 10000, B owns K = 2 rows from 10000 up.
	committed := map[int64]int64{}
	for i := int64(1); i <= 20; i++ {
		sessExec(t, a, fmt.Sprintf("INSERT INTO R VALUES (%d, 1, %d)", i, i))
		sessExec(t, a, fmt.Sprintf("INSERT INTO R VALUES (%d, 2, %d)", 10000+i, i))
		committed[i], committed[10000+i] = i, i
	}
	key := func(id int64) int64 {
		if id >= 10000 {
			return 2
		}
		return 1
	}
	want := func() []string {
		ids := make([]int64, 0, len(committed))
		for id := range committed {
			ids = append(ids, id)
		}
		slices.Sort(ids)
		out := make([]string, len(ids))
		for i, id := range ids {
			out[i] = fmt.Sprintf("%d|%d|%d", id, key(id), committed[id])
		}
		return out
	}
	snapRows := func() []string {
		rows := slices.Clone(e.Snapshot().Tables["R"].Rows)
		slices.SortFunc(rows, func(x, y []types.Value) int { return int(x[0].I - y[0].I) })
		return rowStrings(&Result{Rows: rows})
	}
	ids := func(s *Session, k int) []int64 {
		var out []int64
		for _, row := range sessExec(t, s, fmt.Sprintf("SELECT ID FROM R WHERE K = %d ORDER BY ID", k)).Rows {
			out = append(out, row[0].I)
		}
		return out
	}

	rng := rand.New(rand.NewSource(7))
	nextA, nextB := int64(100), int64(20000)
	sessExec(t, a, "BEGIN")
	for step := 0; step < 60; step++ {
		mine := ids(a, 1)
		pick := func() int64 {
			if len(mine) == 0 {
				return 1
			}
			return mine[rng.Intn(len(mine))]
		}
		var aSQL string
		switch step % 5 {
		case 0:
			aSQL = fmt.Sprintf("INSERT INTO R VALUES (%d, 1, %d)", nextA, rng.Intn(100))
			nextA++
		case 1:
			aSQL = fmt.Sprintf("INSERT INTO R VALUES (%d, 1, 1), (%d, 1, 2), (%d, 1, 3)", nextA, nextA+1, nextA+2)
			nextA += 3
		case 2:
			id := pick()
			if id < 5000 {
				aSQL = fmt.Sprintf("UPDATE R SET ID = ID + 5000, V = V + 1 WHERE ID = %d", id)
			} else {
				aSQL = fmt.Sprintf("UPDATE R SET V = V + 1 WHERE ID = %d", id)
			}
		case 3:
			lo := pick()
			aSQL = fmt.Sprintf("UPDATE R SET V = V * 2 + 1 WHERE K = 1 AND ID BETWEEN %d AND %d", lo, lo+40)
		case 4:
			lo := pick()
			aSQL = fmt.Sprintf("DELETE FROM R WHERE K = 1 AND ID BETWEEN %d AND %d", lo, lo+rng.Int63n(3))
		}
		sessExec(t, a, aSQL)

		theirs := ids(c, 2)
		var bSQL string
		switch id := theirs[rng.Intn(len(theirs))]; step % 3 {
		case 0:
			v := int64(rng.Intn(100))
			bSQL = fmt.Sprintf("UPDATE R SET V = %d WHERE ID = %d", v, id)
			committed[id] = v
		case 1:
			bSQL = fmt.Sprintf("INSERT INTO R VALUES (%d, 2, %d)", nextB, nextB)
			committed[nextB] = nextB
			nextB++
		case 2:
			bSQL = fmt.Sprintf("DELETE FROM R WHERE ID = %d", id)
			delete(committed, id)
		}
		sessExec(t, b, bSQL)

		w := want()
		if got := rowStrings(sessExec(t, c, "SELECT ID, K, V FROM R ORDER BY ID")); !slices.Equal(got, w) {
			t.Fatalf("step %d (A: %s; B: %s): reader sees\n%s\nwant\n%s", step, aSQL, bSQL, strings.Join(got, " "), strings.Join(w, " "))
		}
		if got := snapRows(); !slices.Equal(got, w) {
			t.Fatalf("step %d (A: %s; B: %s): Snapshot holds\n%s\nwant\n%s", step, aSQL, bSQL, strings.Join(got, " "), strings.Join(w, " "))
		}
	}
	sessExec(t, a, "ROLLBACK")
	if got, w := rowStrings(sessExec(t, c, "SELECT ID, K, V FROM R ORDER BY ID")), want(); !slices.Equal(got, w) {
		t.Fatalf("after ROLLBACK:\n%s\nwant\n%s", strings.Join(got, " "), strings.Join(w, " "))
	}
}
