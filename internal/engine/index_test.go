package engine

import (
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"divsql/internal/engine/plan"
	"divsql/internal/sql/stmt"
	"divsql/internal/sql/types"
)

// scanEq is the linear-scan answer lookup must give: the positions,
// ascending, whose key cells are INT and equal keys.
func scanEq(rows [][]types.Value, cols []int, keys []int64) []int {
	var out []int
next:
	for ri, row := range rows {
		for j, ci := range cols {
			if row[ci].K != types.KindInt || row[ci].I != keys[j] {
				continue next
			}
		}
		out = append(out, ri)
	}
	return out
}

// scanRange is the linear-scan answer between must give.
func scanRange(rows [][]types.Value, col int, lo, hi int64, haveLo, haveHi bool) []int {
	var out []int
	for ri, row := range rows {
		if v := row[col]; v.K == types.KindInt && (!haveLo || v.I >= lo) && (!haveHi || v.I <= hi) {
			out = append(out, ri)
		}
	}
	return out
}

// TestIndexMatchesScan is a seeded model check of the lookup indexes.
// After every step of a random stream — INSERT, DELETE, UPDATE of a key
// or a non-key column, some of them inside BEGIN…ROLLBACK — over a table
// with a two-column primary key, a UNIQUE column and NULL keys, probes
// through eqIndex+lookup and rangeIndex+between answer what a linear
// scan does on the live table, on the current read-view capture and on
// a capture a REPEATABLE READ session pinned earlier. Insert runs cross
// indexTailMax, so tail scans, extensions, tiered merges, prefix serving
// and rebuilds all run; the test counts each and fails if the stream
// stops reaching one.
func TestIndexMatchesScan(t *testing.T) {
	// A hand-built chain linking rows of two different keys (what a
	// collision of key-tuple hashes produces): lookup's key check keeps
	// the stranger out.
	few := [][]types.Value{{types.NewInt(7)}, {types.NewInt(8)}, {types.NewInt(7)}}
	s := buildHashSeg(few, []int{0}, 0, 3)
	s.next[0], s.next[1] = 2, 3 // key 7's chain, rows 0 → 2, now runs 0 → 1 → 2
	forged := &index{cols: []int{0}, n: 3, segs: []seg{s}}
	if got := forged.lookup(nil, few, []int64{7}); !slices.Equal(got, []int{0, 2}) {
		t.Fatalf("lookup of 7 through a chain that also links key 8: %v, want [0 2]", got)
	}

	e := NewOracle()
	w, pin := e.NewSession(), e.NewSession()
	sexec(t, w, "CREATE TABLE T (A INT, B INT, U INT UNIQUE, V INT, W INT, PRIMARY KEY (A, B))")
	live := e.st.tables["T"]
	pk, uq, vc := []int{0, 1}, []int{2}, []int{3}
	rng := rand.New(rand.NewSource(26))
	orNull := func(n int) string {
		if rng.Intn(5) == 0 {
			return "NULL"
		}
		return fmt.Sprint(rng.Intn(n))
	}
	insert := func() string {
		return fmt.Sprintf("INSERT INTO T VALUES (%d, %d, %s, %s, %d)",
			rng.Intn(40), rng.Intn(40), orNull(4000), orNull(20), rng.Intn(100))
	}
	mixed := func() string {
		switch rng.Intn(10) {
		case 0, 1, 2, 3, 4:
			return insert()
		case 5:
			return fmt.Sprintf("DELETE FROM T WHERE V = %d", rng.Intn(20))
		case 6:
			return fmt.Sprintf("UPDATE T SET U = %s WHERE A = %d AND B = %d", orNull(4000), rng.Intn(40), rng.Intn(40))
		case 7:
			return fmt.Sprintf("UPDATE T SET A = %d WHERE A = %d", rng.Intn(40), rng.Intn(40))
		case 8:
			return fmt.Sprintf("UPDATE T SET V = %s WHERE W = %d", orNull(20), rng.Intn(100))
		default:
			return fmt.Sprintf("UPDATE T SET W = %d WHERE V = %d", rng.Intn(100), rng.Intn(20))
		}
	}

	// Each probe is classified by what get did for it, against the
	// index last seen published under the same cache and key.
	type lineageKey struct {
		ic   *indexCache
		col  int
		cols string
	}
	seen := map[lineageKey]*index{}
	paths := map[string]int{}
	note := func(tb *Table, got *index, n int) {
		tb.ic.mu.Lock()
		var pub *index
		for _, ix := range append(slices.Clip(tb.ic.hash), tb.ic.sorted...) {
			if ix.col == got.col && slices.Equal(ix.cols, got.cols) {
				pub = ix
			}
		}
		tb.ic.mu.Unlock()
		switch {
		case got != pub:
			paths["private build"]++
		case n > got.n:
			paths["tail"]++
		case n < got.n:
			paths["prefix"]++
		}
		k := lineageKey{tb.ic, got.col, fmt.Sprint(got.cols)}
		prev := seen[k]
		seen[k] = pub
		switch {
		case prev == nil || prev == pub:
		case prev.base != pub.base || !slices.Equal(prev.colVers, pub.colVers):
			paths["rebuild"]++
		default:
			paths["extend"]++
			if pub.segs[len(pub.segs)-1].start < prev.n {
				paths["merge"]++
			}
		}
	}
	probe := func(where string, tb *Table) {
		t.Helper()
		rows := tb.Rows
		for _, cols := range [][]int{pk, uq, vc} {
			keys := make([]int64, len(cols))
			for j := range keys {
				keys[j] = int64(rng.Intn(40))
			}
			if len(rows) > 0 && rng.Intn(2) == 0 {
				row := rows[rng.Intn(len(rows))]
				for j, ci := range cols {
					keys[j] = row[ci].I
				}
			}
			ix, n := tb.ic.eqIndex(tb, cols)
			if ix == nil || n != len(rows) {
				t.Fatalf("%s: eqIndex%v served %d of %d rows (nil index: %v)", where, cols, n, len(rows), ix == nil)
			}
			note(tb, ix, n)
			if got, want := ix.lookup(nil, rows[:n], keys), scanEq(rows, cols, keys); !slices.Equal(got, want) {
				t.Fatalf("%s: lookup%v of %v: %v, scan %v", where, cols, keys, got, want)
			}
		}
		for _, col := range []int{0, 3} {
			lo, hi := int64(rng.Intn(44)-2), int64(rng.Intn(44)-2)
			haveLo, haveHi := rng.Intn(4) != 0, rng.Intn(4) != 0
			ix, n := tb.ic.rangeIndex(tb, col)
			if ix == nil || n != len(rows) {
				t.Fatalf("%s: rangeIndex(%d) served %d of %d rows (nil index: %v)", where, col, n, len(rows), ix == nil)
			}
			note(tb, ix, n)
			got, want := ix.between(nil, rows[:n], lo, hi, haveLo, haveHi), scanRange(rows, col, lo, hi, haveLo, haveHi)
			if !slices.Equal(got, want) {
				t.Fatalf("%s: between(%d, %d, %v, %v) on column %d: %v, scan %v", where, lo, hi, haveLo, haveHi, col, got, want)
			}
		}
	}

	check := func() {
		t.Helper()
		e.mu.RLock()
		defer e.mu.RUnlock()
		probe("live table", live)
		probe("current capture", e.currentView().table("T").materialize(e))
		if pin.pinned != nil {
			probe("pinned capture", pin.pinned.table("T").materialize(e))
		}
	}
	step := func(sql string) {
		t.Helper()
		_, _ = gexec(w, sql) // duplicate keys are refused; the stream goes on
		check()
	}
	for round := 0; round < 8; round++ {
		if pin.InTxn() {
			sexec(t, pin, "COMMIT")
		}
		sexec(t, pin, "SET TRANSACTION ISOLATION LEVEL REPEATABLE READ")
		sexec(t, pin, "BEGIN TRANSACTION")
		sexec(t, pin, "SELECT COUNT(*) FROM T")
		for i := 0; i < 3*indexTailMax; i++ {
			step(insert())
		}
		for i := 0; i < 60; i++ {
			if rng.Intn(8) != 0 {
				step(mixed())
				continue
			}
			sexec(t, w, "BEGIN TRANSACTION")
			for j := rng.Intn(4); j >= 0; j-- {
				step(mixed())
			}
			sexec(t, w, "ROLLBACK")
			check()
		}
	}
	sexec(t, pin, "COMMIT")
	t.Logf("%d rows at the end; probes by path: %v", len(live.Rows), paths)
	for _, p := range []string{"tail", "extend", "merge", "prefix", "rebuild"} {
		if paths[p] == 0 {
			t.Errorf("no probe took the %s path: %v", p, paths)
		}
	}
}

// The indexes allocate per segment and per probe, never per row: a
// rebuild over 4 096 rows costs what one over 64 does (the index value
// and one slab), a probe served with an unindexed tail allocates no
// index value, and a point lookup allocates at most its result.
func TestIndexAllocs(t *testing.T) {
	table := func(n int) *Table {
		tb := &Table{Name: "T", ic: &indexCache{}}
		for i := 0; i < n; i++ {
			tb.Rows = append(tb.Rows, []types.Value{types.NewInt(int64(i)), types.NewInt(int64(i % 7))})
		}
		return tb
	}
	cols, col1 := []int{0}, []int{1}
	builds := map[int][2]float64{}
	for _, n := range []int{64, 4096} {
		tb := table(n)
		builds[n] = [2]float64{
			testing.AllocsPerRun(10, func() { buildIndex(nil, tb, cols, -1, cols, 0) }),
			testing.AllocsPerRun(10, func() { buildIndex(nil, tb, nil, 1, col1, 0) }),
		}
		t.Logf("%d rows: a hash rebuild allocates %.0f, a sorted one %.0f", n, builds[n][0], builds[n][1])
	}
	for kind, name := range []string{"hash", "sorted"} {
		small, large := builds[64][kind], builds[4096][kind]
		if large-small > 1 || small-large > 1 || large > 2 {
			t.Errorf("%s rebuild: %.0f allocations over 64 rows, %.0f over 4096: want the same (±1), at most 2", name, small, large)
		}
	}

	tb := table(100)
	tb.ic.eqIndex(tb, cols)
	tb.ic.rangeIndex(tb, 1)
	for i := 100; i < 105; i++ {
		tb.Rows = append(tb.Rows, []types.Value{types.NewInt(int64(i)), types.NewInt(int64(i % 7))})
	}
	tail := testing.AllocsPerRun(20, func() {
		if ix, n := tb.ic.eqIndex(tb, cols); ix == nil || ix.n != 100 || n != 105 {
			t.Fatalf("point probe over a 5-row tail served %d rows", n)
		}
		if ix, n := tb.ic.rangeIndex(tb, 1); ix == nil || ix.n != 100 || n != 105 {
			t.Fatalf("range probe over a 5-row tail served %d rows", n)
		}
	})
	if tail != 0 {
		t.Errorf("probes served with a 5-row unindexed tail allocated %.0f, want 0", tail)
	}
	// A probe appends its positions to the caller's buffer: with room
	// there, it allocates nothing.
	ix, n := tb.ic.eqIndex(tb, cols)
	rx, rn := tb.ic.rangeIndex(tb, 1)
	buf := make([]int, 0, 32)
	for _, key := range []int64{42, 103, 5000} {
		keys := []int64{key}
		if got := testing.AllocsPerRun(20, func() { ix.lookup(buf, tb.Rows[:n], keys) }); got > 0 {
			t.Errorf("lookup of %d allocated %.0f, want 0", key, got)
		}
	}
	if got := testing.AllocsPerRun(20, func() { rx.between(buf, tb.Rows[:rn], 3, 3, true, true) }); got > 0 {
		t.Errorf("a 15-row range probe allocated %.0f, want 0", got)
	}
}

// Published segments are shared by every capture of a lineage and read
// without the cache lock. Four REPEATABLE READ readers point- and
// range-probe one table through their pinned views while a writer
// appends past indexTailMax and deletes; inside each reader's
// transaction the auto plan's answer equals the forced full scan's.
// Run with -race.
func TestIndexLineageConcurrentProbes(t *testing.T) {
	e := NewOracle()
	w := e.NewSession()
	sexec(t, w, "CREATE TABLE T (K INT PRIMARY KEY, V INT)")
	sexec(t, w, "CREATE INDEX TV ON T (V)")
	for k := 1; k <= 40; k++ {
		sexec(t, w, fmt.Sprintf("INSERT INTO T VALUES (%d, %d)", k, k%7))
	}
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(done)
		for k := 41; k <= 400; k++ {
			if _, err := gexec(w, fmt.Sprintf("INSERT INTO T VALUES (%d, %d)", k, k%7)); err != nil {
				t.Errorf("insert %d: %v", k, err)
				return
			}
			if k%10 == 0 {
				if _, err := gexec(w, fmt.Sprintf("DELETE FROM T WHERE K = %d", k-35)); err != nil {
					t.Errorf("delete %d: %v", k-35, err)
					return
				}
			}
		}
	}()
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			s := e.NewSession()
			rng := rand.New(rand.NewSource(seed))
			for running := true; running; {
				select {
				case <-done:
					running = false
				default:
				}
				for _, sql := range []string{"SET TRANSACTION ISOLATION LEVEL REPEATABLE READ", "BEGIN TRANSACTION"} {
					if _, err := gexec(s, sql); err != nil {
						t.Errorf("%s: %v", sql, err)
						return
					}
				}
				for q := 0; q < 4; q++ {
					k := rng.Intn(420)
					for _, sql := range []string{
						fmt.Sprintf("SELECT K, V FROM T WHERE K = %d", k),
						fmt.Sprintf("SELECT K FROM T WHERE K >= %d AND K < %d", k, k+40),
						fmt.Sprintf("SELECT K FROM T WHERE V = %d", k%7),
					} {
						p, err := stmt.Resolve(sql)
						if err != nil {
							t.Errorf("parse %q: %v", sql, err)
							return
						}
						res, err := s.Exec(p, nil)
						if err != nil {
							t.Errorf("%q: %v", sql, err)
							return
						}
						res = res.Clone()
						full, err := s.ExecSelectVariant(p, plan.ForceFullScan, nil)
						if err != nil {
							t.Errorf("%q forced: %v", sql, err)
							return
						}
						if got, scan := rowStrings(res), rowStrings(full); !slices.Equal(got, scan) {
							t.Errorf("%q: %v, full scan %v", sql, got, scan)
							return
						}
					}
				}
				if _, err := gexec(s, "COMMIT"); err != nil {
					t.Errorf("commit: %v", err)
					return
				}
			}
		}(int64(r))
	}
	wg.Wait()
}
