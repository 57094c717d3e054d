package divsql

import (
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"divsql/internal/core"
	"divsql/internal/dialect"
	"divsql/internal/difftest"
	"divsql/internal/engine"
	"divsql/internal/middleware"
	"divsql/internal/obs"
	"divsql/internal/qgen"
	"divsql/internal/server"
	"divsql/internal/shard"
	"divsql/internal/sql/ast"
	"divsql/internal/sql/stmt"
	"divsql/internal/sql/types"
	"divsql/internal/wire"
)

// The parse-once contract (ARCHITECTURE "Life of a statement"), held on
// the in-process full stack: wire client → TCP → wire server → 2-shard
// router → PG+OR+MS replica sets → engines.

func replicaSet(t *testing.T) (*middleware.DiverseServer, []*server.Server) {
	t.Helper()
	var servers []*server.Server
	for _, n := range []dialect.ServerName{dialect.PG, dialect.OR, dialect.MS} {
		s, err := server.New(n, nil)
		if err != nil {
			t.Fatal(err)
		}
		servers = append(servers, s)
	}
	d, err := middleware.New(middleware.DefaultConfig(), servers...)
	if err != nil {
		t.Fatal(err)
	}
	return d, servers
}

// textOnly hides an endpoint's concrete type behind the text contract,
// as the stack benchmark's tracing wrappers (bench/trace.go) do: what
// sits above it can hand down nothing but SQL text.
type textOnly struct{ inner core.SessionExecutor }

func (e textOnly) OpenSession() core.Session { return textOnlySession{e.inner.OpenSession()} }

type textOnlySession struct{ inner core.Session }

func (s textOnlySession) Exec(sql string) (*engine.Result, time.Duration, error) {
	return s.inner.Exec(sql)
}
func (s textOnlySession) Prepare(sql string) (core.Statement, error) { return s.inner.Prepare(sql) }
func (s textOnlySession) Close() error                               { return s.inner.Close() }

var parseOnceRuns atomic.Int64

// resolverCounts scrapes the resolver's counter pair.
func resolverCounts(t *testing.T, reg *obs.Registry) (parses, resolves int) {
	t.Helper()
	doc := reg.Render()
	for name, v := range map[string]*int{"divsql_sql_parses_total": &parses, "divsql_sql_resolves_total": &resolves} {
		i := strings.Index(doc, "\n"+name+" ")
		if i < 0 {
			t.Fatalf("no %s in the scrape:\n%s", name, doc)
		}
		if _, err := fmt.Sscan(doc[i+len(name)+2:], v); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}
	return parses, resolves
}

// TestParsesPerStatement: K distinct inline statements cost exactly K
// parses on the whole stack — not K per layer, shard or replica, nor one
// more for a statement a replica is asked again rephrased — re-sending
// them costs none, and a prepared statement costs one however
// often it runs. The same holds when a text-only wrapper sits between
// router and replica sets, because text is interned, not handed down.
func TestParsesPerStatement(t *testing.T) {
	for _, mode := range []string{"direct", "wrapped"} {
		t.Run(mode, func(t *testing.T) {
			var backends []shard.Backend
			var sets []*middleware.DiverseServer
			for i := 0; i < 2; i++ {
				d, _ := replicaSet(t)
				sets = append(sets, d)
				if mode == "wrapped" {
					backends = append(backends, textOnly{d})
				} else {
					backends = append(backends, d)
				}
			}
			router, err := shard.New(shard.Config{}, backends...)
			if err != nil {
				t.Fatal(err)
			}
			srv := wire.NewServer(router)
			addr, err := srv.Listen("127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			defer srv.Close()
			m, err := wire.DialMux(addr)
			if err != nil {
				t.Fatal(err)
			}
			defer m.Close()
			c, err := m.Session()
			if err != nil {
				t.Fatal(err)
			}
			reg := obs.NewRegistry()
			reg.Register(stmt.ResolverCollector())

			// Texts nothing else in this process resolves, however often the
			// test runs: table names and comments carry the run's tag. Every
			// table is replicated, so writes reach both shards.
			tag := fmt.Sprintf("%s%d", strings.ToUpper(mode[:1]), parseOnceRuns.Add(1))
			var stmts []string
			for ns := 0; ns < 4; ns++ {
				tbl := fmt.Sprintf("PO%sN%d_T", tag, ns)
				stmts = append(stmts, fmt.Sprintf("CREATE TABLE %s (A INT PRIMARY KEY, B INT)", tbl))
				for k := 0; k < 5; k++ {
					stmts = append(stmts,
						fmt.Sprintf("INSERT INTO %s VALUES (%d, %d)", tbl, k, k*10),
						fmt.Sprintf("UPDATE %s SET B = B + 1 WHERE A = %d", tbl, k),
						fmt.Sprintf("SELECT B FROM %s WHERE A = %d", tbl, k))
				}
				stmts = append(stmts, "BEGIN TRANSACTION -- "+tag,
					fmt.Sprintf("DELETE FROM %s WHERE A = 4", tbl),
					fmt.Sprintf("SELECT COUNT(*) AS N FROM %s", tbl), "COMMIT -- "+tag)
			}
			// TPC-C Delivery's balance update: MS rejects the unaliased SUM
			// and is asked again rephrased, which parses nothing.
			stmts = append(stmts,
				fmt.Sprintf("CREATE TABLE PO%sOL (O INT, AMT FLOAT)", tag),
				fmt.Sprintf("INSERT INTO PO%sOL VALUES (7, 1.5), (7, 2.5)", tag),
				fmt.Sprintf("UPDATE PO%sN0_T SET B = B + (SELECT SUM(AMT) FROM PO%sOL WHERE O = 7) WHERE A = 1", tag, tag))
			distinct := make(map[string]bool)
			for _, s := range stmts {
				distinct[s] = true
			}
			send := func(pass string) {
				t.Helper()
				for _, s := range stmts {
					if _, err := c.Exec(s); err != nil && pass == "first" {
						t.Fatalf("%s: %v", s, err)
					}
				}
			}

			p0, r0 := resolverCounts(t, reg)
			send("first")
			p1, r1 := resolverCounts(t, reg)
			if got := p1 - p0; got != len(distinct) {
				t.Errorf("%d distinct inline statements cost %d parses, want %d (resolves: %d)", len(distinct), got, len(distinct), r1-r0)
			}
			if r1-r0 < 2*len(stmts) {
				t.Errorf("%d statements were resolved %d times: router and replica set each resolve", len(stmts), r1-r0)
			}
			for i, d := range sets {
				if m := d.Metrics(); m.RephraseRecovered != 1 {
					t.Errorf("shard %d: %d statements rephrased, want the Delivery update", i, m.RephraseRecovered)
				}
			}
			send("again") // the CREATEs and INSERTs now fail; they are not parsed to find that out
			p2, _ := resolverCounts(t, reg)
			if p2 != p1 {
				t.Errorf("re-sending the same statements cost %d parses, want 0", p2-p1)
			}

			st, err := c.Prepare(fmt.Sprintf("SELECT B FROM PO%sN0_T WHERE A = $1", tag))
			if err != nil {
				t.Fatal(err)
			}
			for k := 0; k < 25; k++ {
				if _, err := st.Exec(types.NewInt(int64(k % 4))); err != nil {
					t.Fatal(err)
				}
			}
			if p3, _ := resolverCounts(t, reg); p3-p2 != 1 {
				t.Errorf("a prepared statement executed 25 times cost %d parses, want 1", p3-p2)
			}
		})
	}
}

// TestSharedHandleConcurrent: one *stmt.Parsed is executed at the same
// time by several sessions on servers of all three dialects and through
// two shards (run under -race). Nothing below the handle may write to it.
func TestSharedHandleConcurrent(t *testing.T) {
	_, servers := replicaSet(t)
	var backends []shard.Backend
	for i := 0; i < 2; i++ {
		d, _ := replicaSet(t)
		backends = append(backends, d)
	}
	router, err := shard.New(shard.Config{}, backends...)
	if err != nil {
		t.Fatal(err)
	}
	setup := []string{
		"CREATE TABLE SH_T (A INT PRIMARY KEY, B INT)",
		"CREATE TABLE SH_U (A INT, V FLOAT)",
		"INSERT INTO SH_T VALUES (1, 10), (2, 20), (3, 30)",
		"INSERT INTO SH_U VALUES (1, 1.5), (1, 2.5), (2, 4)",
		"CREATE VIEW SH_V AS SELECT A, B FROM SH_T WHERE B > 10",
	}
	shared := []struct {
		sql  string
		args []types.Value
	}{
		{"SELECT B FROM SH_T WHERE A = $1", []types.Value{types.NewInt(2)}},
		{"SELECT T.A, SUM(U.V) AS S FROM SH_T T, SH_U U WHERE T.A = U.A AND T.B BETWEEN 5 AND 25 GROUP BY T.A ORDER BY T.A", nil},
		{"SELECT A FROM SH_V WHERE A IN (SELECT A FROM SH_U WHERE V > $1) ORDER BY A", []types.Value{types.NewFloat(2)}},
		{"UPDATE SH_T SET B = B + (SELECT COUNT(*) FROM SH_U WHERE SH_U.A = SH_T.A) WHERE A = $1", []types.Value{types.NewInt(3)}},
		{"CREATE VIEW SH_W AS SELECT A FROM SH_T WHERE B IN (10, 20) UNION SELECT A FROM SH_U", nil},
	}
	open := func() []core.Session {
		var out []core.Session
		for _, s := range servers {
			out = append(out, s.NewSession())
		}
		return append(out, router.NewSession())
	}
	boot := open()
	for _, sql := range setup {
		for _, s := range boot {
			if _, _, err := s.Exec(sql); err != nil {
				t.Fatalf("%s: %v", sql, err)
			}
		}
	}

	type snapshot struct{ text, fp string }
	handles := make([]*stmt.Parsed, len(shared))
	before := make([]snapshot, len(shared))
	for i, sh := range shared {
		p, err := stmt.Resolve(sh.sql)
		if err != nil {
			t.Fatal(err)
		}
		handles[i], before[i] = p, snapshot{ast.Render(p.AST), p.Fingerprint.String()}
	}
	const workers = 4
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sessions := open()
			for round := 0; round < 20; round++ {
				for i, p := range handles {
					for _, s := range sessions {
						// The servers take the handle; the router takes the
						// text, which resolves to the same handle. CREATE
						// VIEW fails after its first run; that is an outcome.
						if srv, ok := s.(*server.Session); ok {
							_, _, _ = srv.Run(p, shared[i].args)
						} else {
							_, _, _ = core.ExecEntry(s, core.EncodeBound(p.Text, shared[i].args))
						}
					}
				}
			}
			for _, s := range sessions {
				_ = s.Close()
			}
		}()
	}
	wg.Wait()
	for i, p := range handles {
		if q, err := stmt.Resolve(p.Text); err != nil || q != p {
			t.Errorf("%q no longer resolves to its handle (%v)", p.Text, err)
		}
		if got := (snapshot{ast.Render(p.AST), ast.FingerprintOf(p.AST).String()}); got != before[i] || p.Fingerprint.String() != before[i].fp {
			t.Errorf("handle changed under execution:\n before %+v\n after  %+v", before[i], got)
		}
	}
}

// TestExecutionLeavesHandlesUnchanged is the immutability contract as a
// property: over every statement of the regress/ corpus, a generated
// stream (DDL, views, sequences, bound statements) and statements the
// rephrasing rewrites (the generator's common subset holds none), a
// handle renders to the same text and fingerprints the same after the
// oracle and servers of three dialects have executed it and
// middleware.Rephrase has rewritten it, copy-on-write.
func TestExecutionLeavesHandlesUnchanged(t *testing.T) {
	var entries []string
	cases, err := difftest.LoadCases("regress/cases")
	if err != nil || len(cases) == 0 {
		t.Fatalf("regress corpus: %d cases, %v", len(cases), err)
	}
	for _, c := range cases {
		entries = append(entries, c.Stream...)
	}
	rewrites := []string{
		"UPDATE HU_T SET B = B + (SELECT SUM(V) FROM HU_U WHERE HU_U.A = HU_T.A) WHERE A = 1",
		"SELECT A, (SELECT AVG(V) FROM HU_U) AS M FROM HU_T WHERE A NOT IN (SELECT A FROM HU_U WHERE V > 1 UNION SELECT B FROM HU_T)",
		"DELETE FROM HU_T WHERE A IN (SELECT A FROM HU_U WHERE A IN (SELECT 1 UNION ALL SELECT $1) AND EXISTS (SELECT SUM(V) FROM HU_U))",
		"INSERT INTO HU_T SELECT 9, SUM(A) FROM HU_U",
	}
	entries = append(entries, "CREATE TABLE HU_T (A INT, B INT)", "CREATE TABLE HU_U (A INT, V FLOAT)")
	entries = append(entries, rewrites[:2]...)
	entries = append(entries, core.EncodeBound(rewrites[2], []types.Value{types.NewInt(2)}), rewrites[3])
	opts := qgen.CommonProfile(41)
	opts.Sequences, opts.Params = true, true
	gen := qgen.New(opts)
	for i := 0; i < 1500; i++ {
		st := gen.Next()
		entries = append(entries, core.EncodeBound(ast.Render(st), gen.LastArgs()))
	}

	sessions := []*server.Session{server.NewOracle().NewSession()}
	for _, n := range []dialect.ServerName{dialect.PG, dialect.OR, dialect.MS} {
		s, err := server.New(n, nil)
		if err != nil {
			t.Fatal(err)
		}
		sessions = append(sessions, s.NewSession())
	}
	checked, rewritten := 0, 0
	for _, entry := range entries {
		sql, args, _ := core.DecodeBound(entry)
		p, err := stmt.Resolve(sql)
		if err != nil {
			continue
		}
		text, fp := ast.Render(p.AST), p.Fingerprint.String()
		for _, s := range sessions {
			_, _, _ = s.Run(p, args)
		}
		if middleware.Rephrase(p) != p {
			rewritten++
		}
		if got := ast.Render(p.AST); got != text {
			t.Fatalf("executing %q changed its tree:\n before %s\n after  %s", sql, text, got)
		}
		if got := ast.FingerprintOf(p.AST).String(); got != fp || p.Fingerprint.String() != fp {
			t.Fatalf("executing %q changed its fingerprint: %s, was %s", sql, got, fp)
		}
		checked++
	}
	if checked < 1500 || rewritten < len(rewrites) {
		t.Fatalf("only %d statements checked, %d of them rephrased", checked, rewritten)
	}
}
