package middleware

import (
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"divsql/internal/core"
	"divsql/internal/dialect"
	"divsql/internal/engine"
	"divsql/internal/fault"
	"divsql/internal/server"
	"divsql/internal/sql/ast"
	"divsql/internal/sql/stmt"
	"divsql/internal/sql/types"
)

// The two sides of broadcast's cost rule, forced through the unexported
// limit: no statement costs more than an hour, every statement costs
// more than a negative duration.
var broadcastSides = []struct {
	name  string
	limit time.Duration
}{
	{"inline", time.Hour},
	{"helpers", -1},
}

// sideFaults plants one fault of each class the adjudicator contains: a
// wrong result, a spurious error and an engine crash, on three different
// replicas.
func sideFaults() []fault.Fault {
	return []fault.Fault{
		{
			BugID:   "wrong",
			Server:  dialect.PG,
			Trigger: fault.Trigger{Table: "W", Flag: ast.FlagSelect},
			Effect:  fault.Effect{Kind: fault.EffectMutateResult, Mutation: fault.MutOffByOne},
		},
		{
			BugID:   "error",
			Server:  dialect.OR,
			Trigger: fault.Trigger{Table: "E", Flag: ast.FlagSelect},
			Effect:  fault.Effect{Kind: fault.EffectError, Message: "ORA-00600: internal error"},
		},
		{
			BugID:   "crash",
			Server:  dialect.MS,
			Trigger: fault.Trigger{Table: "T", Flag: ast.FlagGroupBy},
			Effect:  fault.Effect{Kind: fault.EffectCrash},
		},
	}
}

// step is what a client and an operator can observe after one statement.
type step struct {
	stmt        string
	result      string // normalized digest of the adjudicated result
	err         string
	metrics     Metrics
	quarantined []string
}

// runSideStream drives a fixed mixed stream — DDL, autocommit and
// transactional writes, text and prepared reads, and one statement per
// planted fault — through a fresh deployment forced onto one side of the
// cost rule, and returns everything observable about it.
func runSideStream(t *testing.T, limit time.Duration) []step {
	t.Helper()
	d := newDiverse(t, sideFaults(), dialect.PG, dialect.OR, dialect.MS)
	d.inlineLimit = limit
	cs := d.NewSession()
	defer cs.Close()

	var steps []step
	record := func(stmt string, res *engine.Result, err error) {
		s := step{stmt: stmt, result: core.Digest(res, core.DefaultCompareOptions()), metrics: d.Metrics(), quarantined: d.QuarantinedReplicas()}
		if err != nil {
			s.err = err.Error()
		}
		steps = append(steps, s)
	}
	text := func(sql string) {
		res, _, err := cs.Exec(sql)
		record(sql, res, err)
	}
	prepared := func(sql string, args ...types.Value) {
		st, err := cs.Prepare(sql)
		if err != nil {
			record(sql, nil, err)
			return
		}
		defer st.Close()
		res, _, err := st.Exec(args...)
		record(core.EncodeBound(sql, args), res, err)
	}

	for _, tbl := range []string{"T", "W", "E"} {
		text("CREATE TABLE " + tbl + " (A INT PRIMARY KEY, B INT)")
	}
	for i := 1; i <= 4; i++ {
		prepared("INSERT INTO T (A, B) VALUES ($1, $2)", types.NewInt(int64(i)), types.NewInt(int64(i*10)))
		text(fmt.Sprintf("INSERT INTO W VALUES (%d, %d)", i, i*100))
		text(fmt.Sprintf("INSERT INTO E VALUES (%d, %d)", i, i*1000))
	}
	text("SELECT A, B FROM T ORDER BY A")
	prepared("SELECT B FROM T WHERE A = $1", types.NewInt(3))
	text("SELECT B FROM W WHERE A = 2")                       // PG is off by one: outvoted
	text("UPDATE T SET B = B + 1 WHERE A = 1")                // PG rejoins
	prepared("SELECT B FROM E WHERE A = $1", types.NewInt(2)) // OR errors: outvoted
	text("BEGIN TRANSACTION")                                 // OR rejoins
	prepared("UPDATE T SET B = $1 WHERE A = $2", types.NewInt(7), types.NewInt(2))
	text("SELECT A, COUNT(*) AS N FROM T GROUP BY A") // MS crashes mid-transaction
	text("INSERT INTO T VALUES (9, 90)")              // MS rejoins, journal replayed
	text("SELECT B FROM T WHERE A = 2")
	text("COMMIT")
	text("SELECT NO_SUCH_COLUMN FROM T") // every replica errors alike
	text("INSERT INTO T VALUES (1, 1)")  // legitimate key violation
	prepared("SELECT A, B FROM T WHERE A >= $1 ORDER BY A", types.NewInt(1))
	return steps
}

// TestBroadcastSidesAgree: which goroutine executes a replica must not be
// observable. The same stream through the inline side, the helper side
// and the cost rule proper yields identical results, errors, metrics and
// quarantine sequences, statement by statement.
func TestBroadcastSidesAgree(t *testing.T) {
	want := runSideStream(t, inlineCostLimit)
	if m := want[len(want)-1].metrics; m.MaskedFailures == 0 || m.ReplicaErrors == 0 || m.CrashesDetected == 0 || m.Resyncs < 3 || m.JournalReplays == 0 {
		t.Fatalf("the stream no longer exercises every containment path: %+v", m)
	}
	for _, side := range broadcastSides {
		t.Run(side.name, func(t *testing.T) {
			got := runSideStream(t, side.limit)
			if len(got) != len(want) {
				t.Fatalf("%d steps, want %d", len(got), len(want))
			}
			for i := range want {
				if !reflect.DeepEqual(got[i], want[i]) {
					t.Errorf("step %d differs\n got %+v\nwant %+v", i, got[i], want[i])
				}
			}
		})
	}
}

// TestBroadcastVotesAreIndexAligned compares the raw votes and the
// verdict computed from them on both sides: results[i] belongs to the
// i-th active replica whoever ran it, so the adjudicator's tie-breaking
// and every verdict field are the same.
func TestBroadcastVotesAreIndexAligned(t *testing.T) {
	type outcome struct {
		names   []string
		errs    []string
		crashed []bool
		verdict core.Verdict
		agreed  string
	}
	run := func(limit time.Duration) []outcome {
		d := newDiverse(t, sideFaults(), dialect.PG, dialect.OR, dialect.MS)
		sess := d.NewSession()
		d.inlineLimit = limit
		mustExec(t, sess, "CREATE TABLE T (A INT PRIMARY KEY, B INT)")
		mustExec(t, sess, "CREATE TABLE W (A INT PRIMARY KEY, B INT)")
		mustExec(t, sess, "CREATE TABLE E (A INT PRIMARY KEY, B INT)")
		for _, tbl := range []string{"T", "W", "E"} {
			mustExec(t, sess, "INSERT INTO "+tbl+" VALUES (1, 10)")
		}
		cs := d.NewSession()
		defer cs.Close()
		var out []outcome
		// The crash comes last: it takes MS down for good here, where
		// nothing adjudicates and restarts it.
		for _, sql := range []string{
			"SELECT B FROM T WHERE A = 1",
			"SELECT B FROM W WHERE A = 1",
			"SELECT B FROM E WHERE A = 1",
			"SELECT A, COUNT(*) AS N FROM T GROUP BY A",
		} {
			p, err := stmt.Resolve(sql)
			if err != nil {
				t.Fatal(err)
			}
			results := cs.broadcast(&boundStmt{p: p})
			o := outcome{verdict: core.Adjudicate(results, core.CompareFor(p))}
			o.agreed = core.Digest(o.verdict.Agreed, core.CompareFor(p))
			o.verdict.Agreed = nil
			for _, r := range results {
				o.names = append(o.names, r.Name)
				o.errs = append(o.errs, fmt.Sprint(r.Err))
				o.crashed = append(o.crashed, r.Crashed)
			}
			out = append(out, o)
		}
		return out
	}
	inline, helpers := run(time.Hour), run(-1)
	if !reflect.DeepEqual(inline, helpers) {
		t.Fatalf("votes differ between the sides\ninline  %+v\nhelpers %+v", inline, helpers)
	}
	if v := inline[1].verdict; !reflect.DeepEqual(v.Outliers, []int{0}) || !v.Majority {
		t.Errorf("wrong-result verdict: %+v", v)
	}
	if v := inline[2].verdict; !reflect.DeepEqual(v.Errored, []int{1}) {
		t.Errorf("error verdict: %+v", v)
	}
	if v := inline[3].verdict; !reflect.DeepEqual(v.CrashedIdx, []int{2}) {
		t.Errorf("crash verdict: %+v", v)
	}
}

// goroutineID reads the calling goroutine's number off its stack header
// ("goroutine 12 [running]:"), the only way to tell goroutines apart from
// inside a hook.
func goroutineID() string {
	var buf [64]byte
	return strings.Fields(string(buf[:runtime.Stack(buf[:], false)]))[1]
}

// overlapProbe is an execHook that records how many replicas execute at
// once and how many executions ran on a goroutine other than the owner's
// (the client session's).
type overlapProbe struct {
	owner string

	mu       sync.Mutex
	inflight int
	peak     int
	foreign  int
	// rendezvous, when non-nil, holds every execution at its start until
	// a second one is in flight (or a generous timeout), so that overlap
	// shows even where one core would otherwise run helpers to
	// completion one at a time.
	rendezvous chan struct{}
}

func (p *overlapProbe) reset(rendezvous bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.inflight, p.peak, p.foreign, p.rendezvous = 0, 0, 0, nil
	if rendezvous {
		p.rendezvous = make(chan struct{})
	}
}

func (p *overlapProbe) hook(entering bool) {
	p.mu.Lock()
	if !entering {
		p.inflight--
		p.mu.Unlock()
		return
	}
	p.inflight++
	if p.inflight > p.peak {
		p.peak = p.inflight
	}
	if goroutineID() != p.owner {
		p.foreign++
	}
	wait := p.rendezvous
	if wait != nil && p.inflight == 2 {
		close(wait)
		p.rendezvous, wait = nil, nil
	}
	p.mu.Unlock()
	if wait != nil {
		select {
		case <-wait:
		case <-time.After(5 * time.Second):
		}
	}
}

// TestBroadcastCostRule holds the rule itself, at the real limit: a cheap
// statement runs every replica on the session's goroutine and starts no
// goroutine; an expensive one is remembered as such on its handle and
// overlaps its replicas; and the handle forgets when the statement gets
// cheap again. What "cheap" means is measured, so the cheap assertions
// apply to the executions the rule itself saw as cheap (a point read
// that a GC pause or the race detector pushed over the limit is entitled
// to its helpers).
func TestBroadcastCostRule(t *testing.T) {
	d := newDiverse(t, nil, dialect.PG, dialect.OR, dialect.MS)
	sess := d.NewSession()
	mustExec(t, sess, "CREATE TABLE K (A INT PRIMARY KEY, B INT)")
	for i := 0; i < 300; i++ {
		mustExec(t, sess, fmt.Sprintf("INSERT INTO K VALUES (%d, %d)", i, i%7))
	}
	cs := d.NewSession()
	defer cs.Close()
	probe := &overlapProbe{owner: goroutineID()}
	d.execHook = probe.hook

	point := mustPrepare(t, cs, "SELECT B FROM K WHERE A = $1")
	exec := func(st *Stmt, args ...types.Value) {
		t.Helper()
		if _, _, err := st.Exec(args...); err != nil {
			t.Fatal(err)
		}
	}
	// cheapExec executes the point read once and reports whether the rule
	// saw it as cheap throughout: remembered cost and fresh measurement
	// both within the limit. Such an execution must stay on the owner.
	cheapExec := func(key int64) bool {
		t.Helper()
		before := point.b.cost
		probe.reset(false)
		exec(point, types.NewInt(key))
		if before > inlineCostLimit || point.b.cost > inlineCostLimit {
			return false
		}
		if probe.peak != 1 || probe.foreign != 0 {
			t.Errorf("cheap statement (%v, then %v per replica): %d replicas at once, %d executions off the session's goroutine",
				before, point.b.cost, probe.peak, probe.foreign)
		}
		return true
	}
	exec(point, types.NewInt(1)) // plans compiled, lazy index built
	if point.b.cost <= 0 {
		t.Fatal("the first replica's execution was not timed")
	}
	cheap := 0
	for i := 0; i < 200; i++ {
		if cheapExec(int64(i)) {
			cheap++
		}
	}
	if cheap < 100 {
		t.Errorf("only %d of 200 point reads cost under %v per replica", cheap, inlineCostLimit)
	}

	// 300 x 300 row pairs per replica: milliseconds, far above the limit.
	join := mustPrepare(t, cs, "SELECT COUNT(*) AS N FROM K X, K Y WHERE X.B + Y.B = $1")
	exec(join, types.NewInt(3))
	if join.b.cost <= inlineCostLimit {
		t.Fatalf("the join cost %v per replica; the test needs it above %v", join.b.cost, inlineCostLimit)
	}
	probe.reset(true)
	exec(join, types.NewInt(4))
	if probe.peak < 2 || probe.foreign != 2 {
		t.Errorf("expensive statement: %d replicas at once, %d on helpers; want them overlapped, two on helpers", probe.peak, probe.foreign)
	}

	// Text has no handle to remember on: the first replica is measured
	// inline, then the remaining two overlap, one of them on a helper.
	probe.reset(false)
	if _, _, err := cs.Exec("SELECT COUNT(*) AS N FROM K X, K Y WHERE X.B + Y.B = 5"); err != nil {
		t.Fatal(err)
	}
	if probe.foreign != 1 {
		t.Errorf("expensive text statement: %d executions on helpers, want 1", probe.foreign)
	}

	// A handle whose statement turns cheap goes back inline after the one
	// execution that finds out.
	returned := false
	for try := 0; try < 20 && !returned; try++ {
		point.b.cost = time.Second
		probe.reset(false)
		exec(point, types.NewInt(5))
		if probe.foreign != 2 {
			t.Fatalf("a handle remembered as expensive put %d replicas on helpers, want 2", probe.foreign)
		}
		returned = cheapExec(6)
	}
	if !returned {
		t.Error("the handle never returned to the inline side")
	}
}

// TestConcurrentReadersWriterAndCrash is the -race acceptance test of the
// execution model: eight read sessions adjudicate side by side (no d.mu
// across adjudication), one writer orders its statements against them,
// and one replica's engine panics mid-stream — on whichever goroutine is
// executing it, a session's own or a helper. Every read must still
// return the right row, nothing may split, and the replica must be back
// in service at the end. Run on both sides of the cost rule.
func TestConcurrentReadersWriterAndCrash(t *testing.T) {
	for _, side := range broadcastSides {
		t.Run(side.name, func(t *testing.T) {
			servers := newServers(t, nil, dialect.PG, dialect.OR, dialect.MS)
			d, err := New(DefaultConfig(), servers...)
			if err != nil {
				t.Fatal(err)
			}
			sess := d.NewSession()
			d.inlineLimit = side.limit
			const rows = 64
			mustExec(t, sess, "CREATE TABLE R (A INT PRIMARY KEY, B INT)")
			mustExec(t, sess, "CREATE TABLE L (N INT PRIMARY KEY)")
			for i := 0; i < rows; i++ {
				mustExec(t, sess, fmt.Sprintf("INSERT INTO R VALUES (%d, %d)", i, i*3))
			}

			const (
				readers = 8
				reads   = 150
				writes  = 60
			)
			victim := servers[1]
			var wg sync.WaitGroup
			for r := 0; r < readers; r++ {
				wg.Add(1)
				go func(r int) {
					defer wg.Done()
					cs := d.NewSession()
					defer cs.Close()
					st, err := cs.Prepare("SELECT B FROM R WHERE A = $1")
					if err != nil {
						t.Errorf("reader %d: prepare: %v", r, err)
						return
					}
					for i := 0; i < reads; i++ {
						k := int64((r*31 + i) % rows)
						res, _, err := st.Exec(types.NewInt(k))
						if err != nil {
							t.Errorf("reader %d: %v", r, err)
							return
						}
						if len(res.Rows) != 1 || res.Rows[0][0].I != k*3 {
							t.Errorf("reader %d: key %d returned %v", r, k, res.Rows)
							return
						}
					}
				}(r)
			}
			wg.Add(1)
			go func() {
				defer wg.Done()
				cs := d.NewSession()
				defer cs.Close()
				for i := 0; i < writes; i++ {
					switch i {
					case writes / 3:
						victim.PlantEnginePanic(true)
					case 2 * writes / 3:
						victim.PlantEnginePanic(false)
					}
					if _, _, err := cs.Exec(fmt.Sprintf("INSERT INTO L VALUES (%d)", i)); err != nil {
						t.Errorf("writer: %v", err)
						return
					}
				}
			}()
			wg.Wait()

			m := d.Metrics()
			if m.DetectedSplits != 0 || m.MaskedFailures != 0 || m.ReplicaErrors != 0 {
				t.Errorf("a contained crash surfaced as a value or error failure: %+v", m)
			}
			if m.CrashesDetected == 0 || m.Resyncs == 0 {
				t.Errorf("the panicking replica was not detected and resynced: %+v", m)
			}
			if want := int64(2 + rows + readers*reads + writes); m.Statements != want {
				t.Errorf("statements = %d, want %d", m.Statements, want)
			}
			if q := d.QuarantinedReplicas(); len(q) != 0 {
				t.Errorf("still quarantined after the panic was disarmed: %v", q)
			}
			res, _, err := sess.Exec("SELECT COUNT(*) AS N FROM L")
			if err != nil || res.Rows[0][0].I != writes {
				t.Fatalf("writer's rows: %v %v", res, err)
			}
			if d.Metrics().Unanimous == m.Unanimous {
				t.Errorf("the replica set is not unanimous again after recovery")
			}
		})
	}
}

// A statement prepared while a replica is down must not keep that
// replica's crash: when a handle held one prepared statement per replica,
// the ErrCrashed a downed replica answered Prepare with was voted again at
// every execution — a crash detected, the replica quarantined and fully
// resynced, each time, for the life of the handle. That is how a reader
// starting late in TestConcurrentReadersWriterAndCrash left OR
// quarantined after the last write, once in some forty runs. The handle
// now holds nothing per replica.
func TestPreparedWhileReplicaDownForgetsTheCrash(t *testing.T) {
	servers := newServers(t, nil, dialect.PG, dialect.OR, dialect.MS)
	d, err := New(DefaultConfig(), servers...)
	if err != nil {
		t.Fatal(err)
	}
	sess := d.NewSession()
	defer sess.Close()
	mustExec(t, sess, "CREATE TABLE T (A INT PRIMARY KEY, B INT)")
	mustExec(t, sess, "INSERT INTO T VALUES (1, 10)")

	// OR goes down behind the middleware's back, and stays down.
	servers[1].PlantEnginePanic(true)
	if _, _, err := servers[1].NewSession().Exec("SELECT B FROM T"); !errors.Is(err, server.ErrCrashed) {
		t.Fatalf("planted panic: %v", err)
	}
	servers[1].PlantEnginePanic(false)
	st, err := sess.Prepare("SELECT B FROM T WHERE A = $1")
	if err != nil {
		t.Fatal(err)
	}
	read := func() {
		t.Helper()
		res, _, err := st.Exec(types.NewInt(1))
		if err != nil || len(res.Rows) != 1 || res.Rows[0][0].I != 10 {
			t.Fatalf("read: %v %v", res, err)
		}
	}
	read() // the crash is found, OR restarted and quarantined
	if m := d.Metrics(); m.CrashesDetected != 1 || len(d.QuarantinedReplicas()) != 1 {
		t.Fatalf("first execution: %+v, quarantined %v", m, d.QuarantinedReplicas())
	}
	mustExec(t, sess, "INSERT INTO T VALUES (2, 20)") // OR rejoins
	read()
	read()
	if m := d.Metrics(); m.CrashesDetected != 1 || m.Resyncs != 1 || len(d.QuarantinedReplicas()) != 0 {
		t.Errorf("after the rejoin: %+v, quarantined %v", m, d.QuarantinedReplicas())
	}
}

// TestReplicaPanicIsContainedAsCrash: a panic inside one replica's engine
// reaches the middleware as that replica's crash — outvoted, restarted,
// quarantined and resynced — and never unwinds the client's goroutine.
func TestReplicaPanicIsContainedAsCrash(t *testing.T) {
	servers := newServers(t, nil, dialect.PG, dialect.OR, dialect.MS)
	d, err := New(DefaultConfig(), servers...)
	if err != nil {
		t.Fatal(err)
	}
	sess := d.NewSession()
	mustExec(t, sess, "CREATE TABLE T (A INT PRIMARY KEY)")
	mustExec(t, sess, "INSERT INTO T VALUES (1)")

	servers[0].PlantEnginePanic(true) // replica 0 runs on the session's goroutine
	res, _, err := sess.Exec("SELECT A FROM T")
	if err != nil || len(res.Rows) != 1 {
		t.Fatalf("read across a panicking replica: %v %v", res, err)
	}
	if m := d.Metrics(); m.CrashesDetected != 1 {
		t.Errorf("metrics: %+v", m)
	}
	if q := d.QuarantinedReplicas(); len(q) != 1 || q[0] != string(dialect.PG) {
		t.Errorf("quarantined: %v", q)
	}
	servers[0].PlantEnginePanic(false)
	mustExec(t, sess, "INSERT INTO T VALUES (2)")
	if m := d.Metrics(); m.Resyncs != 1 || len(d.QuarantinedReplicas()) != 0 {
		t.Errorf("after the rejoin write: %+v, quarantined %v", m, d.QuarantinedReplicas())
	}
	res, _, err = sess.Exec("SELECT A FROM T ORDER BY A")
	if err != nil || len(res.Rows) != 2 {
		t.Fatalf("after recovery: %v %v", res, err)
	}

	// All replicas panicking is the all-crashed outcome, still an error
	// and not a dead process.
	for _, s := range servers {
		s.PlantEnginePanic(true)
	}
	if _, _, err := sess.Exec("SELECT A FROM T"); !errors.Is(err, ErrAllReplicasFailed) {
		t.Errorf("every replica panicking: %v", err)
	}
	for _, s := range servers {
		s.PlantEnginePanic(false)
		if s.Crashed() {
			s.Restart()
		}
	}
}
