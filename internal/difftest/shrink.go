package difftest

import (
	"errors"
	"fmt"
	"strings"

	"divsql/internal/core"
	"divsql/internal/dialect"
	"divsql/internal/metamorph"
	"divsql/internal/server"
	"divsql/internal/sql/ast"
	"divsql/internal/sql/stmt"
	"divsql/internal/study"
)

// maxShrinkReplays bounds the replay budget of one shrink: greedy
// elision is quadratic in the worst case, and a report that is merely
// small is still useful.
const maxShrinkReplays = 400

// shrinkAndReport minimizes the statement history behind one divergence
// and packages it as a self-contained, replayable report. The shrink is
// semantic, not positional: a candidate list survives when replaying it
// on a fresh server/oracle pair still produces a divergence with the
// original (server, fingerprint) key.
func shrinkAndReport(cfg Config, key dedupKey, history []string) *Report {
	shr := &shrinker{cfg: cfg, key: key}
	if !shr.reproduces(history) {
		// Not reproducible from this stream's history alone (concurrent
		// streams can observe a crash another stream triggered). No
		// minimal repro exists in this stream; report nothing.
		return nil
	}

	// Pass 1: dependency slice — keep only statements whose referenced
	// tables reach the trigger statement's tables (plus transaction
	// control). This collapses the quadratic elision to the relevant
	// tail. Fall back to the full history when slicing breaks repro.
	sliced := dependencySlice(history)
	if !shr.reproduces(sliced) {
		sliced = history
	}

	// Pass 2: greedy statement elision to a fixed point (budgeted).
	min := shr.elide(sliced)
	if key.src != srcDifferential {
		return buildSelfCheckReport(cfg, key, min)
	}
	return buildReport(cfg, key, min)
}

type shrinker struct {
	cfg     Config
	key     dedupKey
	replays int

	// srv/orc are built once and Reset between probes: a shrink replays
	// hundreds of candidate streams, and rebuilding the server (dialect
	// tables, fault registry) per probe dominated the shrink budget.
	srv *server.Server
	orc *server.Server
}

// elide removes statements whose absence preserves the divergence,
// ddmin-style: chunks from half the stream down to single statements,
// scanning backwards (later statements depend on earlier ones, so
// removing from the back converges faster). The final single-statement
// passes run to a fixed point, so the result is 1-minimal unless the
// replay budget runs out first.
func (s *shrinker) elide(stmts []string) []string {
	cur := append([]string(nil), stmts...)
	chunk := len(cur) / 2
	if chunk < 1 {
		chunk = 1
	}
	for {
		changed := false
		for start := len(cur) - chunk; start > -chunk; start -= chunk {
			if s.replays >= maxShrinkReplays {
				return cur
			}
			lo, hi := start, start+chunk
			if lo < 0 {
				lo = 0
			}
			if hi > len(cur) || lo >= hi {
				continue
			}
			cand := make([]string, 0, len(cur)-(hi-lo))
			cand = append(cand, cur[:lo]...)
			cand = append(cand, cur[hi:]...)
			if s.reproduces(cand) {
				cur = cand
				changed = true
			}
		}
		if chunk > 1 {
			chunk /= 2
			continue
		}
		if !changed {
			return cur
		}
	}
}

// reproduces replays the candidate stream on a reset endpoint and
// checks whether the shrinker's divergence key still fires: for the
// differential key, a server-vs-oracle pair is adjudicated statement by
// statement; for a self-check key (a metamorph oracle), the convicted
// endpoint alone replays the stream and re-runs the verdict source on
// each answered matching SELECT.
func (s *shrinker) reproduces(stmts []string) bool {
	s.replays++
	if s.srv == nil {
		if s.srv = selfCheckEndpoint(s.cfg, s.key.server); s.srv == nil {
			return false
		}
		s.orc = server.NewOracle()
	}
	s.srv.Reset()
	if s.key.src != srcDifferential {
		idx, _, _ := selfCheckScanOn(s.srv, s.key, stmts)
		return idx >= 0
	}
	s.orc.Reset()
	_, _, found := divergesWith(s.key, study.RunSource(s.srv, stmts), study.RunSource(s.orc, stmts))
	return found
}

// selfCheckEndpoint builds the endpoint a self-check verdict convicted:
// the pristine reference engine when the key names the oracle (the
// oracle-side self-checks record against it), otherwise the named
// server under the run's fault and stress configuration.
func selfCheckEndpoint(cfg Config, name dialect.ServerName) *server.Server {
	if name == server.OracleName {
		return server.NewOracle()
	}
	srv, err := server.New(name, cfg.Faults)
	if err != nil {
		return nil
	}
	srv.SetStress(cfg.Stress)
	return srv
}

// selfCheckScanOn replays the stream through one session of srv and
// re-runs the key's verdict source (one metamorph oracle) on every
// answered, non-sequence-advancing SELECT carrying the key's
// fingerprint. It returns the first convicting statement index, its
// classification, and the endpoint's base-result summary; idx is -1
// when nothing convicts. The caller owns srv's Reset lifecycle.
func selfCheckScanOn(srv *server.Server, key dedupKey, stmts []string) (int, core.Classification, string) {
	sess := srv.NewSession()
	defer sess.Close()
	for i, entry := range stmts {
		sql, args, _ := core.DecodeBound(entry)
		p, perr := stmt.Resolve(sql)
		if perr != nil {
			continue
		}
		res, _, err := sess.Run(p, args)
		if errors.Is(err, server.ErrCrashed) {
			srv.Restart()
			continue
		}
		if err != nil || p.Select == nil || p.Fingerprint.String() != key.fp || srv.SelectAdvancesSequences(p) {
			continue
		}
		// The summary is read before the oracle's re-runs reclaim res.
		summary := resultSummary(res)
		_, findings := metamorph.Check(sess, p, args, res, []metamorph.Oracle{metamorph.Oracle(key.src)})
		if len(findings) > 0 {
			cls := core.Classification{Status: core.StatusFailure, Type: core.IncorrectResult, Detail: findings[0].Detail}
			return i, cls, summary
		}
	}
	return -1, core.Classification{}, ""
}

// divergesWith scans paired outcomes for a divergence whose triggering
// statement carries the key's fingerprint; it returns the statement's
// index and verdict, found false when there is none.
func divergesWith(key dedupKey, sOut, oOut []study.Outcome) (idx int, cls core.Classification, found bool) {
	for i := range sOut {
		if i >= len(oOut) {
			break
		}
		if p := sOut[i].P; p != nil && p.Fingerprint.String() == key.fp {
			if c := study.ClassifyStmt(sOut[i], oOut[i]); c.IsFailure() {
				return i, c, true
			}
		}
	}
	return -1, core.Classification{}, false
}

// dependencySlice keeps the statements whose table sets transitively
// reach the final (trigger) statement's tables, plus transaction
// control. Statements over unrelated tables cannot influence the
// divergence under the engine's disjoint-rows isolation contract.
func dependencySlice(history []string) []string {
	if len(history) == 0 {
		return history
	}
	parsed := make([]ast.Statement, len(history))
	for i, entry := range history {
		sql, _, _ := core.DecodeBound(entry)
		if p, err := stmt.Resolve(sql); err == nil {
			parsed[i] = p.AST
		}
	}
	needed := map[string]bool{}
	last := parsed[len(history)-1]
	if last == nil {
		return history
	}
	for t := range ast.Tables(last) {
		needed[t] = true
	}
	keep := make([]bool, len(history))
	keep[len(history)-1] = true
	for i := len(history) - 2; i >= 0; i-- {
		st := parsed[i]
		if st == nil {
			keep[i] = true
			continue
		}
		switch st.(type) {
		case *ast.Begin, *ast.Commit, *ast.Rollback:
			keep[i] = true
			continue
		}
		tabs := ast.Tables(st)
		hit := false
		for t := range tabs {
			if needed[t] {
				hit = true
				break
			}
		}
		// Name-bearing DDL without table references (DROP INDEX etc.)
		// stays only if its name matches a needed object.
		if !hit {
			if name := ddlObjectName(st); name != "" && needed[strings.ToUpper(name)] {
				hit = true
			}
		}
		if hit {
			keep[i] = true
			for t := range tabs {
				needed[t] = true
			}
		}
	}
	out := make([]string, 0, len(history))
	for i, k := range keep {
		if k {
			out = append(out, history[i])
		}
	}
	return out
}

// ddlObjectName names DDL statements whose target is not a table
// reference (so ast.Tables misses it).
func ddlObjectName(st ast.Statement) string {
	switch x := st.(type) {
	case *ast.CreateIndex:
		return x.Table
	case *ast.CreateSequence:
		return x.Name
	case *ast.DropSequence:
		return x.Name
	}
	return ""
}

// Replay re-executes a report's statement stream (same faults and
// stress setting as the original run) and reports whether the recorded
// divergence reproduces: differential reports replay on a fresh
// server/oracle pair, self-check reports (Oracle non-empty) replay on
// the convicted endpoint alone and re-run the recorded verdict source.
func Replay(r *Report) (bool, error) {
	key := dedupKey{server: r.Server, fp: r.Fingerprint, src: r.Oracle}
	cfg := Config{Seed: r.Seed, Faults: r.Faults, Stress: r.Stress}
	if r.Oracle != srcDifferential {
		srv := selfCheckEndpoint(cfg, r.Server)
		if srv == nil {
			return false, fmt.Errorf("unknown endpoint %q", r.Server)
		}
		idx, _, _ := selfCheckScanOn(srv, key, r.Stream)
		return idx >= 0, nil
	}
	srv, err := server.New(r.Server, r.Faults)
	if err != nil {
		return false, err
	}
	srv.SetStress(r.Stress)
	_, _, found := divergesWith(key, study.RunSource(srv, r.Stream), study.RunSource(server.NewOracle(), r.Stream))
	return found, nil
}

// behaviorOf summarizes one endpoint's outcome on the trigger statement.
func behaviorOf(out study.Outcome) string {
	switch {
	case out.Crashed:
		return "engine crash"
	case out.Err != nil:
		return "error: " + out.Err.Error()
	case out.Res == nil:
		return "no result"
	default:
		return resultSummary(out.Res)
	}
}

// newReport starts the report of one key's minimal stream: its identity
// and the originating configuration, faults trimmed to the ones the
// stream can trigger on the convicted endpoint.
func newReport(cfg Config, key dedupKey, stream []string) *Report {
	r := &Report{
		Server:      key.server,
		Oracle:      key.src,
		Fingerprint: key.fp,
		Seed:        cfg.Seed,
		Faults:      trimFaults(cfg.Faults, key.server, stream),
		Stress:      cfg.Stress,
		Stream:      append([]string(nil), stream...),
		Behavior:    make(map[dialect.ServerName]string),
	}
	r.Name = caseName(r)
	return r
}

// buildReport replays the minimal stream on every server plus the
// oracle, recording each one's observed behavior on the trigger
// statement — the report is self-contained: schema, data, statements
// and per-server behavior.
func buildReport(cfg Config, key dedupKey, stream []string) *Report {
	r := newReport(cfg, key, stream)
	oOut := study.RunSource(server.NewOracle(), stream)

	// Locate the trigger on the divergent server first, then record what
	// every server does on that same statement.
	r.TriggerIndex = len(stream) - 1
	if srv, err := server.New(key.server, cfg.Faults); err == nil {
		srv.SetStress(cfg.Stress)
		if idx, cls, found := divergesWith(key, study.RunSource(srv, stream), oOut); found {
			r.TriggerIndex, r.Class = idx, cls
		}
	}
	if r.TriggerIndex < len(oOut) {
		r.OracleBehavior = behaviorOf(oOut[r.TriggerIndex])
	}
	for _, name := range dialect.AllServers {
		srv, err := server.New(name, cfg.Faults)
		if err != nil {
			continue
		}
		srv.SetStress(cfg.Stress)
		sOut := study.RunSource(srv, stream)
		switch {
		case r.TriggerIndex < len(sOut):
			r.Behavior[name] = behaviorOf(sOut[r.TriggerIndex])
		case len(sOut) > 0 && sOut[len(sOut)-1].Crashed:
			r.Behavior[name] = "engine crash (before trigger)"
		default:
			r.Behavior[name] = "no outcome"
		}
	}
	return r
}

// buildSelfCheckReport packages a self-check divergence: the verdict
// came from rewriting one endpoint's own statement, so the report
// records that endpoint's behavior and the violated relation — no
// cross-server vote is involved and no other server's behavior is
// meaningful.
func buildSelfCheckReport(cfg Config, key dedupKey, stream []string) *Report {
	r := newReport(cfg, key, stream)
	r.TriggerIndex = len(stream) - 1
	if srv := selfCheckEndpoint(cfg, key.server); srv != nil {
		if idx, cls, beh := selfCheckScanOn(srv, key, stream); idx >= 0 {
			r.TriggerIndex = idx
			r.Class = cls
			r.Behavior[key.server] = beh
		}
	}
	r.OracleBehavior = "self-check relation violated (" + key.src + ")"
	return r
}
