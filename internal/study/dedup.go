package study

import (
	"fmt"
	"sort"
	"strings"

	"divsql/internal/dialect"
	"divsql/internal/sql/ast"
)

// FailureFingerprint returns the syntactic fingerprint of the statement
// on which a failing run first deviated from the oracle. ok is false for
// non-failing runs and for deviating statements that do not parse (which
// cannot happen for corpus scripts, but keeps the API total).
func (r *Run) FailureFingerprint() (ast.Fingerprint, bool) {
	if r == nil || !r.Class.IsFailure() {
		return ast.Fingerprint{}, false
	}
	if r.Deviation < 0 || r.Deviation >= len(r.Stmts) {
		return ast.Fingerprint{}, false
	}
	p := r.Stmts[r.Deviation].P
	if p == nil {
		return ast.Fingerprint{}, false
	}
	return p.Fingerprint, true
}

// FailureGroup is one deduplicated failure of one server: all failing
// runs whose deviating statements share a fingerprint. One injected bug
// triggered by several scripts (or repeatedly by a generated workload)
// collapses into a single group, mirroring the paper's per-bug counting.
type FailureGroup struct {
	Server      dialect.ServerName
	Fingerprint string
	Bugs        []string
}

// DedupFailures groups every failing run per server by the fingerprint
// of its deviating statement. Runs with no usable fingerprint are
// grouped under their bug ID (they stay distinct).
func (r *Result) DedupFailures() map[dialect.ServerName][]FailureGroup {
	byServer := make(map[dialect.ServerName]map[string][]string)
	for _, s := range dialect.AllServers {
		byServer[s] = make(map[string][]string)
	}
	for i := range r.Bugs {
		bug := &r.Bugs[i]
		for tgt, run := range r.Runs[bug.ID] {
			if run == nil || !run.Class.IsFailure() {
				continue
			}
			key := "unfingerprintable:" + bug.ID
			if fp, ok := run.FailureFingerprint(); ok {
				key = fp.String()
			}
			byServer[tgt][key] = append(byServer[tgt][key], bug.ID)
		}
	}
	out := make(map[dialect.ServerName][]FailureGroup, len(byServer))
	for s, groups := range byServer {
		keys := make([]string, 0, len(groups))
		for k := range groups {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			ids := groups[k]
			sort.Strings(ids)
			out[s] = append(out[s], FailureGroup{Server: s, Fingerprint: k, Bugs: ids})
		}
	}
	return out
}

// RenderDedup prints the per-server deduplicated failure counts: raw
// failing runs vs distinct failure fingerprints, listing the scripts
// that collapse together.
func (r *Result) RenderDedup() string {
	groups := r.DedupFailures()
	var b strings.Builder
	b.WriteString("Deduplicated failures (one fingerprint = one fault, per-bug counting)\n")
	for _, s := range dialect.AllServers {
		raw := 0
		for _, g := range groups[s] {
			raw += len(g.Bugs)
		}
		fmt.Fprintf(&b, "%s: %d failing runs -> %d distinct failure fingerprints\n", s, raw, len(groups[s]))
		for _, g := range groups[s] {
			if len(g.Bugs) > 1 {
				fmt.Fprintf(&b, "    %d scripts share one fault region: %s\n", len(g.Bugs), strings.Join(g.Bugs, ", "))
			}
		}
	}
	return b.String()
}
