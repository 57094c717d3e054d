package study

import (
	"fmt"
	"sort"
	"strings"

	"divsql/internal/dialect"
	"divsql/internal/qgen"
)

// ServerYield is one server's bug-finding economics over a workload:
// how much statement budget was spent, how many failures it bought, and
// how many *distinct* fault regions (failure fingerprints) those
// failures map to. Yield is the quantity the coverage feedback loop
// optimizes in the differential harness (internal/difftest.Feedback);
// over the fixed corpus it tells which server's failure regions are
// cheap or expensive to reach.
type ServerYield struct {
	Server dialect.ServerName
	// Statements is the number of statements executed against the server
	// across all classified runs.
	Statements int
	// FailingRuns counts runs classified as failures.
	FailingRuns int
	// DistinctFingerprints counts deduplicated failure fingerprints (the
	// paper's per-bug counting).
	DistinctFingerprints int
	// ByClass splits the deviating statements of failing runs by
	// qgen.Class — which statement classes actually trigger this
	// server's faults.
	ByClass map[qgen.Class]int
}

// FailuresPerKStmt is the raw yield: failing runs per thousand
// statements of budget.
func (y ServerYield) FailuresPerKStmt() float64 {
	if y.Statements == 0 {
		return 0
	}
	return 1000 * float64(y.FailingRuns) / float64(y.Statements)
}

// FingerprintsPerKStmt is the deduplicated yield: distinct fault
// regions reached per thousand statements.
func (y ServerYield) FingerprintsPerKStmt() float64 {
	if y.Statements == 0 {
		return 0
	}
	return 1000 * float64(y.DistinctFingerprints) / float64(y.Statements)
}

// BuildYield aggregates the study's runs into per-server yield stats.
func (r *Result) BuildYield() []ServerYield {
	out := make([]ServerYield, 0, len(dialect.AllServers))
	groups := r.DedupFailures()
	for _, s := range dialect.AllServers {
		y := ServerYield{Server: s, ByClass: make(map[qgen.Class]int)}
		for i := range r.Bugs {
			run := r.Runs[r.Bugs[i].ID][s]
			if run == nil {
				continue
			}
			y.Statements += len(run.Stmts)
			if !run.Class.IsFailure() {
				continue
			}
			y.FailingRuns++
			if i := run.Deviation; i >= 0 && i < len(run.Stmts) && run.Stmts[i].P != nil {
				y.ByClass[qgen.ClassOf(run.Stmts[i].P.AST)]++
			}
		}
		y.DistinctFingerprints = len(groups[s])
		out = append(out, y)
	}
	return out
}

// RenderYield prints the per-server yield stats.
func (r *Result) RenderYield() string {
	var b strings.Builder
	b.WriteString("Per-server fault yield (statement budget -> failures -> distinct fault regions)\n")
	b.WriteString("server   stmts   failing-runs  distinct-fps  fail/kstmt  fps/kstmt  trigger classes\n")
	for _, y := range r.BuildYield() {
		classes := make([]string, 0, len(y.ByClass))
		for c, n := range y.ByClass {
			classes = append(classes, fmt.Sprintf("%s:%d", c, n))
		}
		sort.Strings(classes)
		fmt.Fprintf(&b, "%-8s %5d   %12d  %12d  %10.1f  %9.1f  %s\n",
			y.Server, y.Statements, y.FailingRuns, y.DistinctFingerprints,
			y.FailuresPerKStmt(), y.FingerprintsPerKStmt(), strings.Join(classes, " "))
	}
	return b.String()
}
