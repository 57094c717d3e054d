package difftest

import (
	"fmt"
	"strings"

	"divsql/internal/core"
	"divsql/internal/dialect"
	"divsql/internal/engine"
	"divsql/internal/fault"
)

// Report is a self-contained, replayable reproduction of one
// divergence: the minimal statement stream (schema DDL, data and the
// trigger), the fault configuration, and every server's observed
// behavior on the trigger statement. Feed it to Replay to confirm. Its
// JSON form is one case of the regression corpus (ExportCase,
// LoadCases): the behavior summaries stay out of it, since Replay
// re-derives the verdict from scratch.
type Report struct {
	// Name is the report's corpus identity (also its case filename
	// stem): server, verdict source and a stable hash of the
	// fingerprint.
	Name string `json:"name"`
	// Server is the convicted endpoint (a server name, or the pristine
	// oracle for self-check verdicts recorded against it).
	Server dialect.ServerName `json:"server"`
	// Oracle is the verdict source: "" for the differential
	// server-vs-oracle vote, or a self-check oracle's name
	// (metamorph.Oracles). Replay uses it to re-run the same verdict
	// source the original run convicted with.
	Oracle string `json:"oracle,omitempty"`
	// Fingerprint is the triggering statement's syntactic fingerprint
	// (the dedup key): replay asserts the same statement shape convicts
	// again.
	Fingerprint string `json:"fingerprint"`
	// Seed is the generator seed of the originating run.
	Seed int64 `json:"seed"`
	// Faults and Stress reproduce the originating configuration. Faults
	// are trimmed to the ones the stream can trigger on Server.
	Faults []fault.Fault `json:"faults,omitempty"`
	Stress bool          `json:"stress,omitempty"`
	// Stream is the minimal statement sequence (bound statements in their
	// encoded form); the diverging statement sits at TriggerIndex.
	Stream       []string `json:"stream"`
	TriggerIndex int      `json:"trigger_index"`
	// Class is the observational failure classification.
	Class core.Classification `json:"class"`
	// Behavior records each server's outcome on the trigger statement;
	// OracleBehavior is the pristine reference outcome.
	Behavior       map[dialect.ServerName]string `json:"-"`
	OracleBehavior string                        `json:"-"`
}

// resultSummary renders a compact row/affected summary of a result.
func resultSummary(res *engine.Result) string {
	if res == nil {
		return "ok"
	}
	d := core.Digest(res, core.DefaultCompareOptions())
	if len(res.Rows) > 0 || len(res.Columns) > 0 {
		return fmt.Sprintf("%d row(s), digest %08x", len(res.Rows), fnv32(d))
	}
	return fmt.Sprintf("ok (affected %d)", res.Affected)
}

// fnv32 is a tiny stable hash for digest display.
func fnv32(s string) uint32 {
	h := uint32(2166136261)
	for i := 0; i < len(s); i++ {
		h ^= uint32(s[i])
		h *= 16777619
	}
	return h
}

// Render prints the report in a replayable, human-readable form.
func (r *Report) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "=== divergence on %s (%s, %s)\n", r.Server, r.Class.Type, evidence(r.Class))
	fmt.Fprintf(&b, "fingerprint: %s\n", r.Fingerprint)
	if r.Oracle != "" {
		fmt.Fprintf(&b, "verdict source: %s self-check\n", r.Oracle)
	}
	fmt.Fprintf(&b, "seed %d, %d statement(s), trigger #%d\n", r.Seed, len(r.Stream), r.TriggerIndex+1)
	b.WriteString("--- minimal stream\n")
	for i, s := range r.Stream {
		marker := "   "
		if i == r.TriggerIndex {
			marker = ">>>"
		}
		fmt.Fprintf(&b, "%s %s;\n", marker, s)
	}
	b.WriteString("--- observed behavior on trigger\n")
	if r.Oracle != "" {
		// Self-check report: only the convicted endpoint's behavior is
		// meaningful — the violated relation is between the statement and
		// rewrites of itself on the same endpoint.
		if beh, ok := r.Behavior[r.Server]; ok {
			fmt.Fprintf(&b, "    %-10s %s  <-- violates %s relation\n", string(r.Server)+":", beh, r.Oracle)
		}
		fmt.Fprintf(&b, "    %-10s %s\n", "verdict:", r.OracleBehavior)
	} else {
		fmt.Fprintf(&b, "    %-10s %s\n", "ORACLE:", r.OracleBehavior)
		for _, s := range dialect.AllServers {
			if beh, ok := r.Behavior[s]; ok {
				mark := ""
				if s == r.Server {
					mark = "  <-- divergent"
				}
				fmt.Fprintf(&b, "    %-10s %s%s\n", string(s)+":", beh, mark)
			}
		}
	}
	if r.Class.Detail != "" {
		fmt.Fprintf(&b, "detail: %s\n", r.Class.Detail)
	}
	return b.String()
}

func evidence(c core.Classification) string {
	if c.SelfEvident {
		return "self-evident"
	}
	return "non-self-evident"
}

// Render prints the run summary: adjudication volume, per-server
// deduplicated divergence counts, and the shrunk reports.
func (r *Result) Render(verbose bool) string {
	var b strings.Builder
	fmt.Fprintf(&b, "differential run: %d statements adjudicated (%d executions) in %v\n",
		r.Statements, r.Execs, r.Elapsed.Round(1000000))
	if r.Statements > 0 && r.Elapsed > 0 {
		fmt.Fprintf(&b, "throughput: %.0f statements/s adjudicated\n",
			float64(r.Statements)/r.Elapsed.Seconds())
	}
	if r.Coverage != nil {
		b.WriteString(r.Coverage.Render())
	}
	fmt.Fprintf(&b, "divergences: %d distinct fingerprints (%d raw occurrences)\n", len(r.Divergences), r.Raw)
	for _, s := range dialect.AllServers {
		if n, ok := r.PerServer[s]; ok {
			fmt.Fprintf(&b, "  %s: %d\n", s, n)
		}
	}
	for _, d := range r.Divergences {
		tag := ""
		if d.Oracle != "" {
			tag = " <" + d.Oracle + ">"
		}
		fmt.Fprintf(&b, "- %s%s [%s] x%d: %s\n", d.Server, tag, d.Class.Type, d.Count, d.SQL)
		if verbose && d.Report != nil {
			b.WriteString(d.Report.Render())
		}
	}
	return b.String()
}
