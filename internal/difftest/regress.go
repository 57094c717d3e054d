package difftest

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"divsql/internal/core"
	"divsql/internal/dialect"
	"divsql/internal/fault"
	"divsql/internal/sql/ast"
	"divsql/internal/sql/stmt"
)

// RegressCase is the on-disk form of one replayable regression case: a
// shrunk divergence report flattened to plain JSON so hunts can export
// what they find and `go test ./regress/...` can replay the corpus
// against every future engine revision. The case is self-contained —
// schema DDL, data, the trigger statement (bound statements in their
// encoded form), the fault configuration that provoked the divergence,
// and the verdict source that convicted it.
type RegressCase struct {
	// Name is the case's corpus identity (also its filename stem):
	// server, verdict source and a stable hash of the fingerprint.
	Name string `json:"name"`
	// Server is the convicted endpoint (a server name, or the pristine
	// oracle for self-check verdicts recorded against it).
	Server dialect.ServerName `json:"server"`
	// Oracle is the verdict source ("" differential, "planvariants", or
	// a metamorphic oracle name).
	Oracle string `json:"oracle,omitempty"`
	// Fingerprint is the triggering statement's syntactic fingerprint —
	// replay asserts the same statement shape convicts again.
	Fingerprint string `json:"fingerprint"`
	// Seed, Faults and Stress reproduce the originating configuration.
	// Faults are trimmed to the ones the case's stream can actually
	// trigger.
	Seed   int64         `json:"seed"`
	Faults []fault.Fault `json:"faults,omitempty"`
	Stress bool          `json:"stress,omitempty"`
	// Stream is the minimal statement sequence; Trigger sits at
	// TriggerIndex.
	Stream       []string `json:"stream"`
	TriggerIndex int      `json:"trigger_index"`
	// Class is the recorded classification of the divergence.
	Class core.Classification `json:"class"`
}

// caseName derives the corpus identity: lowercase server, verdict
// source ("diff" for the differential vote) and a stable 32-bit hash of
// the fingerprint.
func caseName(r *Report) string {
	src := r.Oracle
	if src == srcDifferential {
		src = "diff"
	}
	return fmt.Sprintf("%s-%s-%08x", strings.ToLower(string(r.Server)), src, fnv32(r.Fingerprint))
}

// trimFaults keeps the faults the case's replay can exercise: the
// convicted endpoint's own faults whose trigger region (table, if any)
// the stream actually touches. Untriggerable faults are dead weight in
// a committed corpus file and would couple the case to unrelated
// corpus entries.
func trimFaults(faults []fault.Fault, srv dialect.ServerName, stream []string) []fault.Fault {
	tables := map[string]bool{}
	for _, entry := range stream {
		sql, _, _ := core.DecodeBound(entry)
		if p, err := stmt.Resolve(sql); err == nil {
			for t := range ast.Tables(p.AST) {
				tables[t] = true
			}
		}
	}
	var out []fault.Fault
	for _, f := range faults {
		if f.Server != srv {
			continue
		}
		if f.Trigger.Table != "" && !tables[strings.ToUpper(f.Trigger.Table)] {
			continue
		}
		out = append(out, f)
	}
	return out
}

// CaseFromReport flattens a shrunk report into its corpus form.
func CaseFromReport(r *Report) *RegressCase {
	return &RegressCase{
		Name:         caseName(r),
		Server:       r.Server,
		Oracle:       r.Oracle,
		Fingerprint:  r.Fingerprint,
		Seed:         r.Seed,
		Faults:       trimFaults(r.Faults, r.Server, r.Stream),
		Stress:       r.Stress,
		Stream:       append([]string(nil), r.Stream...),
		TriggerIndex: r.TriggerIndex,
		Class:        r.Class,
	}
}

// Report rebuilds the replayable report a case was flattened from
// (behavior summaries are not round-tripped — Replay re-derives the
// verdict from scratch).
func (c *RegressCase) Report() *Report {
	return &Report{
		Server:       c.Server,
		Fingerprint:  c.Fingerprint,
		Oracle:       c.Oracle,
		Seed:         c.Seed,
		Faults:       c.Faults,
		Stress:       c.Stress,
		Stream:       append([]string(nil), c.Stream...),
		Trigger:      c.Stream[c.TriggerIndex],
		TriggerIndex: c.TriggerIndex,
		Class:        c.Class,
		Behavior:     map[dialect.ServerName]string{},
	}
}

// ExportCase writes one shrunk report into dir as a regression case,
// deduplicated across runs by corpus identity: a case file that already
// exists is left untouched (first capture wins, so committed corpus
// files stay stable under re-runs). It returns the case's path.
func ExportCase(dir string, r *Report) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, caseName(r)+".json")
	if _, err := os.Stat(path); err == nil {
		return path, nil
	} else if !os.IsNotExist(err) {
		return "", err
	}
	data, err := json.MarshalIndent(CaseFromReport(r), "", "  ")
	if err != nil {
		return "", err
	}
	return path, os.WriteFile(path, append(data, '\n'), 0o644)
}

// LoadCases reads every case file under dir, sorted by name. A missing
// directory is an empty corpus, not an error.
func LoadCases(dir string) ([]*RegressCase, error) {
	entries, err := os.ReadDir(dir)
	if os.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	var cases []*RegressCase
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".json") {
			continue
		}
		data, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			return nil, err
		}
		var c RegressCase
		if err := json.Unmarshal(data, &c); err != nil {
			return nil, fmt.Errorf("%s: %w", e.Name(), err)
		}
		if c.TriggerIndex < 0 || c.TriggerIndex >= len(c.Stream) {
			return nil, fmt.Errorf("%s: trigger index %d outside stream of %d", e.Name(), c.TriggerIndex, len(c.Stream))
		}
		cases = append(cases, &c)
	}
	sort.Slice(cases, func(i, j int) bool { return cases[i].Name < cases[j].Name })
	return cases, nil
}

// ReplayCase re-executes one corpus case through a fresh stack and
// reports whether the recorded divergence still reproduces under the
// recorded verdict source.
func ReplayCase(c *RegressCase) (bool, error) {
	return Replay(c.Report())
}
