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

// ExportCase writes one shrunk report into dir as a regression case
// (its JSON form, named by caseName), deduplicated across runs by corpus
// identity: a case file that already exists is left untouched (first
// capture wins, so committed corpus files stay stable under re-runs).
// It returns the case's path.
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
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return "", err
	}
	return path, os.WriteFile(path, append(data, '\n'), 0o644)
}

// LoadCases reads every case file under dir, sorted by name. A missing
// directory is an empty corpus, not an error. A loaded report carries
// no behavior summaries.
func LoadCases(dir string) ([]*Report, error) {
	entries, err := os.ReadDir(dir)
	if os.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	var cases []*Report
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".json") {
			continue
		}
		data, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			return nil, err
		}
		var c Report
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
