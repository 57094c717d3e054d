package main

import (
	"encoding/json"
	"fmt"
	"os"
)

// manifest is the part of BENCHMARK.json -agree reads: each gated
// metric's direction and bound.
type manifest struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
}

// readManifest finds BENCHMARK.json at the repository root, whether the
// benchmark runs from there or from its own directory.
func readManifest() (*manifest, error) {
	var firstErr error
	for _, path := range []string{"BENCHMARK.json", "../BENCHMARK.json"} {
		data, err := os.ReadFile(path)
		if err != nil {
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		var m manifest
		if err := json.Unmarshal(data, &m); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		return &m, nil
	}
	return nil, firstErr
}

// sameSeedAllocs is how far allocs_per_op may move between two runs of
// one seed. BENCHMARK.json's bound is wider because it must hold across
// seeds, whose inputs differ; with one seed the work is the same.
const sameSeedAllocs = 0.01

// agreeMain runs two full sets of the same code and seed back to back
// and holds the second against the first: every gated metric within its
// bound, allocs_per_op within 1 %, the hunt's divergence count
// identical. A later change's before/after comparison rests on this.
func agreeMain(seed int64, seconds float64) int {
	m, err := readManifest()
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		return 1
	}
	var sets [2]map[string]*outcome
	for i := range sets {
		sets[i] = make(map[string]*outcome)
		for _, w := range workloads {
			o, err := runWorkload(w, seed, fullSizes(), seconds, false, "")
			if err != nil {
				fmt.Fprintf(os.Stderr, "bench: %s: %v\n", w.name, err)
				return 1
			}
			fmt.Printf("set %d: ", i+1)
			o.report(w, seed, false)
			sets[i][w.name] = o
		}
	}
	ok := true
	fmt.Printf("%-14s %-16s %14s %14s %9s %7s\n", "workload", "metric", "first", "second", "worse by", "bound")
	for _, w := range workloads {
		a, b := sets[0][w.name], sets[1][w.name]
		ok = ok && a.Correct && b.Correct
		for _, e := range m.EndToEnd {
			va, vb := a.values[e.Name], b.values[e.Name]
			worse, bound := (vb-va)/va, e.Bound
			if e.Better == "higher" {
				worse = -worse
			}
			if e.Name == "allocs_per_op" {
				bound = sameSeedAllocs
			}
			verdict := ""
			if worse > bound {
				verdict, ok = "  OUT OF BOUNDS", false
			}
			fmt.Printf("%-14s %-16s %14.4f %14.4f %+8.2f%% %6.0f%%%s\n", w.name, e.Name, va, vb, 100*worse, 100*bound, verdict)
		}
		if da, db := a.values["hunt_divergences"], b.values["hunt_divergences"]; da != db {
			fmt.Printf("%-14s hunt_divergences %v then %v: not reproducible\n", w.name, da, db)
			ok = false
		}
	}
	if !ok {
		return 1
	}
	return 0
}
