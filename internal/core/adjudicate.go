package core

import (
	"time"

	"divsql/internal/engine"
)

// ReplicaResult is one replica's response to a broadcast statement.
type ReplicaResult struct {
	Name    string
	Res     *engine.Result
	Err     error
	Crashed bool
	Latency time.Duration
}

// Verdict is the adjudicator's decision over a set of replica responses.
type Verdict struct {
	// Agreed is the result backed by the largest agreeing group of
	// non-erroring replicas (nil when no replica succeeded).
	Agreed *engine.Result
	// AgreeIdx are the indexes of the replicas in the winning group.
	AgreeIdx []int
	// Outliers are replicas that returned a different result than the
	// winning group (detected value failures).
	Outliers []int
	// Errored are replicas that returned an error.
	Errored []int
	// CrashedIdx are replicas whose engine crashed.
	CrashedIdx []int
	// Unanimous is true when every replica returned the agreed result.
	Unanimous bool
	// Majority is true when the winning group is a strict majority of
	// all replicas.
	Majority bool
	// Split is true when at least two non-erroring replicas disagree and
	// no group reaches a strict majority (e.g. a 1-1 split in a pair):
	// the failure is detected but cannot be masked by voting.
	Split bool
}

// Adjudicate elects the largest group of replicas that returned
// equivalent results. Ties are broken toward the group containing the
// lowest replica index, which makes the adjudication deterministic; with
// two replicas a tie is reported as Split (detection without masking),
// the configuration the paper's Section 4.3 analyses.
//
// Agreement is the overwhelmingly common outcome, so it is tested first
// and cheaply: every successful result is compared cell by cell with the
// first one (sameResult — no digest strings, no map). Only when that does
// not show them all equal are the results grouped by normalized digest.
//
// The verdict's index slices are read-only: the unanimous verdict shares
// its AgreeIdx between calls.
func Adjudicate(results []ReplicaResult, opts CompareOptions) Verdict {
	var v Verdict
	first, same := -1, true
	for i, r := range results {
		switch {
		case r.Crashed:
			v.CrashedIdx = append(v.CrashedIdx, i)
		case r.Err != nil:
			v.Errored = append(v.Errored, i)
		case first < 0:
			first = i
		case same:
			same = sameResult(results[first].Res, r.Res, opts)
		}
	}
	if first < 0 {
		return v
	}
	switch {
	case !same:
		v.AgreeIdx, v.Outliers = groupByDigest(results, opts)
	case v.CrashedIdx == nil && v.Errored == nil && len(results) <= len(identityIdx):
		v.AgreeIdx = identityIdx[:len(results):len(results)]
	default:
		for i, r := range results {
			if !r.Crashed && r.Err == nil {
				v.AgreeIdx = append(v.AgreeIdx, i)
			}
		}
	}
	v.Agreed = results[v.AgreeIdx[0]].Res
	v.Unanimous = len(v.AgreeIdx) == len(results)
	v.Majority = 2*len(v.AgreeIdx) > len(results)
	v.Split = len(v.Outliers) > 0 && !v.Majority
	return v
}

// identityIdx backs the AgreeIdx of unanimous verdicts (0, 1, 2, …), so
// the common verdict allocates nothing.
var identityIdx = [...]int{0, 1, 2, 3, 4, 5, 6, 7}

// groupByDigest groups the successful results by normalized digest and
// returns the largest group (first-seen group on a tie) and everyone
// else.
func groupByDigest(results []ReplicaResult, opts CompareOptions) (agree, outliers []int) {
	groups := make(map[string][]int)
	order := make([]string, 0, len(results))
	for i, r := range results {
		if r.Crashed || r.Err != nil {
			continue
		}
		d := Digest(r.Res, opts)
		if _, seen := groups[d]; !seen {
			order = append(order, d)
		}
		groups[d] = append(groups[d], i)
	}
	best := order[0]
	for _, d := range order[1:] {
		if len(groups[d]) > len(groups[best]) {
			best = d
		}
	}
	for _, d := range order {
		if d != best {
			outliers = append(outliers, groups[d]...)
		}
	}
	return groups[best], outliers
}
