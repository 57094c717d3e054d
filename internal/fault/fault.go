// Package fault implements the fault-injection model of the simulated
// servers. A Fault is an always-present defect with a trigger (the
// paper's "failure region": the set of demands that activate it) and an
// effect (how the failure manifests). Faults with the same effect
// registered on two servers model the paper's coincident bugs that
// produce identical, non-detectable failures; faults sharing a trigger
// but differing in effect model partially-overlapping failure regions.
package fault

import (
	"slices"
	"strings"

	"divsql/internal/dialect"
	"divsql/internal/sql/ast"
)

// EffectKind enumerates failure manifestations.
type EffectKind int

// Effect kinds.
const (
	// EffectCrash halts the server engine (self-evident).
	EffectCrash EffectKind = iota + 1
	// EffectError rejects the statement with a spurious error message
	// (self-evident incorrect result).
	EffectError
	// EffectMutateResult silently corrupts the statement's result set
	// (non-self-evident incorrect result).
	EffectMutateResult
	// EffectLatency delays the statement beyond the acceptable threshold
	// (performance failure).
	EffectLatency
	// EffectSuppressError silently swallows a legitimate error, accepting
	// an invalid statement (non-self-evident "other" failure).
	EffectSuppressError
	// EffectAbortConnection drops the client connection without crashing
	// the engine (self-evident "other" failure).
	EffectAbortConnection
)

// Mutation names a deterministic result-set corruption. Two servers
// applying the same mutation to the same correct result produce identical
// incorrect outputs — the paper's non-detectable failure case.
type Mutation string

// Result mutations.
const (
	MutNone         Mutation = ""
	MutDropLastRow  Mutation = "drop-last-row"
	MutDupFirstRow  Mutation = "duplicate-first-row"
	MutNegateInts   Mutation = "negate-first-int"
	MutNullCell     Mutation = "null-first-cell"
	MutOffByOne     Mutation = "off-by-one-int"
	MutBlankColumns Mutation = "blank-column-names"
	MutEmptyResult  Mutation = "empty-result"
	MutScaleFloats  Mutation = "scale-floats"
)

// Trigger defines the failure region of a fault.
type Trigger struct {
	// Table restricts the fault to statements referencing this table
	// (upper-cased). Empty means any table.
	Table string
	// Flag restricts the fault to statements carrying this fingerprint
	// flag. Empty means any statement shape.
	Flag ast.Flag
	// Func restricts the fault to statements calling this function.
	Func string
	// UnderStressOnly marks Heisenbug behaviour: the fault only fires in
	// the stressful environment (multiple clients, large transaction
	// counts) that the paper proposes for re-testing Heisenbugs; on a
	// quiet single-client run it never manifests.
	UnderStressOnly bool
}

// region is a trigger resolved for matching: its names upper-cased and
// its flag a bit, once, where it is checked against every statement.
type region struct {
	table, fn string
	flag      uint64 // 0: any statement shape
	stress    bool
}

func (t Trigger) resolve() region {
	r := region{table: strings.ToUpper(t.Table), fn: strings.ToUpper(t.Func), stress: t.UnderStressOnly}
	if t.Flag != "" {
		r.flag = ast.FlagBit(t.Flag)
	}
	return r
}

// matches reports whether a statement fingerprint falls in the failure
// region under the given environment.
func (r *region) matches(fp ast.Fingerprint, stress bool) bool {
	return (!r.stress || stress) &&
		(r.table == "" || slices.Contains(fp.Tables, r.table)) &&
		fp.HasAll(r.flag) &&
		(r.fn == "" || slices.Contains(fp.Funcs, r.fn))
}

// Effect is how an activated fault manifests.
type Effect struct {
	Kind EffectKind
	// Message is the error text for EffectError/EffectAbortConnection.
	Message string
	// Mutation selects the corruption for EffectMutateResult.
	Mutation Mutation
	// LatencyMillis is the injected delay for EffectLatency.
	LatencyMillis int
}

// Fault is one injected defect of one server.
type Fault struct {
	// BugID ties the fault to its corpus bug report.
	BugID string
	// Server is the simulated server carrying the fault.
	Server dialect.ServerName
	// Trigger is the failure region.
	Trigger Trigger
	// Effect is the manifestation.
	Effect Effect
}

// Registry holds the faults of one server, each with its trigger
// resolved (regions, index-aligned with faults).
type Registry struct {
	faults  []Fault
	regions []region
}

// NewRegistry builds a registry from the faults belonging to server name.
func NewRegistry(name dialect.ServerName, all []Fault) *Registry {
	r := &Registry{}
	for _, f := range all {
		if f.Server == name {
			r.faults = append(r.faults, f)
			r.regions = append(r.regions, f.Trigger.resolve())
		}
	}
	return r
}

// Len reports the number of registered faults.
func (r *Registry) Len() int { return len(r.faults) }

// Match returns the first fault triggered by the fingerprint, or nil.
func (r *Registry) Match(fp ast.Fingerprint, stress bool) *Fault {
	for i := range r.regions {
		if r.regions[i].matches(fp, stress) {
			return &r.faults[i]
		}
	}
	return nil
}

// Faults returns a copy of the registered faults.
func (r *Registry) Faults() []Fault {
	return append([]Fault(nil), r.faults...)
}
